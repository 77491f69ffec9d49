"""The public surface of the package: every public top-level function and public
method in `src/excseq` is either called from another function of the package or
kept on purpose as an entry point for callers outside it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "excseq"

# The kept entry points that nothing inside the package calls: the ordered-cluster <->
# shifted-sequence bijection, the cluster, configuration, duality and mutation maps,
# the verification suites and the command.  Every public function of `counting` and
# `dynkin` has a caller inside the package, so neither module needs an entry here.
KEEP = {
    "bijection.tuple_to_sequence", "bijection.sequence_to_tuple",
    "shiftcat.enumerate_clusters", "configs.order_cluster", "configs.garside_configuration",
    "configs.duality_frame", "configs.mutate", "configs.exchange_graph",
    "verify.verify_counting", "verify.verify_bijection", "verify.verify_duality",
    "verify.verify_mutation", "verify.verify_all", "cli.main",
}


def _functions(tree):
    """(qualified name, node) of each top-level function and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _names_read(func) -> set[str]:
    """The names a function reads other than its own locals, and the attributes it reads;
    a docstring is a constant, so it names nothing."""
    nodes = list(ast.walk(func))
    local = {n.arg for n in nodes if isinstance(n, ast.arg)}
    local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
             and n.id not in local}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_every_public_function_has_a_caller_or_is_kept():
    public, readers = [], {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not callers
            continue
        for name, func in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            qualified = f"{path.stem}.{name}"
            if not name.split(".")[-1].startswith("_"):
                public.append(qualified)
            for read in _names_read(func):
                readers.setdefault(read, set()).add(qualified)
    uncalled = {q for q in public if not readers.get(q.split(".")[-1], set()) - {q}}
    assert sorted(uncalled - KEEP) == [], "public, but neither called nor kept"
    assert sorted(KEEP - set(public)) == [], "kept, but no longer defined"
