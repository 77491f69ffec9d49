"""Traced run of one excseq CLI invocation: per-layer self time and counters.

    python3 perfbench/tracer.py SRC_DIR CLI_ARG...

Imports excseq from SRC_DIR, wraps every public function and every public
method of every class of each layer module, runs ``excseq.cli.main`` on the
given arguments with its stdout hashed instead of printed, restores every
wrapped attribute and prints one JSON report on stdout.

A layer is a module of the package.  Each wrapped call is a span; a layer's
self time is the time inside its spans minus the time inside the spans they
caused, so the self times of all layers add up to the root ``cli.main`` span.
Spans are reduced to per-layer sums as they close instead of being kept.
The hottest leaf functions are counted without a span, so their time is
charged to the layer that called them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("dynkin", "linalg", "repengine", "wide", "counting", "shiftcat",
          "bijection", "configs", "serialize", "verify", "cli")

# Called millions of times per run: a span on each would swamp the run.
COUNT_ONLY = frozenset({"repengine.RepCategory.check_root",
                        "repengine.RepCategory.euler",
                        "shiftcat.compatible"})

# Functions whose distinct argument tuples are counted.
DISTINCT = frozenset({"wide.perp", "wide.mutate_pair", "bijection.transport"})

# Root-pair lookups: the methods whose (a, b) arguments form the pair table.
PAIR_LOOKUPS = frozenset({"repengine.RepCategory.hom", "repengine.RepCategory.ext"})

SPAN_MARK = "__perfbench_span__"


def _freeze(value):
    """A hashable stand-in for an argument; lists become tuples."""
    try:
        hash(value)
        return value
    except TypeError:
        pass
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return id(value)


class _HashingWriter(io.RawIOBase):
    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.nbytes = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.nbytes += len(data)
        return len(data)


class Tracer:
    """Installs span and counter wrappers on the excseq layers and undoes them."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.root_spans = 0
        self.distinct: dict[str, set] = defaultdict(set)
        self.pairs: set = set()
        self.clusters_found = 0
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object, object]] = []

    # ----- wrappers -----

    def _note(self, qual):
        if qual in DISTINCT:
            seen = self.distinct[qual]
            return lambda args, kwargs, result: seen.add(_freeze((args, kwargs)))
        if qual in PAIR_LOOKUPS:
            pairs = self.pairs
            return lambda args, kwargs, result: pairs.add(_freeze(args[1:3]))
        if qual == "shiftcat.enumerate_clusters":
            def found(args, kwargs, result):
                self.clusters_found += len(result)
            return found
        return None

    def _counted(self, qual, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, layer, qual, fn):
        calls, stack, self_s = self.calls, self._stack, self.self_s
        clock = time.perf_counter
        note = self._note(qual)

        def spanned(*args, **kwargs):
            calls[qual] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                    self.root_spans += 1
        return spanned

    def _wrap(self, layer, qual, fn):
        wrapper = (self._counted(qual, fn) if qual in COUNT_ONLY
                   else self._spanned(layer, qual, fn))
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        setattr(wrapper, SPAN_MARK, qual)
        return wrapper

    def _rebind(self, container, key, new) -> None:
        if isinstance(container, dict):
            self._saved.append((container, key, container[key], new))
            container[key] = new
        else:
            self._saved.append((container, key, getattr(container, key), new))
            setattr(container, key, new)

    # ----- install / uninstall -----

    def install(self) -> None:
        """Wrap each layer's public callables and rebind every reference to them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"excseq.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, meth, self._wrap(layer, f"{layer}.{name}.{meth}", fn))
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        # rebind module functions everywhere they were imported, including
        # module-level tables such as the verify suite registry
        for mod in [m for n, m in sorted(sys.modules.items())
                    if n == "excseq" or n.startswith("excseq.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._rebind(mod, name, wrappers[id(obj)])
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._rebind(obj, key, wrappers[id(value)])

    def uninstall(self) -> None:
        for container, key, original, _ in reversed(self._saved):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self.check_restored()
        self._saved.clear()

    def check_restored(self) -> None:
        """Raise if any rebound attribute still holds a tracer wrapper."""
        for container, key, original, _ in self._saved:
            now = container[key] if isinstance(container, dict) else getattr(container, key)
            if now is not original or hasattr(now, SPAN_MARK):
                raise RuntimeError(f"{key!r} was not restored after tracing")

    @property
    def rebound(self) -> int:
        return len(self._saved)

    # ----- report -----

    def layer_metrics(self) -> dict[str, float]:
        c = self.calls
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(n for q, n in c.items() if q.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        rep = "repengine.RepCategory."
        lookups = c[rep + "hom"] + c[rep + "ext"]
        out.update({
            "repengine.hom.calls": c[rep + "hom"],
            "repengine.ext.calls": c[rep + "ext"],
            "repengine.euler.calls": c[rep + "euler"],
            "repengine.check_root.calls": c[rep + "check_root"],
            "repengine.pairs.distinct": len(self.pairs),
            "repengine.pairs.reuse_ratio": lookups / len(self.pairs) if self.pairs else 0.0,
            "linalg.rank.calls": c["linalg.rank"],
            "linalg.solve.calls": c["linalg.solve"],
            # left_kernel goes through right_kernel, so this counts every kernel
            "linalg.kernel.calls": c["linalg.right_kernel"],
            "wide.perp.calls": c["wide.perp"],
            "wide.perp.distinct": len(self.distinct["wide.perp"]),
            "wide.relative_projectives.calls": c["wide.relative_projectives"],
            "wide.mutate_pair.calls": c["wide.mutate_pair"],
            "wide.mutate_pair.distinct": len(self.distinct["wide.mutate_pair"]),
            "shiftcat.compatible.calls": c["shiftcat.compatible"],
            "shiftcat.clusters.found": self.clusters_found,
            "bijection.transport.calls": c["bijection.transport"],
            "bijection.transport.distinct": len(self.distinct["bijection.transport"]),
            "bijection.transport_inverse.calls": c["bijection.transport_inverse"],
            "configs.garside_configuration.calls": c["configs.garside_configuration"],
            "configs.mutate_configuration.calls": c["configs.mutate_configuration"],
            "configs.recover_cluster.calls": c["configs.recover_cluster"],
        })
        return out


def trace_cli(argv: list[str]) -> dict:
    """Run the CLI once under the tracer; returns the report dict."""
    cli = importlib.import_module("excseq.cli")
    tracer = Tracer()
    sink = _HashingWriter()
    text = io.TextIOWrapper(io.BufferedWriter(sink), encoding=sys.stdout.encoding,
                            errors=sys.stdout.errors)
    tracer.install()
    try:
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
            text.flush()
    finally:
        rebound = tracer.rebound
        tracer.uninstall()
    self_sum = sum(tracer.self_s.values())
    return {
        "exit_code": code,
        "sha256": sink.sha.hexdigest(),
        "output_bytes": sink.nbytes,
        "root_s": tracer.root_s,
        "root_spans": tracer.root_spans,
        "self_sum_s": self_sum,
        "rebound": rebound,
        "metrics": tracer.layer_metrics(),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SRC_DIR CLI_ARG...", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    pkg = importlib.import_module("excseq")
    if not pkg.__file__.startswith(argv[0]):
        print(f"excseq imported from {pkg.__file__}, not {argv[0]}", file=sys.stderr)
        return 2
    report = trace_cli(argv[1:])
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
