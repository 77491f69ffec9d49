import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import excseq
from excseq import InputError, category
from excseq.cli import main
from excseq.serialize import cluster_from_dict, cluster_to_dict, dumps_canonical, object_from_dict
from excseq.shiftcat import enumerate_clusters

import oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "A2", "--m", "2")
    assert code == 0
    assert "complete exceptional sequences: 3" in out
    assert "f(x) = 2*x^2 + x" in out
    assert "1  10  5" in out


def test_count_json_and_csv(capsys):
    code, out, _ = run(capsys, "count", "A2", "--m", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["e"] == 3
    assert data["f_coeffs"] == [0, 1, 2]
    assert data["identity_g_equals_factorial_product"] is True
    code, out, _ = run(capsys, "count", "A1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "m,g,p"


def test_count_g2(capsys):
    code, out, _ = run(capsys, "count", "G2", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["e"] == 6


def test_count_rejects_bad_type(capsys):
    code, _, err = run(capsys, "count", "Z9")
    assert code == 2
    assert "error" in err


def test_count_rank_limit(capsys):
    code, _, err = run(capsys, "count", "A9")
    assert code == 2


def test_enumerate_exc_seqs_json_and_text(capsys):
    code, out, _ = run(capsys, "enumerate", "A3", "exc-seqs", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 16 and len(data["records"]) == 16
    code, out, _ = run(capsys, "enumerate", "A3", "exc-seqs", "--format", "text")
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "# A3 m=1 exc-seqs count=16" and len(lines) == 16
    cat = category("A3")
    for record, line in zip(data["records"], lines):
        text_flags = [c == "T" for c in line.split("  rp=")[1]]
        assert text_flags == record["rel_proj"]
        expected = oracle.mark_relative_projectives(cat, [tuple(t) for t in record["terms"]])
        assert tuple(record["rel_proj"]) == expected.rel_proj_flags
        assert line.split("  rp=")[0] == " ".join(
            "(" + ",".join(map(str, t)) + ")" for t in expected.terms)


def test_enumerate_clusters_json(capsys):
    code, out, _ = run(capsys, "enumerate", "A2", "--m", "1", "clusters")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    # every record round-trips through the parser
    cat = category("A2")
    for record in data["records"]:
        m, objects = cluster_from_dict(cat, record)
        assert m == 1 and len(objects) == 2


def test_enumerate_exc_seqs(capsys):
    code, out, _ = run(capsys, "enumerate", "A3", "exc-seqs")
    assert code == 0
    assert json.loads(out)["count"] == 16


def test_enumerate_zero_shift_sequences(capsys):
    code, out, _ = run(capsys, "enumerate", "A2", "--m", "0", "m-exc-seqs")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert all(term["level"] == 0 for rec in data["records"] for term in rec["terms"])


def test_enumerate_configs(capsys):
    code, out, _ = run(capsys, "enumerate", "A2", "--m", "1", "configs")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert all("tilde_c" in rec for rec in data["records"])


def test_enumerate_rejects_valued(capsys):
    code, _, err = run(capsys, "enumerate", "B2", "clusters")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("enumerate", "B3", "clusters"), "enumeration needs a simply-laced type, got B3"),
    (("verify", "B3", "bijection"), "suite 'bijection' needs a simply-laced type"),
    (("verify", "B3", "all"), "suite 'all' needs a simply-laced type"),
    (("mutate", "B3", "--cluster", "{}", "--k", "1", "--dir", "+"),
     "mutation needs a simply-laced type"),
    (("graph", "B3"), "the exchange graph needs a simply-laced type"),
])
def test_every_command_refuses_a_valued_type(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_counting_runs_on_a_valued_type(capsys):
    code, out, _ = run(capsys, "verify", "B3", "counting")
    assert code == 0 and out.endswith("PASS  counting suite for B3\n")


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```")[0] for block in readme.split("```python\n")[1:]]
    assert len(blocks) == 1
    exec(blocks[0], {})


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "A2", "--m", "1", "all")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS")


def test_verify_suite_flag(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A3", "--suite", "counting")
    assert code == 0


def test_mutate_round_trip(capsys, tmp_path):
    cluster = {"m": 1, "objects": [{"dim": [1, 0], "level": 0},
                                   {"dim": [1, 1], "level": 0}]}
    path = tmp_path / "cluster.json"
    path.write_text(dumps_canonical(cluster), encoding="utf-8")
    code, out, _ = run(capsys, "mutate", "A2", "--m", "1", "--cluster", str(path),
                       "--k", "2", "--dir", "-")
    assert code == 0
    data = json.loads(out)
    got = {(tuple(o["dim"]), o["level"]) for o in data["mutated_cluster"]["objects"]}
    assert got == {((1, 0), 0), ((0, 1), 1)}
    # mutate back from the mutated cluster at the position of the new entry,
    # which the canonical order places first (level-descending)
    code2, out2, _ = run(capsys, "mutate", "A2", "--m", "1",
                         "--cluster", json.dumps(data["mutated_cluster"]),
                         "--k", "1", "--dir", "+")
    assert code2 == 0
    back = json.loads(out2)

    def as_set(payload):
        return {(tuple(o["dim"]), o["level"]) for o in payload["objects"]}

    assert as_set(back["mutated_cluster"]) == as_set(data["cluster"])


def test_mutate_blocked_direction(capsys):
    cluster = json.dumps({"m": 1, "objects": [{"dim": [1, 0], "level": 0},
                                              {"dim": [1, 1], "level": 0}]})
    code, _, err = run(capsys, "mutate", "A2", "--m", "1", "--cluster", cluster,
                       "--k", "2", "--dir", "+")
    assert code == 2
    assert "headroom" in err or "error" in err


def test_mutate_invalid_cluster(capsys):
    bad = json.dumps({"m": 1, "objects": [{"dim": [1, 0], "level": 0},
                                          {"dim": [0, 1], "level": 1}]})
    code, _, err = run(capsys, "mutate", "A2", "--m", "1", "--cluster", bad,
                       "--k", "1", "--dir", "-")
    assert code == 2


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "A2", "--m", "1")
    assert code == 0
    assert out.count("[label=") == 15  # 5 nodes + 10 edges
    assert out.startswith("digraph")


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "enumerate", "A3", "--m", "1", "clusters")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out, _ = run(capsys, "graph", "A2", "--m", "1")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_object_parser_rejects_junk():
    from excseq.errors import InputError
    with pytest.raises(InputError):
        object_from_dict({"dim": "nope"})


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "clusters.json"
    code, out, _ = run(capsys, "enumerate", "A2", "--m", "1", "clusters",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 5


def test_mutate_rejects_non_integer_json(capsys):
    # floats and booleans used to be truncated by int() and accepted
    payload = ('{"m":1,"objects":[{"dim":[1.9,0],"level":0.7},'
               '{"dim":[true,1],"level":0}]}')
    code, out, err = run(capsys, "mutate", "A2", "--m", "1", "--cluster", payload,
                         "--k", "1", "--dir", "+")
    assert code == 2 and out == ""
    assert "integer" in err
    for bad in ({"m": 1.0, "objects": []}, {"m": True, "objects": []}):
        with pytest.raises(InputError):
            cluster_from_dict(category("A2"), bad)
    for bad in ({"dim": [1, 0], "level": 0.0}, {"dim": [1, False], "level": 0},
                {"dim": [1, 0], "level": True}):
        with pytest.raises(InputError):
            object_from_dict(bad)



def _mutate_a2(capsys, cluster):
    return run(capsys, "mutate", "A2", "--m", "1", "--cluster", cluster, "--k", "1",
               "--dir", "+")


def test_missing_cluster_file_is_refused(capsys, tmp_path):
    code, out, err = _mutate_a2(capsys, f"@{tmp_path / 'missing.json'}")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read") and "missing.json" in err


def test_cluster_directory_is_refused(capsys, tmp_path):
    code, out, err = _mutate_a2(capsys, str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read")


def test_cluster_file_that_is_not_utf8_is_refused(capsys, tmp_path):
    path = tmp_path / "cluster.json"
    path.write_bytes(b'{"m": 1, "objects": []}\xff')
    code, out, err = _mutate_a2(capsys, f"@{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read") and "utf-8" in err


def test_out_into_a_missing_directory_is_refused(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "verify", "A2", "--m", "1", "all", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_rank_below_one_is_refused(capsys, value):
    code, out, err = run(capsys, "enumerate", "A3", "--m", "1", "clusters",
                         "--max-rank", value)
    assert code == 2 and out == ""
    assert "--max-rank" in err


def test_max_rank_tightens_the_limit(capsys):
    code, _, err = run(capsys, "enumerate", "A3", "--m", "1", "clusters", "--max-rank", "2")
    assert code == 2 and "limit 2" in err
    code, _, _ = run(capsys, "enumerate", "A3", "--m", "1", "clusters", "--max-rank", "3")
    assert code == 0


@pytest.fixture
def no_rational_algebra(monkeypatch):
    """Every public function of the rational oracle, oracle._rref and building
    a ReflectionOracle raise, and categories (with the memos they hold) are
    built afresh."""
    def refuse(*args, **kwargs):
        raise AssertionError("rational linear algebra on a CLI path")

    names = [name for name, fn in vars(oracle).items()
             if inspect.isfunction(fn) and fn.__module__ == oracle.__name__
             and not name.startswith("_")] + ["_rref"]
    assert {"solve", "inverse", "rank", "right_kernel", "_rref"} <= set(names)
    for name in names:
        monkeypatch.setattr(oracle, name, refuse)
    monkeypatch.setattr(oracle.ReflectionOracle, "__init__", refuse)
    category.cache_clear()
    yield
    category.cache_clear()


A2_CLUSTER = json.dumps({"m": 1, "objects": [{"dim": [1, 0], "level": 0},
                                             {"dim": [1, 1], "level": 0}]})


@pytest.mark.parametrize("argv", [
    ("verify", "D4", "--m", "1", "all"),
    ("verify", "A3", "--m", "2", "all"),
    ("graph", "A3", "--m", "1"),
    ("enumerate", "A3", "--m", "2", "configs"),
    ("mutate", "A2", "--m", "1", "--cluster", A2_CLUSTER, "--k", "2", "--dir", "-"),
], ids=lambda argv: " ".join(argv[:4]))
def test_cli_paths_need_no_rational_linear_algebra(capsys, no_rational_algebra, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_package_keeps_the_oracle_out():
    # only counting does rational arithmetic, linalg imports nothing, and no
    # module of the package reaches the test tree's oracle
    imported = {}
    for path in Path(excseq.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(part for a in node.names for part in a.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names.update(node.module.split(".") if node.module
                             else (a.name for a in node.names))
        imported[path.stem] = names
    assert {"counting", "linalg", "wide"} <= set(imported)
    assert {stem for stem, names in imported.items() if "fractions" in names} <= {"counting"}
    assert imported["linalg"] == set()
    assert not [stem for stem, names in imported.items() if "oracle" in names]
    assert not {"Approximation", "HomSpace", "ReflectionOracle", "Representation",
                "euler_form"} & set(vars(excseq))


def test_the_cli_starts_without_dataclasses():
    # importing dataclasses (with inspect) and building dataclasses cost the
    # CLI about 25 ms of start-up, so the package's record types do without them;
    # and the package is stdlib-only, so the CLI loads no module from elsewhere
    code = ("import sys; before = set(sys.modules); import excseq.cli; "
            "print('dataclasses' in sys.modules); print(sorted("
            "{name.partition('.')[0] for name in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'excseq'}))")
    src = str(Path(excseq.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == ["False", "[]"]


PACKAGE_NAMES = [
    "CoxeterData", "DualityFrame", "DynkinDiagram", "ExcSequence", "ExcseqError",
    "HorizontalSubcat", "InputError", "IntPoly", "InternalConsistencyError", "MutationResult",
    "PairCase", "Quiver", "RepCategory", "ShiftedObject", "SlopeVector",
    "UnsupportedFeatureError", "VerificationError", "WideSubcat", "ambient", "build_diagram",
    "build_quiver", "category", "classify_pair", "count_closed_form",
    "count_complete_exc_sequences", "delete_vertex", "duality_frame", "enumerate_clusters",
    "euler_matrix", "exchange_graph", "fomin_reading_count", "fomin_reading_poly",
    "g_vector_check", "garside_configuration", "m_count_identity_holds", "m_exc_sequences",
    "m_sequence_poly", "marked_exc_sequences", "mutate", "order_cluster", "parse_type_tag",
    "perp", "positive_roots", "real_root_check", "rel_proj_poly", "rel_proj_poly_enumerated",
    "relative_projectives", "sequence_to_tuple", "tuple_to_sequence"]


def test_the_package_loads_each_module_on_first_use():
    # `import excseq` ran every module of the package, about 50 ms from source; each
    # public name now imports its module when it is first read
    code = "\n".join([
        "import json, sys",
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('excseq.'))",
        "import excseq",
        "out = {'import': loaded(), 'dir': sorted(set(excseq.__all__) - set(dir(excseq)))}",
        "excseq.category('A2')",
        "out['category'] = loaded()",
        "names = excseq.__all__",
        "out['all'] = sorted(names)",
        "out['foreign'] = [n for n in names",
        "                  if getattr(sys.modules[getattr(excseq, n).__module__], n)",
        "                  is not getattr(excseq, n)]",
        "star = {}",
        "exec('from excseq import *', star)",
        "out['star'] = sorted(set(star) - {'__builtins__'})",
        "out['star_differs'] = [n for n in names if star[n] is not getattr(excseq, n)]",
        "try:",
        "    excseq.nope",
        "except AttributeError as exc:",
        "    out['nope'] = str(exc)",
        "print(json.dumps(out))"])
    src = str(Path(excseq.__file__).parent.parent)
    out = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    check=True, env={**os.environ, "PYTHONPATH": src}).stdout)
    assert out == {"import": [], "dir": [],
                   "category": ["excseq.dynkin", "excseq.errors", "excseq.repengine"],
                   "all": PACKAGE_NAMES, "foreign": [], "star": PACKAGE_NAMES,
                   "star_differs": [], "nope": "module 'excseq' has no attribute 'nope'"}


def test_mutate_output_is_pinned(capsys):
    # every cluster of A3 at m=2 and D4 at m=1, every --k in 0..n+1 (the ends are
    # refused) and both directions: exit code, stdout and stderr of each call
    digest, calls = hashlib.sha256(), 0
    for tag, m in (("A3", 2), ("D4", 1)):
        cat = category(tag)
        for cluster in enumerate_clusters(cat, m):
            payload = json.dumps(cluster_to_dict(m, cluster))
            for k in range(cat.n + 2):
                for direction in "+-":
                    code, out, err = run(capsys, "mutate", tag, "--m", str(m), "--cluster",
                                         payload, "--k", str(k), "--dir", direction)
                    digest.update(f"{code}\n{out}{err}".encode())
                    calls += 1
    assert calls == 1150
    assert digest.hexdigest() == "a05d99125d9074670085c449b4080e8888baf1d7c3e8a0739b0457bb36b3adfa"
