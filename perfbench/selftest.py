"""Self-test of the benchmark harness on a tiny workload.

    python3 perfbench/selftest.py

Runs the harness on ``excseq enumerate A2 --m 1 clusters`` and checks that
it prints every end-to-end metric by name with its unit, reports exactly the
metrics BENCHMARK.json lists, counts a wrong expected hash as failed runs
rather than crashing, leaves every wrapped attribute restored after a traced
run, records the environment, and refuses to run without the sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

TINY_ARGV = ("enumerate", "A2", "--m", "1", "clusters")
TINY = run.Workload("tiny-A2-m1", TINY_ARGV, "A2",
                    "3f8875052d90080aa0f0bda5f0e55fcd08c8b2609343971494adf6f3bc0c6e0d")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def spec_units(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_end_to_end(spec: dict) -> None:
    lines: list[str] = []
    result = run.bench(TINY, seed=1, seconds=0.5, trace=False, log=lines.append)
    check(result["correct"] and result["failed"] == 0, "tiny workload runs correctly")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    check(units == spec_units(spec, "end_to_end"),
          "end-to-end metrics and units match BENCHMARK.json")
    for name, unit in units.items():
        check(any(line.split()[:3:2] == [name, unit] for line in lines),
              f"prints {name} with its unit {unit}")
    env = run.environment()
    check(lines[0] == (f"env python={env['python']} nproc={env['nproc']} "
                       f"affinity={env['affinity']} commit={env['commit']}"),
          "records python version, nproc and commit")


def check_wrong_hash() -> None:
    wrong = run.Workload(TINY.name, TINY.argv, TINY.tag, "0" * 64)
    result = run.bench(wrong, seed=2, seconds=0.2, trace=False, log=lambda _: None)
    check(not result["correct"]
          and result["failed"] == result["attempted"] - run.SETUP_PROBES >= run.MIN_REPS,
          "a wrong expected hash counts every workload run as failed, without a crash")


def check_traced(spec: dict) -> None:
    result = run.bench(TINY, seed=3, seconds=0.2, trace=True, log=lambda _: None)
    check(result["correct"] and result["failed"] == 0, "traced tiny run checks out")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    check(units == spec_units(spec, "per_layer"),
          "per-layer metrics and units match BENCHMARK.json")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    check(values["shiftcat.clusters.found"] == 5, "A2 m=1 has 5 clusters")
    check(values["bijection.calls"] == 0 == values["configs.calls"],
          "enumerate touches neither bijection nor configs")


def snapshot(modules) -> dict:
    """Every attribute of the package's modules, classes and module-level dicts."""
    seen = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            seen[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, value in vars(obj).items():
                    seen[(mod.__name__, name, attr)] = value
            elif type(obj) is dict:
                for key, value in obj.items():
                    seen[(mod.__name__, name, "[]", key)] = value
    return seen


def check_restored() -> None:
    sys.path.insert(0, str(run.SRC))
    import excseq.cli  # noqa: F401 - loads every layer module
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "excseq"]
    before = snapshot(modules)
    report = tracer.trace_cli(list(TINY_ARGV))
    after = snapshot(modules)
    check(report["sha256"] == TINY.sha256, "in-process traced run reproduces the hash")
    # the program's own memo tables may gain entries; nothing may change or stay wrapped
    check(report["rebound"] > 0 and all(after.get(k) is v for k, v in before.items())
          and not any(hasattr(v, tracer.SPAN_MARK) for v in after.values()),
          f"all {report['rebound']} wrapped attributes restored after tracing")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "clusters-E6-m2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "exits nonzero without a result when the sources are missing")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    check_end_to_end(spec)
    check_wrong_hash()
    check_traced(spec)
    check_restored()
    check_refuses_without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
