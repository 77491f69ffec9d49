"""excseq benchmark: one workload, run as fresh CLI processes in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the package in ``src/`` next to this directory,
imported from source.  One client runs one ``excseq`` process at a time; the
next starts only after the previous one has exited.  Every run's exit code and
stdout sha256 are checked against the values recorded for the workload; a
mismatch is a failed operation, not a crash.  CPU time and peak RSS come from
each child's own rusage (``os.wait4``).

Times are calibrated, because the speed of a shared host drifts by tens of
percent.  Each workload run's wall and CPU time is scaled by its speed
factor: ``CALIBRATION_NOMINAL_S`` over the mean time of a fixed calibration
task measured just before and just after it.  Set-up probes are scaled by the
median speed factor of the whole run.  So ``wall_s``, ``cpu_s`` and
``setup_s`` read as seconds on a machine running at the nominal speed.  Raw
medians and the speed factors are printed too; peak RSS is as measured.

Set-up time is a fresh interpreter that imports excseq and builds the
workload's category.  The workloads are exhaustive, deterministic
enumerations, so the seed only sets the order in which set-up probes and
workload repeats interleave.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also makes one
traced run (``tracer.py``, in a fresh interpreter so that every cache starts
cold) and prints the per-layer metrics instead.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLI = "import sys; from excseq.cli import main; sys.exit(main())"
SETUP = "import sys, excseq; excseq.category(sys.argv[1])"

SETUP_PROBES = 9   # set-up samples per run; their median is setup_s
MIN_REPS = 3       # workload repeats per run, however short --seconds is
TIME_LIMIT = 150.0  # seconds; a child still running then is killed
CALIBRATION_NOMINAL_S = 0.3  # calibration task time that wall_s and cpu_s are scaled to


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    tag: str      # type tag whose category the set-up probe builds
    sha256: str   # of the stdout at the commit that defined the benchmark


WORKLOADS = {w.name: w for w in (
    Workload("clusters-E6-m2", ("enumerate", "E6", "--m", "2", "clusters", "--format", "text"),
             "E6", "f96a3c354db0ddaab21a690926f4f8a5e8c1a8f93fcbb3a6a268816e6cbff341"),
    Workload("excseqs-A6", ("enumerate", "A6", "exc-seqs", "--format", "text"),
             "A6", "e2f4e83704d5ba09cf24ea592eca24797336f6ae5261b72c3e5eea97fa751cd6"),
    Workload("verify-D4-m1", ("verify", "D4", "--m", "1", "all"),
             "D4", "7bb2855cef41f21765f8dd0ac8238bd37d60267ac65f1acee893239d5829d882"),
)}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Run:
    """One finished child process."""
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    sha256: str
    stdout: bytes


def spawn(args: list[str], timeout: float) -> Run:
    """Run one child to completion; a child still running after timeout is killed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            # rusage of this child alone: RUSAGE_CHILDREN would report the
            # largest peak RSS of any earlier child
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               proc.returncode, hashlib.sha256(out).hexdigest(), out)


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit}


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median of {len(values)} (q1 {q1:.4f}, q3 {q3:.4f}, max {max(values):.4f})"


def traced(workload: Workload, timeout: float) -> tuple[Run, dict | None]:
    """One traced run in a fresh interpreter; returns the run and its report."""
    run = spawn([sys.executable, str(HERE / "tracer.py"), str(SRC), *workload.argv], timeout)
    if run.exit_code != 0:
        return run, None
    return run, json.loads(run.stdout.decode().splitlines()[-1])


def trace_problems(workload: Workload, report: dict | None) -> list[str]:
    """What is wrong with a traced run's report; empty when it checks out."""
    if report is None:
        return ["the traced run did not finish"]
    problems = []
    if report["exit_code"] != 0:
        problems.append(f"traced run exited {report['exit_code']}")
    if report["sha256"] != workload.sha256:
        problems.append(f"traced stdout sha256 {report['sha256']} != {workload.sha256}")
    if report["root_spans"] != 1:
        problems.append(f"{report['root_spans']} root spans, expected one cli.main span")
    if abs(report["self_sum_s"] - report["root_s"]) > 1e-6 * report["root_s"] + 1e-9:
        problems.append(f"layer self times sum to {report['self_sum_s']}, "
                        f"root span is {report['root_s']}")
    return problems


class Calibration:
    """A fixed pure-Python task whose time tracks how fast the machine runs now.

    On a shared host the interpreter's speed drifts by tens of percent over
    seconds to minutes, and the workloads slow down with it.  The task mixes
    the work the program does (integer loops, tuple-keyed dict lookups, exact
    Fraction elimination) but shares no code with it, so a change to the
    program cannot move it.
    """

    def __init__(self):
        rng = random.Random(0)
        keys = list(itertools.product(range(4), repeat=6))
        self.table = {k: i for i, k in enumerate(keys)}
        self.probes = [rng.choice(keys) for _ in range(60_000)]

    def measure(self) -> float:
        """Seconds the task takes now."""
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        for key in self.probes:
            total += self.table[tuple(int(b) for b in key)]
        n = 12
        for rep in range(12):
            rows = [[Fraction((i * 7 + j * 3 + rep) % 11 - 5, 1 + (i + j) % 3)
                     for j in range(n)] for i in range(n)]
            for c in range(n):
                p = next((r for r in range(c, n) if rows[r][c] != 0), None)
                if p is None:
                    continue
                rows[c], rows[p] = rows[p], rows[c]
                rows[c] = [x / rows[c][c] for x in rows[c]]
                for r in range(n):
                    if r != c and rows[r][c] != 0:
                        f = rows[r][c]
                        rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return time.perf_counter() - start


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          log=print) -> dict:
    """Measure one workload; returns the result object printed last."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT
    env_info = environment()
    log(f"env python={env_info['python']} nproc={env_info['nproc']} "
        f"affinity={env_info['affinity']} commit={env_info['commit']}")
    log(f"workload {workload.name}: excseq {' '.join(workload.argv)} "
        f"(seed {seed}, {seconds:g} s, closed loop, one client)")

    spawn([sys.executable, "-c", "import excseq.cli"], TIME_LIMIT)  # compile, unmeasured
    calibration = Calibration()
    order = ["setup"] * SETUP_PROBES + ["run"] * MIN_REPS
    random.Random(seed).shuffle(order)
    runs: list[Run] = []
    speeds: list[float] = []  # per run: nominal / measured calibration time around it
    setups: list[Run] = []
    cal = calibration.measure()
    while order or time.perf_counter() - start < seconds:
        kind = order.pop(0) if order else "run"
        if kind == "setup":
            setups.append(spawn([sys.executable, "-c", SETUP, workload.tag],
                                deadline - time.perf_counter()))
        else:
            runs.append(spawn([sys.executable, "-c", CLI, *workload.argv],
                              deadline - time.perf_counter()))
            after = calibration.measure()
            speeds.append(2 * CALIBRATION_NOMINAL_S / (cal + after))
            cal = after
        if time.perf_counter() > deadline:
            break
    failed = (sum(r.exit_code != 0 or r.sha256 != workload.sha256 for r in runs)
              + sum(s.exit_code != 0 for s in setups))
    attempted = len(runs) + len(setups)

    run_speed = statistics.median(speeds) if speeds else 1.0
    samples = {"wall_s": [r.wall_s * k for r, k in zip(runs, speeds)],
               "cpu_s": [r.cpu_s * k for r, k in zip(runs, speeds)],
               "peak_rss_mb": [r.peak_rss_mb for r in runs],
               "setup_s": [s.wall_s * run_speed for s in setups]}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END if samples[name]}
    for name, unit in END_TO_END:
        if samples[name]:
            log(f"{name:<12} {metrics[name]['value']:.4f} {unit:<3} {_spread(samples[name])}")
    if runs and setups:
        log(f"raw wall_s {statistics.median(r.wall_s for r in runs):.4f} s, raw cpu_s "
            f"{statistics.median(r.cpu_s for r in runs):.4f} s, raw setup_s "
            f"{statistics.median(s.wall_s for s in setups):.4f} s, speed factor "
            f"{_spread(speeds)}")
    log(f"error_rate   {failed / attempted:.4f}     {failed} of {attempted} runs failed "
        f"(nonzero exit or stdout sha256 mismatch)")
    correct = failed == 0 and len(metrics) == len(END_TO_END)

    if trace:
        run, report = traced(workload, deadline - time.perf_counter())
        speed = 2 * CALIBRATION_NOMINAL_S / (cal + calibration.measure())
        problems = trace_problems(workload, report)
        attempted += 1
        failed += bool(problems)
        correct = correct and not problems
        for problem in problems:
            log(f"trace check failed: {problem}")
        metrics = {}
        if report is not None and runs:
            layer = dict(report["metrics"])
            layer["output.bytes"] = report["output_bytes"]
            layer["trace.overhead_ratio"] = (run.wall_s * speed
                                             / statistics.median(samples["wall_s"]))
            metrics = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in layer.items()}
            for name, m in metrics.items():
                log(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "output.bytes":
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "excseq" / "cli.py").is_file():
        print(f"no excseq sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
