"""Measure the baseline: two sets of repeated runs of every workload, plus a traced run.

    python3 perfbench/baseline.py

Runs run.py RUNS times per workload in each of SETS sets, every run with its
own seed, for BENCHMARK.json's run_seconds; the sets follow one another, so
the second shows how far the medians drift over time.  Then runs every
workload once traced at the default seed.  Prints, per end-to-end metric
and set, the median of the runs and the distance between their first and
third quartiles as a share of the median, and how far the second median
lies from the first; writes all of it with the machine description to
baseline.json.  Exits 1 when a run fails or reports incorrect output.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def _machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_used": 1, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for n in range(SETS):
        seeds = range(n * RUNS + 1, (n + 1) * RUNS + 1)
        sets.append({w: [_run(w, seed, seconds, 0) for seed in seeds]
                     for w in workloads.WORKLOADS})
    report = {"machine": _machine(), "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        e2e = {}
        for name, bound in bounds.items():
            per_set = [_summary([r["metrics"][name]["value"] for r in s[workload]])
                       for s in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            drift = (last - first) / first
            e2e[name] = {"unit": sets[0][workload][0]["metrics"][name]["unit"], "bound": bound,
                         "runs_per_set": RUNS, "sets": per_set, "drift": drift}
            print(f"{workload} {name}: medians "
                  + " ".join(f"{s['median']:.6g}" for s in per_set)
                  + "; spreads " + " ".join(f"{s['spread']:.4f}" for s in per_set)
                  + f"; drift {drift:+.4f} (bound {bound})", flush=True)
        traced = _run(workload, workloads.DEFAULT_SEED, seconds, 1)
        runs = [r for s in sets for r in s[workload]]
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "rows_attempted": sum(r["attempted"] for r in runs),
            "rows_failed": sum(r["failed"] for r in runs),
            "per_layer_seed0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(report, indent=1) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        sys.exit(1)
