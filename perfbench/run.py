"""dqdsim benchmark: one workload of CLI calls, timed, checked and traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload control-sweep --seed 0 --seconds 15 --trace 0

Each run byte-compiles ``src/dqdsim`` and pins itself to one CPU.  It starts
the reference kernel (refspeed.py) on that CPU, times SETUP_PROBES cold
imports of ``dqdsim.cli`` in fresh processes, then starts worker.py in a
fresh process with DQDSIM_THREADS unset.  The worker imports the package
(one more set-up sample) and drives ``dqdsim.cli.main`` pass after pass for
--seconds.  Every time is reported in seconds on a CPU of reference speed:
CPU seconds times the speed the reference kernel saw in the same window.
With --trace 1 the run also reads ``python -X importtime`` and reports the
per-layer metrics of a traced half-run instead of the end-to-end ones.
``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count output rows, so
failed / attempted (fail_frac) is the share of rows that are NaN, come from
a failing call, or miss the stored reference.  The exit code is 0 when
every output is correct, 1 when one is not, and 2 when the run cannot be
made.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 8       # plus the worker's own import
IMPORTTIME_PROBES = 3
DEADLINE_S = 170.0     # a run must end within 180 s
# The reference kernel takes about a tenth of the CPU, so passes whose CPU
# time falls below this share of their wall time spent the rest waiting.
MIN_CPU_SHARE = 0.75
IMPORT_PROBE = ("import time; t, c = time.perf_counter(), time.process_time(); "
                "import dqdsim.cli; "
                "print([t, time.perf_counter(), time.process_time() - c])")


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "DQDSIM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _python(args, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT, text=True,
                          capture_output=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def _import_breakdown(deadline: float) -> list[tuple[dict[str, float], list[float]]]:
    """Self time of the numpy, scipy and dqdsim modules in cold imports,
    each with the probe's window (start, end, CPU seconds)."""
    samples = []
    for _ in range(IMPORTTIME_PROBES):
        t0, cpu0 = time.perf_counter(), _children_cpu()
        err = _python(["-X", "importtime", "-c", "import dqdsim.cli"], deadline).stderr
        window = [t0, time.perf_counter(), _children_cpu() - cpu0]
        sums = dict.fromkeys(("numpy", "scipy", "dqdsim"), 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _cum, module = line[len("import time:"):].split("|")
            top = module.strip().split(".")[0]
            if top in sums and self_us.strip().isdigit():
                sums[top] += int(self_us) * 1e-6
        samples.append((sums, window))
    return samples


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             deadline: float) -> dict:
    _python(["-m", "compileall", "-q", str(ROOT / "src" / "dqdsim")], deadline)
    out_dir = OUT_ROOT / f"{workload}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    probes = [json.loads(_python(["-c", IMPORT_PROBE], deadline).stdout)
              for _ in range(0 if trace else SETUP_PROBES)]
    imports = _import_breakdown(deadline) if trace else []
    proc = _python([str(BENCH_DIR / "worker.py"), workload, str(seed), repr(seconds),
                    "1" if trace else "0", str(out_dir)], deadline)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup"] = probes + [result["import"]]
    result["imports"] = imports
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of `workload` beside the reference kernel.

    Returns the worker's result with each window (start, end, CPU seconds)
    replaced by its cost in reference seconds, plus the set-up samples.
    """
    if not (ROOT / "src" / "dqdsim" / "cli.py").is_file():
        raise BenchError(f"no dqdsim sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    # One fixed CPU for every process of the run, shared with the kernel
    # that measures its speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ref = subprocess.Popen([sys.executable, str(BENCH_DIR / "refspeed.py")],
                           stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        if ref.stdout.readline().strip() != "ready":
            raise BenchError("reference kernel did not start")
        result = _measure(workload, seed, seconds, trace, deadline)
    finally:
        ref.terminate()
        try:
            log_line, _ = ref.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            ref.kill()
            ref.communicate()
            raise
    log = json.loads(log_line)

    # The median, because another tenant can hold the CPU for part of a pass.
    result["cpu_share"] = statistics.median(
        cpu / (t1 - t0) for key in ("passes", "traced_passes") for t0, t1, cpu in result[key])
    if result["cpu_share"] < MIN_CPU_SHARE:
        raise BenchError(
            f"the passes used a median {result['cpu_share']:.3f} CPU s per wall second: time "
            "spent waiting or outside the process tree is not timed by this benchmark")

    def cost(window):
        t0, t1, cpu = window
        return cpu * refspeed.speed(log, t0, t1)

    for key in ("setup", "passes", "traced_passes"):
        result[key + "_wall"] = [w[1] - w[0] for w in result[key]]
        result[key] = [cost(w) for w in result[key]]
    # importtime reports wall seconds; scale them like the probe's window.
    result["import_layers"] = {
        f"import.{k}_s": statistics.median(
            sums[k] * cost(w) / (w[1] - w[0]) for sums, w in result["imports"])
        for k in ("numpy", "scipy", "dqdsim")} if result["imports"] else {}
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": _metric(statistics.median(result["setup"]), "s"),
        "wall_s": _metric(statistics.median(result["passes"]), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


COUNT_SUFFIXES = (".calls", ".j_evals", ".rows", ".failed")


def _unit(key: str) -> str:
    if key.endswith(COUNT_SUFFIXES):
        return "count"
    if key.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def per_layer(result: dict) -> dict:
    """Median over traced passes of each layer metric, plus import and overhead.

    Span times are wall seconds; each pass's are scaled by that pass's cost
    in reference seconds over its wall time.
    """
    metrics = {k: _metric(v, "s") for k, v in result["import_layers"].items()}
    scale = [c / w for c, w in zip(result["traced_passes"], result["traced_passes_wall"])]
    passes = result["layers"]
    for key in passes[0]:
        unit = _unit(key)
        values = [p[key] * (f if unit == "s" else 1.0) for p, f in zip(passes, scale)]
        metrics[key] = _metric(statistics.median(values), unit)
    traced = statistics.median(result["traced_passes"])
    metrics["trace.wall_s"] = _metric(traced, "s")
    metrics["trace.overhead_s"] = _metric(traced - statistics.median(result["passes"]), "s")
    return metrics


def _report(workload: str, result: dict, metrics: dict, trace: bool) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: {len(result['passes'])} untraced passes"
          + (f", {len(result['traced_passes'])} traced" if trace else "")
          + f", fail_frac {failed / attempted:.6g} ({failed}/{attempted} rows)"
          + f", median CPU s per wall s of a pass {result['cpu_share']:.3f}")
    print("  passes (reference s) " + " ".join(f"{t:.4f}" for t in result["passes"])
          + "; measured wall s " + " ".join(f"{t:.4f}" for t in result["passes_wall"]))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        these = per_layer(result) if trace else end_to_end(result)
        _report(name, result, these, trace)
        correct &= result["failed"] == 0 and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in these.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
