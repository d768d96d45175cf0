"""One workload in a fresh process: import dqdsim, run passes, check outputs.

Started by run.py as ``python3 worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR``
with ``src`` on PYTHONPATH.  It times ``import dqdsim.cli`` first, then drives
``dqdsim.cli.main(argv)`` in-process, one pass after another, until SECONDS
have passed (at least MIN_PASSES passes).  With TRACE = 1 the first half of
the time runs untraced and the second half traced.  The last line of stdout
is one JSON object with the import and each pass as (start, end, CPU
seconds of the process and its waited-for children), peak RSS, row counts and, when traced, the per-layer metrics of
each traced pass.
"""
import time

_t0, _c0 = time.perf_counter(), time.process_time()
import dqdsim.cli  # noqa: E402  (the timed import comes first)
IMPORT = (_t0, time.perf_counter(), time.process_time() - _c0)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Outputs:
    """Checks each pass's CSVs; a pass identical to a checked one reuses its verdict."""

    def __init__(self, workload: str, seed: int):
        self.ref_dir = REFERENCE_DIR / workload
        self.exact = seed == workloads.DEFAULT_SEED
        self.seen: dict[tuple, tuple[int, int, list[str]]] = {}

    def check_pass(self, names, paths, rcs) -> tuple[int, int, list[str]]:
        texts = tuple(p.read_text(encoding="utf-8") if p.exists() else "" for p in paths)
        key = texts + tuple(rcs)
        if key not in self.seen:
            attempted = failed = 0
            problems = []
            for name, text, rc in zip(names, texts, rcs):
                ref = (self.ref_dir / f"{name}.csv").read_text(encoding="utf-8")
                cols = None if self.exact else workloads.SEED_FREE_COLUMNS[name]
                a, f, p = check.check(text, ref, cols, () if self.exact else workloads.SEED_KEYS)
                if rc != 0:
                    f, p = a, [f"exit code {rc}"] + p
                attempted += a
                failed += f
                problems += [f"{name}: {msg}" for msg in p]
            if self.seen:
                problems.append("output differs from the first pass")
            self.seen[key] = (attempted, failed, problems)
        return self.seen[key]


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has waited for."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def main(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    calls = workloads.calls(workload, seed)
    names = [name for name, _ in calls]
    paths = [out_dir / f"{name}.csv" for name in names]
    argvs = [argv + ["--out", str(path)] for (_, argv), path in zip(calls, paths)]
    outputs = Outputs(workload, seed)
    tracer = tracing.Tracer()
    result = {"import": IMPORT, "passes": [], "traced_passes": [], "layers": [],
              "attempted": 0, "failed": 0, "problems": []}
    all_spans: list = []

    def run_passes(budget, min_passes, traced):
        start = time.perf_counter()
        n = 0
        while n < min_passes or time.perf_counter() - start < budget:
            for path in paths:
                path.unlink(missing_ok=True)
            t, c = time.perf_counter(), cpu_seconds()
            rcs = [dqdsim.cli.main(argv) for argv in argvs]
            window = (t, time.perf_counter(), cpu_seconds() - c)
            attempted, failed, problems = outputs.check_pass(names, paths, rcs)
            result["attempted"] += attempted
            result["failed"] += failed
            result["problems"] = result["problems"] or problems
            if traced:
                spans, counts = tracer.take_pass()
                result["traced_passes"].append(window)
                result["layers"].append(tracing.layer_metrics(spans, counts, attempted))
                all_spans.append(spans)
            else:
                result["passes"].append(window)
            n += 1

    if trace:
        run_passes(seconds / 2, MIN_TRACED_PASSES, False)
        tracer.install()
        try:
            run_passes(seconds / 2, MIN_TRACED_PASSES, True)
        finally:
            tracer.uninstall()
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "raised"],
                       "passes": all_spans}, fh)
    else:
        run_passes(seconds, MIN_PASSES, False)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    wl, sd, secs, tr, out = sys.argv[1:6]
    print(json.dumps(main(wl, int(sd), float(secs), tr == "1", Path(out))))
