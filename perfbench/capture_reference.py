"""Write the reference CSVs of every workload at the default seed.

    python3 perfbench/capture_reference.py

Run it on the commit whose outputs are the reference; the benchmark then
checks every later commit against these files.
"""
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import dqdsim.cli  # noqa: E402


def main() -> int:
    for workload in workloads.WORKLOADS:
        ref_dir = BENCH_DIR / "reference" / workload
        ref_dir.mkdir(parents=True, exist_ok=True)
        for name, argv in workloads.calls(workload, workloads.DEFAULT_SEED):
            rc = dqdsim.cli.main(argv + ["--out", str(ref_dir / f"{name}.csv")])
            if rc != 0:
                print(f"{workload}/{name} exited {rc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
