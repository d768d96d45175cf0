"""Every benchmark workload at its reference seed, run in-process through
the CLI and checked cell by cell (rtol 1e-10) against the stored
reference CSVs in perfbench/reference/, so drift shows up in the suite
and not only in the benchmark.  At another seed each workload is checked
as the benchmark checks it there: the columns and provenance lines that do
not depend on the impurity, the calibrated operating points included."""
import importlib.util
from pathlib import Path

import pytest

from dqdsim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(workload, tmp_path):
    for name, argv in workloads.calls(workload, workloads.DEFAULT_SEED):
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        ref = (PERFBENCH / "reference" / workload / f"{name}.csv").read_text(encoding="utf-8")
        attempted, failed, problems = check.check(out.read_text(encoding="utf-8"), ref, None)
        assert attempted > 0 and failed == 0, (name, problems)


OTHER_SEED = 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_matches_reference_at_another_seed(workload, tmp_path):
    for name, argv in workloads.calls(workload, OTHER_SEED):
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        ref = (PERFBENCH / "reference" / workload / f"{name}.csv").read_text(encoding="utf-8")
        attempted, failed, problems = check.check(out.read_text(encoding="utf-8"), ref,
                                                  workloads.SEED_FREE_COLUMNS[name],
                                                  workloads.SEED_KEYS)
        assert attempted > 0 and failed == 0, (name, problems)
