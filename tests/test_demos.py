"""Every demo runs to the end with warnings as errors, writes its report to
stdout and nothing to stderr."""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()
