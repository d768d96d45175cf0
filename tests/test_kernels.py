"""BLAS kernel choice: tests that must hold on whichever kernel numpy's
OpenBLAS picks, run again under one without fused multiply-add.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel for the CPU it runs
on, and OPENBLAS_CORETYPE picks another for one process.  The kernels round
matrix products differently, so a value pinned from one kernel's bits can
miss on another.  This file covers BLAS kernel choice only: libm's exp and
log, and numpy's own SIMD loops, can also differ between platforms, and no
switch local to one process exposes them.
"""
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

KERNEL_FREE = [
    # The J0-branch tests compute the default device's J0 where they run, so
    # that the J0 branch of the calibrations is taken on any kernel.
    "tests/test_noise.py::TestImprovementFactor::test_equals_one_at_the_common_origin",
    "tests/test_cli.py::TestFlags::test_a_matched_j_command_makes_few_stacked_solves[argv3-2]",
    "tests/test_cli.py::TestFlags::test_an_impurity_scan_at_j0_takes_its_rows_at_the_bracket_end",
    # The one-point and stacked solves share _rotate and assemble_matrix, so
    # they agree bit for bit on any kernel.
    "tests/test_hamiltonian.py::TestOneAnswerPerPoint::test_each_point_is_answered_alone",
]


def no_kernel_switch() -> str | None:
    """Why OPENBLAS_CORETYPE cannot pick another kernel here, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the Sandybridge kernel is x86-64 only, not {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS"
    return None


@pytest.mark.skipif(no_kernel_switch() is not None, reason=str(no_kernel_switch()))
def test_the_kernel_free_tests_pass_on_a_kernel_without_fma():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *KERNEL_FREE],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        timeout=300, env=dict(os.environ, OPENBLAS_CORETYPE="Sandybridge"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(KERNEL_FREE)} passed" in proc.stdout
