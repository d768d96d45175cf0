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
    # solve is solve_stack on its one point, a stack of one, which the eigen
    # step rotates as its row of a larger stack (next entry), so the
    # one-point and stacked solves agree bit for bit on any kernel.
    "tests/test_hamiltonian.py::TestOneAnswerPerPoint::test_each_point_is_answered_alone",
    # A stack of one matrix takes the rotations and BLAS products of its row
    # of a larger stack, on the one array path, so it gives that row's bits
    # on any kernel.
    "tests/test_hamiltonian.py::TestStackedJacobi::test_a_stack_of_one_rotates_as_row_k_of_a_stack",
    # The program's levels and J against a 50-digit solve of the same float
    # matrices, within a bound that leaves room for any kernel's rounding.
    # (TestT0ByEnergy's tightly confined device is left out: it also pins
    # J == 0.0, a value of Jacobi's own rounding, not of the model.)
    "tests/test_hamiltonian.py::TestSolveMany::test_each_point_is_exact_to_the_bound[paper]",
    "tests/test_hamiltonian.py::TestSolveMany::test_each_point_is_exact_to_the_bound[full]",
    "tests/test_hamiltonian.py::TestSolveMany::test_an_infinite_point_of_a_stack_fails_alone",
    *(f"tests/test_hamiltonian.py::TestSolveMany::"
      f"test_every_point_of_a_cli_call_is_exact_to_the_bound[argv{k}]" for k in range(3)),
    "tests/test_hamiltonian.py::TestT0ByEnergy::test_the_full_mode_tilt_grid_across_the_sign_change",
    *(f"tests/test_hamiltonian.py::TestT0ByEnergy::"
      f"test_crosscheck_devices_clean_and_with_an_impurity[{mode}]" for mode in ("paper", "full")),
    "tests/test_hamiltonian.py::TestT0ByEnergy::test_an_empty_stack",
    "tests/test_hamiltonian.py::TestPerturbativeEstimate::test_improves_as_hopping_shrinks",
    # Each compares two program paths that take the model through the same products.
    "tests/test_hamiltonian.py::TestDeviceBuiltOnce::test_matches_a_build_from_scratch",
    "tests/test_hamiltonian.py::TestDeviceBuiltOnce::test_alternating_impurities_are_never_stale",
    "tests/test_hamiltonian.py::TestStackedModel::test_each_point_matches_a_one_point_solve",
    # Two runs on one kernel, and stack sizes, which no rounding changes.
    "tests/test_cli.py::TestFlags::test_a_second_noise_compare_solves_no_j0",
    # The device fails before any product is taken.
    "tests/test_noise.py::TestUnbuildableDevice::test_a_failed_j0_fails_again_on_the_next_call",
    # A flag's bound is checked, or a potential overflows, with no matrix product.
    *(f"tests/test_cli.py::TestFlags::test_a_grid_past_the_bound_together_is_named_unsolved"
      f"[{case}]" for case in ("spectrum-1002001", "spectrum-100000", "spectrum-one-xi",
                               "spectrum-default-xi", "impurity-scan-120000",
                               "impurity-scan-99999", "impurity-scan-100002")),
    *(f"tests/test_cli.py::TestFlags::test_a_potential_that_overflows_is_named[{case}]"
      for case in ("y-1e300", "x-1e300")),
    # Each clause is met, or missed, by a margin far wider than any kernel's rounding.
    *(f"tests/test_failure_account.py::{test}[{q}]" for q in ("q=-0.1", "q=-0.01", "q=-1")
      for test in ("test_a06s_clauses_fail_only_at_q_minus_1_and_only_for_the_tilt",
                   "test_a08s_q_tilt_spread_decides_it_at_q_minus_1")),
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
