"""Tests for the two-electron model assembly and eigensolver."""
import ast
import dataclasses
import functools
import math
import os
import pathlib
import re
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqdsim import (
    AssemblyMode,
    DeviceParams,
    HubbardParams,
    Impurity,
    T0_VECTOR,
    assemble_matrix,
    exchange_J_ghz,
    hubbard_exchange_estimate,
    hubbard_noise_estimate,
    hubbard_parameters,
    solve,
)
from dqdsim import cli, hamiltonian, noise
from dqdsim.crosscheck import fresh_model, sample_device, sample_impurity
from dqdsim.model import HBAR2_OVER_2ME, MEV_TO_GHZ

# Frozen from high-precision evaluation at the default device
# (a = 100 nm, hbar_omega0 = 0.1 meV, epsilon = 0, xi = 1.3); the Z
# terms use the default impurity at (-600, 600) nm with charge -e.
T_HOP = 0.005149277756513752
U_1 = 1.332381150090161
U_2 = 1.3323811500901612
U_12 = 0.5508858264826311
DELTA_U = 0.7814953236075299
EXCHANGE_K = 0.04056348505609285
CORR_HOP_1 = 0.023816768496954435
CORR_HOP_2 = 0.023816768496954577
ZT_1 = 0.14258445367374392
ZT_2 = 0.11864611394554424
ZT_12 = -0.00022882573048377668

J0_MEV = 0.00013569093815546385
J0_GHZ = 0.032809933155053005
PAPER_EVALS = (0.5507501355444756, 0.5508858264826311,
               1.3323811500901608, 1.3325168410283164)
# In the untruncated assembly at the default device the correction
# terms push the lowest singlet above the triplet.
J_FULL_MEV = -0.07934738948902409
FULL_EVALS = (0.5103223414265382, 0.5896697309155623,
              1.2918176650340683, 1.3747242157694162)
ESTIMATE_MEV = 0.00013571449815632302


def charpoly_coefficients(A):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion.

    Coefficients come from traces of powers of A alone, so this is an
    eigensolver-independent description of the spectrum.
    """
    n = A.shape[0]
    coeffs = [1.0]
    M = np.eye(n)
    for k in range(1, n + 1):
        AM = A @ M
        c = -np.trace(AM) / k
        coeffs.append(c)
        M = AM + c * np.eye(n)
    return np.array(coeffs)


def random_symmetric(seed, n=4, scale=1.0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) * scale
    return 0.5 * (B + B.T)


def lone_jacobi(A, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi on one matrix as a plain loop, one rotation matrix at a
    time: the reference that every matrix of a stack must reproduce bit for
    bit, sign of zero included."""
    A = np.array(A, dtype=float)
    assert np.array_equal(A, A.T), "lone_jacobi solves symmetric matrices"
    n = A.shape[0]
    V = np.eye(n)
    scale = max(1.0, np.abs(A).max())
    for _ in range(max_sweeps):
        off = math.sqrt(sum(A[p, q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0:
                    tphi = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    tphi = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + tphi * tphi)
                s = tphi * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    evals = np.diag(A).copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    V = V[:, order]
    for col in range(n):
        v = V[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size and v[nz[0]] < 0:
            V[:, col] = -v
    return evals, V


# The program's levels and J lie within EXACT_ATOL * max|H| of the 50-digit
# solve of the same float matrix H.  Jacobi's worst, over the default tilt
# and barrier grids in both modes and 3,600 sampled points, was 2.0e-15
# max|H| for a level and 9.5e-16 max|H| for J.
EXACT_ATOL = 4e-15


def exact_solve(H):
    """(levels, J) of one assembled matrix H (4, 4) at 50 digits, each
    rounded once: T0's level H11 - H12 with the three levels of the singlet
    block over |0,ud>, (|d,u> + |u,d>)/sqrt 2 and |ud,0>, ascending, and J,
    T0's level minus the lowest singlet one.  It shares no step with the
    program's eigensolver or its pick of T0's level."""
    assert H[0, 1] == H[0, 2] and H[1, 3] == H[2, 3] and H[1, 1] == H[2, 2], "T0 decouples"
    with mpmath.workdps(50):
        h, r = mpmath.matrix(H.tolist()), mpmath.sqrt(2)
        block = mpmath.matrix([[h[0, 0], r * h[0, 1], h[0, 3]],
                               [r * h[0, 1], h[1, 1] + h[1, 2], r * h[1, 3]],
                               [h[0, 3], r * h[1, 3], h[3, 3]]])
        singlet = list(mpmath.eigsy(block, eigvals_only=True))
        t0 = h[1, 1] - h[1, 2]
        return np.array([float(e) for e in sorted([t0, *singlet])]), float(t0 - min(singlet))


def check_exact(H, evals, J):
    """Each matrix of H (N, 4, 4) has its levels evals and its J within
    EXACT_ATOL max|H| of exact_solve's."""
    assert len(H) == len(evals) == len(J)
    for A, e, j in zip(H, evals, J):
        want_e, want_j = exact_solve(A)
        bound = EXACT_ATOL * np.abs(A).max()
        assert np.abs(e - want_e).max() <= bound and abs(j - want_j) <= bound, (e, j, bound)


# One CLI call of each kind: calibrations in lockstep, one device with
# impurities, and a full-mode sweep with its zoom block.
CLI_CALLS = [["noise-compare", "--points", "5"], ["impurity-scan", "--radii", "1.5,6,20"],
             ["exchange-barrier", "--mode", "full"]]


def built_matrices(device, epsilon, xi, rows=None, impurities=(), mode=AssemblyMode.PAPER):
    """The matrices that solve_stack assembles for these arguments: one per
    point that passes _built's checks, in order."""
    return assemble_matrix(hamiltonian._built(device, epsilon, xi, rows, impurities)[2], mode)


def same_bits(got, want) -> bool:
    """Arrays equal bit for bit, so -0.0 differs from +0.0."""
    return all(np.array_equal(np.ascontiguousarray(g, dtype=float).view(np.uint64),
                              np.ascontiguousarray(w, dtype=float).view(np.uint64))
               for g, w in zip(got, want))


def sweeps_to_converge(A) -> int:
    full = lone_jacobi(A)
    k = 0
    while not same_bits(lone_jacobi(A, max_sweeps=k), full):
        k += 1
    return k


@functools.lru_cache(maxsize=1)
def matrices_by_sweeps() -> dict:
    """Three symmetric matrices each that the lone solver diagonalizes in
    exactly 2, 3 and 4 sweeps (the smaller the couplings, the fewer)."""
    rng = np.random.default_rng(5)
    found = {2: [], 3: [], 4: []}
    for k in range(300):
        coupling = (1e-5, 1e-2, 1.0)[k % 3]
        B = random_symmetric(int(rng.integers(2**32)))
        A = np.diag(rng.normal(size=4) * 3) + coupling * (B - np.diag(np.diag(B)))
        sweeps = sweeps_to_converge(A)
        if sweeps in found and len(found[sweeps]) < 3:
            found[sweeps].append(A)
    assert all(len(v) == 3 for v in found.values()), {k: len(v) for k, v in found.items()}
    return found


def device_matrix(rng):
    """The 4x4 model of a sampled device at a random control point, in a
    random assembly mode, with or without a sampled impurity."""
    device = sample_device(rng)
    imp = sample_impurity(rng, device.a) if rng.random() < 0.5 else None
    point = dataclasses.replace(device, epsilon=float(rng.uniform(-1.0, 1.0)),
                                xi=float(rng.uniform(0.0, 1.5)))
    mode = (AssemblyMode.PAPER, AssemblyMode.FULL)[int(rng.integers(2))]
    return assemble_matrix(hubbard_parameters(point, imp), mode)


def diagonal_matrix(rng):
    # Converged before the first sweep; a rotation of any kind would turn
    # its -0.0 eigenvalue into +0.0.
    return np.diag([-0.0, *rng.normal(size=3)])


def negative_zero_coupling(rng):
    A = random_symmetric(int(rng.integers(2**32)))
    p, q = sorted(rng.choice(4, size=2, replace=False))
    A[p, q] = A[q, p] = -0.0
    return A


def equal_levels_negative_coupling(rng):
    # tau = +0 / (2 a_01) = -0 at the first rotation: tan(phi) must take
    # the sign of +0, or the rotation turns the other way.
    A = random_symmetric(int(rng.integers(2**32)))
    A[1, 1] = A[0, 0]
    A[0, 1] = A[1, 0] = -abs(A[0, 1])
    return A


def at_the_threshold(rng):
    # The off-diagonal norm, its squares summed in (p, q) order, is just
    # within 1e-14: the matrix has converged.  Summed in reverse, or as
    # the first square plus the sum of the rest, it is just above.
    A = np.diag([0.1, 0.2, 0.3, 0.4])
    A[np.triu_indices(4, 1)] = [5.419384952935638e-15, 3.4927199472181973e-15,
                                4.737909342272195e-15, 2.1025203167926995e-15,
                                1.810305328036741e-15, 5.318420075865058e-15]
    return np.triu(A) + np.triu(A, 1).T


def converging_in(sweeps):
    return lambda rng: matrices_by_sweeps()[sweeps][int(rng.integers(3))]


MATRIX_KINDS = {
    "device": device_matrix,
    "diagonal": diagonal_matrix,
    "negative-zero": negative_zero_coupling,
    "2-sweeps": converging_in(2),
    "3-sweeps": converging_in(3),
    "4-sweeps": converging_in(4),
    "equal-levels": equal_levels_negative_coupling,
    "threshold": at_the_threshold,
}


class TestHubbardParameters:
    def test_clean_values(self, params):
        hp = hubbard_parameters(params)
        assert hp.t == pytest.approx(T_HOP, rel=1e-13)
        assert hp.U1 == pytest.approx(U_1, rel=1e-13)
        assert hp.U2 == pytest.approx(U_2, rel=1e-13)
        assert hp.U12 == pytest.approx(U_12, rel=1e-13)
        assert hp.exchange_k == pytest.approx(EXCHANGE_K, rel=1e-13)
        assert hp.corr_hop1 == pytest.approx(CORR_HOP_1, rel=1e-13)
        assert hp.corr_hop2 == pytest.approx(CORR_HOP_2, rel=1e-13)
        assert hp.delta_u == pytest.approx(DELTA_U, rel=1e-13)
        assert hp.Zt1 == hp.Zt2 == hp.Zt12 == 0.0

    def test_impurity_terms(self, params, impurity):
        hp = hubbard_parameters(params, imp=impurity)
        assert hp.Zt1 == pytest.approx(ZT_1, rel=1e-13)
        assert hp.Zt2 == pytest.approx(ZT_2, rel=1e-13)
        assert hp.Zt12 == pytest.approx(ZT_12, rel=1e-12)
        # The charge shifts levels but not the interaction integrals.
        assert hp.t == pytest.approx(T_HOP, rel=1e-13)
        assert hp.U12 == pytest.approx(U_12, rel=1e-13)

    def test_detuning_enters_chemical_potentials(self):
        hp = hubbard_parameters(DeviceParams(epsilon=0.4))
        assert hp.mu1 == pytest.approx(-0.2)
        assert hp.mu2 == pytest.approx(0.2)
        assert hp.detuning == pytest.approx(0.4)
        # Interaction integrals are evaluated on the untilted potential.
        assert hp.t == pytest.approx(T_HOP, rel=1e-13)
        assert hp.U12 == pytest.approx(U_12, rel=1e-13)

    # An impurity whose elements overflow is named before the model's
    # products can warn of it, as solve_stack names it; the first-order
    # noise estimate, which reads the model, inherits the error.
    @pytest.mark.parametrize("call", [hubbard_parameters, hubbard_noise_estimate])
    def test_an_overflowing_impurity_is_a_named_error(self, params, call):
        imp = Impurity(-150.0, 0.0, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "Impurity(x_c=-150.0, y_c=0.0, q=1e+308): its matrix elements overflow")):
                call(params, imp)
            assert hubbard_parameters(params, Impurity(1e200, 0.0)).Zt1 == 0.0  # too far to act


class TestAssembly:
    def test_diagonal_layout(self, params, impurity):
        hp = hubbard_parameters(params, imp=impurity)
        H = assemble_matrix(hp, AssemblyMode.PAPER)
        d02 = hp.U2 - 2 * hp.mu2 + 2 * hp.Zt2
        d11 = hp.U12 - hp.mu1 - hp.mu2 + hp.Zt1 + hp.Zt2
        d20 = hp.U1 - 2 * hp.mu1 + 2 * hp.Zt1
        np.testing.assert_allclose(np.diag(H), [d02, d11, d11, d20], rtol=1e-15)

    def test_paper_mode_couplings(self, params, impurity):
        hp = hubbard_parameters(params, imp=impurity)
        H = assemble_matrix(hp, AssemblyMode.PAPER)
        hop = -hp.t + hp.Zt12
        for p, q in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert H[p, q] == pytest.approx(hop, rel=1e-15)
        assert H[1, 2] == 0.0 and H[0, 3] == 0.0

    def test_full_mode_couplings(self, params, impurity):
        hp = hubbard_parameters(params, imp=impurity)
        H = assemble_matrix(hp, AssemblyMode.FULL)
        up = -hp.t + hp.Zt12 + hp.corr_hop2
        lo = -hp.t + hp.Zt12 + hp.corr_hop1
        assert H[0, 1] == pytest.approx(up, rel=1e-15)
        assert H[0, 2] == pytest.approx(up, rel=1e-15)
        assert H[1, 3] == pytest.approx(lo, rel=1e-15)
        assert H[2, 3] == pytest.approx(lo, rel=1e-15)
        assert H[1, 2] == pytest.approx(hp.exchange_k, rel=1e-15)
        assert H[0, 3] == pytest.approx(hp.exchange_k, rel=1e-15)

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_symmetric(self, params, impurity, mode):
        H = assemble_matrix(hubbard_parameters(params, imp=impurity), mode)
        np.testing.assert_array_equal(H, H.T)

    # Jacobi takes every assembled matrix as it is, unscanned for asymmetry:
    # each pair of mirrored entries is written from one value, so a stack of
    # any device, impurity and controls equals its transpose bit for bit.
    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(100.0, 300.0),
           hbar_omega0=st.floats(2.0 * HBAR2_OVER_2ME / 0.067 / 200.0**2, 5.0),
           seed=st.integers(0, 2**32 - 1),
           points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.5), st.booleans()),
                           min_size=1, max_size=6))
    def test_every_assembled_stack_is_exactly_symmetric(self, mode, a, hbar_omega0, seed,
                                                         points):
        device = DeviceParams(a=a, hbar_omega0=hbar_omega0)
        imp = sample_impurity(np.random.default_rng(seed), a)
        epsilon, xi, dirty = zip(*points)
        H = built_matrices(device, epsilon, xi, [int(d) for d in dirty], [imp], mode)
        assert H.shape == (len(points), 4, 4)
        assert same_bits([H], [np.swapaxes(H, -1, -2)])

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_t0_is_an_exact_eigenvector(self, params, impurity, mode):
        # (|12> - |21>)/sqrt(2) decouples in both assemblies; its energy
        # is d11 - K with K = 0 in the truncated mode.
        hp = hubbard_parameters(params, imp=impurity)
        H = assemble_matrix(hp, mode)
        v = H @ T0_VECTOR
        lam = float(T0_VECTOR @ v)
        assert np.max(np.abs(v - lam * T0_VECTOR)) < 1e-15 * np.abs(H).max()
        d11 = hp.U12 - hp.mu1 - hp.mu2 + hp.Zt1 + hp.Zt2
        k = hp.exchange_k if mode == AssemblyMode.FULL else 0.0
        assert lam == pytest.approx(d11 - k, rel=1e-14)

    def test_t0_vector_is_normalized_singlet_triplet_combination(self):
        np.testing.assert_allclose(
            T0_VECTOR, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), atol=1e-16)
        assert float(T0_VECTOR @ T0_VECTOR) == pytest.approx(1.0, abs=1e-15)


def eigenvalues(A):
    """jacobi_eigh's ascending eigenvalues of one matrix, as a stack of one."""
    return hamiltonian.jacobi_eigh(np.array([A], dtype=float))[0]


def check_stack(stack):
    """Each matrix of a stack has the eigenvalues it has alone, and those of
    lone_jacobi, bit for bit."""
    evals = hamiltonian.jacobi_eigh(np.array(stack))
    for A, e in zip(stack, evals):
        assert same_bits([e], [eigenvalues(A)])
        assert same_bits([e], [lone_jacobi(A)[0]])


class TestJacobiEigensolver:
    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_eigenvalues_are_charpoly_roots(self, seed):
        # Independent route: Faddeev-LeVerrier gives the characteristic
        # polynomial from traces; every reported eigenvalue must be a
        # root of it, within the polynomial's own conditioning.
        A = random_symmetric(seed)
        evals = eigenvalues(A)
        coeffs = charpoly_coefficients(A)
        for lam in evals:
            p = float(np.polyval(coeffs, lam))
            scale = float(np.polyval(np.abs(coeffs), abs(lam)))
            assert abs(p) < 1e-12 * max(scale, 1.0)

    def test_well_separated_spectrum_matches_polynomial_roots(self):
        A = np.diag([1.0, 2.0, 3.0, 5.0]) + 0.1 * random_symmetric(7)
        evals = eigenvalues(A)
        roots = np.sort(np.roots(charpoly_coefficients(A)).real)
        np.testing.assert_allclose(evals, roots, rtol=1e-10)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_decomposition_identities(self, seed):
        # What the levels alone show of A = V diag(evals) V^T: they ascend,
        # add up to its trace and multiply to its determinant.
        A = random_symmetric(seed, scale=3.0)
        evals = eigenvalues(A)
        n = A.shape[0]
        scale = max(1.0, float(np.abs(A).max()))
        assert np.all(np.diff(evals) >= 0.0)
        assert float(np.sum(evals)) == pytest.approx(float(np.trace(A)), abs=1e-12 * scale)
        assert float(np.prod(evals)) == pytest.approx(
            float(np.linalg.det(A)), abs=1e-11 * scale**n)

    def test_bit_reproducible(self):
        stack = np.array([random_symmetric(k) for k in (123, 124)])
        assert same_bits([hamiltonian.jacobi_eigh(stack)], [hamiltonian.jacobi_eigh(stack)])
        assert same_bits([eigenvalues(stack[0])], [eigenvalues(stack[0])])


# numpy's floating-point warnings are RuntimeWarnings.  Only they are made
# errors here, and pyproject.toml exempts the DeprecationWarning that
# hypothesis's failure report trips, which as an error would abort the run.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedJacobi:
    """Every matrix of a stack takes exactly the rotations it takes alone;
    _faults rejects, by index, each one that Jacobi cannot solve."""

    def test_sweep_counts_are_as_named(self):
        for sweeps, matrices in matrices_by_sweeps().items():
            assert [sweeps_to_converge(A) for A in matrices] == [sweeps] * 3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(sorted(MATRIX_KINDS)), min_size=1, max_size=9))
    def test_each_matrix_matches_lone_jacobi(self, seed, kinds):
        rng = np.random.default_rng(seed)
        check_stack([MATRIX_KINDS[k](rng) for k in kinds])

    def test_every_kind_in_one_stack(self):
        rng = np.random.default_rng(2)
        stack = [make(rng) for make in MATRIX_KINDS.values() for _ in range(3)]
        check_stack(stack)
        check_stack(stack[::-1])

    def test_matrices_leave_while_another_skips_a_pair(self):
        # The 3x3 block never couples to the last level, so its pairs (0, 3),
        # (1, 3) and (2, 3) are skipped at every one of its 4 sweeps, while
        # the others leave the stack after 2, 3 and 4 sweeps: the masked
        # rotations run on a stack that has lost matrices.
        block = np.zeros((4, 4))
        block[:3, :3], block[3, 3] = random_symmetric(0, n=3), 0.5
        assert sweeps_to_converge(block) == 4
        stack = [matrices_by_sweeps()[k][0] for k in (2, 3, 4)] + [block]
        check_stack(stack)
        check_stack(stack[::-1])

    # Each stack that the eigen step is handed in a CLI call.
    @pytest.mark.parametrize("argv", CLI_CALLS)
    def test_every_stack_of_a_cli_call_matches_lone_jacobi(self, argv, eigen_stacks, tmp_path):
        stacks = eigen_stacks()
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert stacks
        for H in list(stacks):  # check_stack's own calls are recorded too
            check_stack(H)

    # _rotate takes every stack, a stack of one included, on its one array
    # path: matrix k alone must come out with the bits of row k of the
    # whole stack.
    def test_a_stack_of_one_rotates_as_row_k_of_a_stack(self, impurity):
        stacks = []
        for mode in AssemblyMode:
            for imps in ([], [impurity]):
                eps, xi = (g.ravel() for g in np.meshgrid(np.linspace(-1.0, 1.0, 9),
                                                          [0.0, 0.5, 1.3, 1.5]))
                rows = [len(imps)] * len(eps) if imps else None
                stacks.append(built_matrices(DeviceParams(), eps, xi, rows, imps, mode))
        rng = np.random.default_rng(34)
        for n in range(2, 6):
            for couplings in ([1.0], [0.0, -0.0], [1e-301, -1e-301, 5e-324, 1.0]):
                stack = np.array([random_symmetric(int(rng.integers(2**32)), n)
                                  for _ in range(6)])
                p, q = np.triu_indices(n, 1)
                picked = rng.choice(couplings, size=(6, len(p)))
                hit = rng.random((6, len(p))) < 0.5
                stack[:, p, q] = np.where(hit, picked, stack[:, p, q])
                stack[:, q, p] = stack[:, p, q]
                stacks.append(stack)
        stacks.append([make(rng) for make in MATRIX_KINDS.values() for _ in range(2)])
        for stack in stacks:
            H = np.array(stack, dtype=float)
            whole = hamiltonian._rotate(H.copy())
            for k in range(len(H)):
                assert same_bits([hamiltonian._rotate(H[k:k + 1].copy())],
                                 [whole[k:k + 1]]), (H.shape, k)

    # Where a step of a rotation's angle overflows or underflows, numpy warns
    # as its error state says, once per step however many matrices it holds:
    # a matrix warns alike alone and in a stack of two.
    # A tiny a_01 overflows tau * tau; a large one underflows tau.
    @pytest.mark.parametrize("a01, a11, errstate, first", [
        (1e-200, 1.0, {}, "overflow encountered in multiply"),
        (1e100, 1e-250, {"under": "warn"}, "underflow encountered in divide"),
    ], ids=["tau-overflows", "tau-underflows"])
    def test_a_flagged_angle_warns_alike_alone_and_stacked(self, a01, a11, errstate, first):
        A = np.array([[0.0, a01, 1.0], [a01, a11, 0.0], [1.0, 0.0, 2.0]])
        results, warned = [], []
        for matrices in (A[None], np.stack([A, A])):
            with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
                warnings.simplefilter("always")
                results.append(hamiltonian.jacobi_eigh(matrices))
            warned.append([str(w.message) for w in caught])
        assert warned[0] == warned[1] and warned[0][0] == first
        (alone, evals) = results
        assert same_bits(alone, evals[1:])

    def test_a_matrix_at_the_threshold_is_not_rotated(self):
        A = at_the_threshold(None)
        assert sweeps_to_converge(A) == 0
        check_stack([A, random_symmetric(1)])

    def test_a_converged_matrix_keeps_its_negative_zero(self):
        A = np.diag([-0.0, 1.0, 2.0, 3.0])
        evals = hamiltonian.jacobi_eigh(np.array([A, random_symmetric(1)]))
        assert math.copysign(1.0, evals[0, 0]) == -1.0


    @pytest.mark.parametrize("entry", [(0, 0), (1, 3)])
    def test_a_nan_matrix_is_rejected(self, entry):
        bad = random_symmetric(2)
        bad[entry] = bad[entry[::-1]] = math.nan
        assert hamiltonian._faults(np.array([random_symmetric(1), bad])) == {
            1: "matrix has a non-finite entry"}

    def test_an_infinite_matrix_is_rejected(self):
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        A[0, 1] = A[1, 0] = math.inf
        assert hamiltonian._faults(A[None]) == {0: "matrix has a non-finite entry"}
        assert hamiltonian._faults(np.array([random_symmetric(1), A])) == {
            1: "matrix has a non-finite entry"}

    def test_an_overflowing_off_diagonal_norm_is_rejected(self):
        # Two pairs at 1e154 square to past the largest float, so Jacobi's
        # convergence test could never pass; one pair, or a huge diagonal,
        # is solved as a lone loop solves it, unwarned.
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        A[0, 1] = A[1, 0] = 1e154
        huge = np.diag([1e300, -1e300, 3.0, 4.0])
        huge[0, 1] = huge[1, 0] = 1.0
        assert hamiltonian._faults(np.array([A, huge])) == {}
        check_stack([A, huge])
        A[2, 3] = A[3, 2] = 1e154
        assert hamiltonian._faults(A[None]) == {0: "matrix off-diagonal norm overflows"}
        assert hamiltonian._faults(np.array([huge, A])) == {1: "matrix off-diagonal norm overflows"}
        A[0, 0] = math.nan
        assert hamiltonian._faults(A[None]) == {0: "matrix has a non-finite entry"}

    def test_a_non_finite_entry_is_named_before_an_asymmetry(self):
        # A NaN on one side only is both, and is named for its NaN.  An
        # asymmetry alone is no fault: every assembled matrix is exactly
        # symmetric (TestAssembly), so none is scanned for one.
        lopsided = random_symmetric(2)
        lopsided[0, 1] = math.nan
        skew = random_symmetric(3)
        skew[0, 1] += 1e-3
        assert hamiltonian._faults(lopsided[None]) == {0: "matrix has a non-finite entry"}
        assert hamiltonian._faults(np.array([skew, lopsided])) == {
            1: "matrix has a non-finite entry"}

    def test_an_exactly_symmetric_stack_is_not_scanned(self, monkeypatch):
        stack = np.array([random_symmetric(k) for k in range(5)])
        controls = (DeviceParams(), [0.0, 0.5, 0.9], [1.3, 0.8, 0.0])
        want = hamiltonian.jacobi_eigh(stack), hamiltonian.solve_stack(*controls)[:2]

        def scan(*args, **kwargs):
            raise AssertionError("tolerance scan of an exactly symmetric stack")
        monkeypatch.setattr(np, "isclose", scan)
        assert hamiltonian._faults(stack) == {}
        got = hamiltonian.jacobi_eigh(stack), hamiltonian.solve_stack(*controls)[:2]
        assert same_bits([got[0], *got[1]], [want[0], *want[1]])

    def test_shapes(self):
        A = random_symmetric(3)
        assert hamiltonian.jacobi_eigh(A[None]).shape == (1, 4)
        assert hamiltonian.jacobi_eigh(np.array([A, A])).shape == (2, 4)
        assert solve(DeviceParams()).eigenvalues.shape == (4,)

    # No shape is checked: a stack (N, n, n) of symmetric matrices, n >= 2,
    # gives N rows of n ascending levels, each matrix's as it has them alone
    # and as the lone loop finds them, and is left as it was given.
    @pytest.mark.parametrize("shape", [(0, 4), (1, 2), (1, 3), (1, 5), (1, 6), (2, 2), (3, 3),
                                       (9, 4), (4, 5), (3, 6)])
    def test_a_stack_of_any_size_matches_lone_jacobi(self, shape):
        N, n = shape
        stack = np.array([random_symmetric(40 + k, n) for k in range(N)]).reshape(N, n, n)
        given = stack.copy()
        evals = hamiltonian.jacobi_eigh(stack)
        assert evals.shape == shape and same_bits([stack], [given])
        assert np.all(np.diff(evals, axis=-1) >= 0.0)
        check_stack(stack)

    def test_each_step_of_the_model_and_levels_path_has_only_its_callers(self):
        # One model build: only _device transforms the Coulomb tensor, and
        # only _model forms the model's fields from a device build, for the
        # solver, the closed-form calibrations and validate's gauge check
        # alike.  One levels path: of the package's functions, only
        # jacobi_eigh rotates, so the span that perfbench's tracer puts on it
        # holds every eigen step; and only solve_stack takes levels and J, so
        # it is the one place that knows the eigensolver.  One Jacobi path:
        # of hamiltonian's own functions _rotate calls only _upper and
        # _off_norm2, so no second path for some stack size can return.  And
        # J0 is solved once per device and mode, for matched_j_grid alone.
        steps = {"_device_integrals": set(), "einsum": set(), "_model": set(),
                 "_rotate": set(), "jacobi_eigh": set(), "_exchange": set(), "_j0_ghz": set()}
        rotate_calls = set()
        for path in pathlib.Path(hamiltonian.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            own = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Call):
                            names = {getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None)}
                            for name in names & steps.keys():
                                steps[name].add((path.name, fn.name))
                            if (path.name, fn.name) == ("hamiltonian.py", "_rotate"):
                                rotate_calls |= names & own
        assert rotate_calls == {"_upper", "_off_norm2"}
        assert steps == {
            "_device_integrals": {("hamiltonian.py", "_device"),
                                  *(("integrals.py", f"{kind}_element")
                                    for kind in ("kinetic", "potential", "coulomb"))},
            "einsum": {("hamiltonian.py", "_device")},
            "_model": {("hamiltonian.py", "_built"), ("noise.py", "_roots"),
                       ("crosscheck.py", "fresh_model")},
            "_rotate": {("hamiltonian.py", "jacobi_eigh")},
            "jacobi_eigh": {("hamiltonian.py", "solve_stack")},
            "_exchange": {("hamiltonian.py", "solve_stack")},
            "_j0_ghz": {("noise.py", "matched_j_grid")}}


@pytest.mark.filterwarnings("error")
class TestSolveMany:
    """solve_stack on many points of one device, and solve on each alone."""

    # Both signs of J, the charge-transfer pole (dU = 0.78 meV), no barrier
    # and a high one, and a sampled device.
    POINTS = [(0.0, 1.3), (0.37, 1.1), (-0.5, 0.6), (0.9, 1.3), (0.75, 1.3),
              (-0.78, 0.9), (1.4, 0.0), (0.05, 1.5), (0.0, 0.3)]

    def stacks(self, impurity, mode):
        """(points, solve_stack's arguments) of POINTS, clean and with the
        impurity, on the default device and a sampled one."""
        for device in (DeviceParams(), sample_device(np.random.default_rng(4))):
            points = [(dataclasses.replace(device, epsilon=e, xi=x), imp)
                      for e, x in self.POINTS for imp in (None, impurity)]
            yield points, (device, [p.epsilon for p, _ in points], [p.xi for p, _ in points],
                           [0, 1] * len(self.POINTS), [impurity], mode)

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_each_point_matches_a_lone_solve(self, impurity, mode):
        for points, stack in self.stacks(impurity, mode):
            kernel_J, kernel_evals, kernel_t0, failed = hamiltonian.solve_stack(*stack)
            assert failed == {}
            stacked = built_matrices(*stack)
            for k, (params, imp) in enumerate(points):
                # The point alone: its own model, matrix and solve.
                H = assemble_matrix(hubbard_parameters(params, imp), mode)
                res = solve(params, imp, mode)
                assert type(res.J) is float and type(res.t0_energy) is float
                # T0's energy is its exact eigenvalue, as solve_stack takes it.
                assert same_bits([res.t0_energy], [H[1, 1] - H[1, 2]])
                assert same_bits((stacked[k], kernel_evals[k], [kernel_J[k], kernel_t0[k]]),
                                 (H, res.eigenvalues, [res.J, res.t0_energy]))

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_each_point_is_exact_to_the_bound(self, impurity, mode):
        for _, stack in self.stacks(impurity, mode):
            J, evals, _, failed = hamiltonian.solve_stack(*stack)
            assert failed == {}
            check_exact(built_matrices(*stack), evals, J)

    # Each stack that the eigen step is handed in a CLI call is one
    # solve_stack call's, whole.
    @pytest.mark.parametrize("argv", CLI_CALLS)
    def test_every_point_of_a_cli_call_is_exact_to_the_bound(self, argv, eigen_stacks,
                                                             monkeypatch, tmp_path):
        solved, stacks, real = [], eigen_stacks(), hamiltonian.solve_stack
        for module in (cli, noise):
            monkeypatch.setattr(module, "solve_stack", lambda *args: solved.append(
                (args, real(*args))) or solved[-1][1])
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert solved and [len(H) for H in stacks] == [len(J) for _, (J, *_) in solved]
        for args, (J, evals, _, failed) in solved:
            assert failed == {}
            check_exact(built_matrices(*args), evals, J)

    def test_a_failing_point_fails_alone(self, monkeypatch):
        # A NaN and an overflowing off-diagonal norm among good ones, then a
        # bad device.  assemble_matrix builds the device's points as one stack.
        real = hamiltonian.assemble_matrix

        def corrupted(hp, mode=AssemblyMode.PAPER):
            H = real(hp, mode)
            H[np.isclose(hp.detuning, 0.1), 0, 0] = math.nan
            H[np.isclose(hp.detuning, 0.3), 0:2, 2:4] = 1e154
            H[np.isclose(hp.detuning, 0.3), 2:4, 0:2] = 1e154
            return H

        expected = [solve(DeviceParams(epsilon=e)) for e in (0.0, 0.2)]
        monkeypatch.setattr(hamiltonian, "assemble_matrix", corrupted)
        J, evals, t0, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.1, 0.2, 0.3], [1.3] * 4)
        assert {k: (type(exc), str(exc)) for k, exc in failed.items()} == {
            1: (ValueError, "matrix has a non-finite entry"),
            3: (ValueError, "matrix off-diagonal norm overflows")}
        assert np.isnan(J[[1, 3]]).all() and np.isnan(evals[[1, 3]]).all()
        assert np.isnan(t0[[1, 3]]).all()
        for k, want in zip((0, 2), expected):
            assert same_bits((evals[k],), (want.eigenvalues,))
            assert J[k] == want.J and t0[k] == want.t0_energy
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            solve(DeviceParams(epsilon=0.1))
        with pytest.raises(ValueError, match="m_eff must be positive and finite"):
            hamiltonian.solve_stack(DeviceParams(m_eff=-0.067), [0.0], [1.3])

    def test_an_infinite_point_of_a_stack_fails_alone(self, monkeypatch):
        real, built = hamiltonian.assemble_matrix, []

        def corrupted(hp, mode=AssemblyMode.PAPER):
            H = real(hp, mode)
            H[1, 0, 1] = H[1, 1, 0] = math.inf
            built.append(H)
            return H
        monkeypatch.setattr(hamiltonian, "assemble_matrix", corrupted)
        J, evals, _, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.1, 0.2], [1.3] * 3)
        assert list(failed) == [1] and str(failed[1]) == "matrix has a non-finite entry"
        assert np.isnan(J[1]) and np.isnan(evals[1]).all()
        kept = [0, 2]
        check_exact(built[0][kept], evals[kept], J[kept])

    def test_an_overflowing_point_of_a_stack_fails_alone(self):
        # Its hop is about 1e300 meV; a detuning of 1e160 meV only sits on
        # the diagonal, and is solved.
        J, evals, _, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.0, 1e160], [1.3, 1e300, 1.3])
        assert list(failed) == [1] and str(failed[1]) == "matrix off-diagonal norm overflows"
        assert np.isnan(J[1]) and np.isnan(evals[1]).all()
        for k, params in ((0, DeviceParams()), (2, DeviceParams(epsilon=1e160))):
            alone = solve(params)
            assert same_bits((evals[k], J[k]), (alone.eigenvalues, alone.J))
        with pytest.raises(ValueError, match="matrix off-diagonal norm overflows"):
            solve(DeviceParams(xi=1e300))

    def test_no_points(self):
        J, evals, t0, failed = hamiltonian.solve_stack(DeviceParams(), [], [])
        assert failed == {}
        assert (evals.shape, J.shape, t0.shape) == ((0, 4), (0,), (0,))


def recording_assembly(calls: list):
    """assemble_matrix that records each call's stacked model and matrices."""
    real = hamiltonian.assemble_matrix

    def record(hp, mode=AssemblyMode.PAPER):
        H = real(hp, mode)
        calls.append((hp, H))
        return H
    return mock.patch.object(hamiltonian, "assemble_matrix", record)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedModel:
    """solve_stack builds the model of a device's points as arrays; each
    point's model, matrix and solve equal those of the point alone."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
           mode=st.sampled_from(list(AssemblyMode)))
    def test_each_point_matches_a_one_point_solve(self, seed, n, mode):
        rng = np.random.default_rng(seed)
        device = sample_device(rng)
        # Absent, repeated and distinct impurities: row k is imps[k].
        imps = [None, *(sample_impurity(rng, 100.0) for _ in range(int(rng.integers(1, 4))))]
        rows = rng.integers(len(imps), size=n).tolist()
        epsilon, xi = rng.uniform(-1.0, 1.0, size=n), rng.uniform(0.0, 1.5, size=n)
        calls = []
        with recording_assembly(calls):
            J, evals, _, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, imps[1:],
                                                          mode)
        # One assembly, each row the matrix of its own model.
        assert failed == {}
        ((stacked, built),) = calls
        assert built.shape == (n, 4, 4)
        for k, (one, row) in enumerate(zip(hamiltonian._unstack(stacked), built)):
            params = dataclasses.replace(device, epsilon=float(epsilon[k]), xi=float(xi[k]))
            alone = solve(params, imps[rows[k]], mode)
            hp = hubbard_parameters(params, imps[rows[k]])
            assert same_bits(one, hp)
            assert same_bits(row, assemble_matrix(hp, mode))
            assert same_bits((evals[k], J[k]), (alone.eigenvalues, alone.J))

    def test_no_model_is_built_per_point(self, impurity, monkeypatch):
        def per_point(hp):
            raise AssertionError("a model was built per point")
        monkeypatch.setattr(hamiltonian, "_unstack", per_point)
        *_, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.0, 0.3, 0.3], [1.3] * 4, [0, 1, 0, 1], [impurity])
        assert failed == {}
        solve(DeviceParams(epsilon=0.3), impurity)

    @pytest.mark.parametrize("field,value,message", [
        ("m_eff", -0.067, "m_eff must be positive and finite, got -0.067"),
        ("epsilon", math.nan, "epsilon must be finite, got nan"),
        ("xi", math.inf, "xi must be finite, got inf"),
    ])
    def test_a_bad_point_fails_alone_with_its_message(self, impurity, field, value, message):
        good = [(DeviceParams(epsilon=e, xi=x), imp)
                for e, x in ((0.0, 1.3), (0.4, 0.9)) for imp in (None, impurity)]
        bad = (dataclasses.replace(DeviceParams(), **{field: value}), impurity)
        with pytest.raises(ValueError) as lone:
            solve(*bad)
        assert str(lone.value) == message
        points = [good[0], good[1], bad, good[2], good[3]]
        stack = ([p.epsilon for p, _ in points], [p.xi for p, _ in points],
                 [0 if imp is None else 1 for _, imp in points], [impurity])
        if field == "m_eff":  # a bad device fails its whole stack
            with pytest.raises(ValueError, match=re.escape(message)):
                hamiltonian.solve_stack(bad[0], *stack)
            return
        calls = []
        with recording_assembly(calls):
            J, evals, _, failed = hamiltonian.solve_stack(DeviceParams(), *stack)
        assert list(failed) == [2] and str(failed[2]) == message
        assert np.isnan(J[2]) and np.isnan(evals[2]).all()
        # Only the good points are built, each as its own model.
        ((stacked, _),) = calls
        assert hamiltonian._unstack(stacked) == [hubbard_parameters(*point) for point in good]
        for (params, imp), e, j in zip(good, evals[[0, 1, 3, 4]], J[[0, 1, 3, 4]]):
            alone = solve(params, imp)
            assert same_bits((e, j), (alone.eigenvalues, alone.J))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestT0ByEnergy:
    """solve_stack takes T0's level as the one nearest its exact eigenvalue
    H11 - H12.  Where that pick is hardest, each J and the levels lie within
    EXACT_ATOL max|H| of the 50-digit solve, which takes T0's level apart
    from the singlet block."""

    @staticmethod
    def check(device, epsilon, xi, rows=None, impurities=(), mode=AssemblyMode.PAPER):
        J, evals, _, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, impurities,
                                                      mode)
        assert failed == {} and len(J) == len(epsilon)
        check_exact(built_matrices(device, epsilon, xi, rows, impurities, mode), evals, J)
        return J

    # The hop is some 1e-17 meV, so T0 and the lowest singlet are degenerate.
    @pytest.mark.parametrize("mode", list(AssemblyMode))
    def test_a_tightly_confined_device_where_j_is_zero(self, impurity, mode):
        device = DeviceParams(hbar_omega0=5.0)
        J = self.check(device, [device.epsilon] * 2, [device.xi] * 2, [0, 1], [impurity], mode)
        assert J[0] == 0.0

    # The default full-mode exchange-tilt grid, clean and with the impurity:
    # J changes sign between 0.81 and 0.82 meV clean, 0.78 and 0.79 meV with
    # the impurity.
    def test_the_full_mode_tilt_grid_across_the_sign_change(self, params, impurity):
        eps = cli._parse_range("0:1:0.01")
        n = len(eps)
        J = self.check(params, eps + eps, [params.xi] * (2 * n), [0] * n + [1] * n, [impurity],
                       AssemblyMode.FULL)
        for half, at in ((J[:n], 0.81), (J[n:], 0.78)):
            k = eps.index(at)
            assert half[k] < 0 < half[k + 1]
            assert np.count_nonzero(np.diff(np.sign(half))) == 1

    @pytest.mark.parametrize("mode", list(AssemblyMode))
    def test_crosscheck_devices_clean_and_with_an_impurity(self, mode):
        rng = np.random.default_rng(0)
        for _ in range(8):
            device = sample_device(rng)
            imp = sample_impurity(rng, device.a)
            self.check(device, [device.epsilon] * 2, [device.xi] * 2, [0, 1], [imp], mode)

    def test_an_empty_stack(self, params):
        assert self.check(params, [], []).shape == (0,)


def sometimes_non_finite(low, high):
    """A control value in [low, high], or now and then NaN or an infinity."""
    return st.one_of(st.floats(low, high), st.sampled_from([math.nan, math.inf, -math.inf]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOneAnswerPerPoint:
    """solve_stack answers for every point it is given: J, the levels and
    E_T0 where the point solves, NaN where it fails, and the failure map; the
    one-point calls agree with it bit for bit and hand the eigen step one
    matrix each."""

    KNOWN = re.compile(r"(epsilon|xi) must be finite, got (nan|inf|-inf)|matrix has a non-finite"
                       r" entry|matrix off-diagonal norm overflows|"
                       r"Impurity\(.*\): its matrix elements overflow")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), with_impurity=st.booleans(),
           points=st.lists(st.tuples(sometimes_non_finite(-1.0, 1.0),
                                     sometimes_non_finite(0.0, 1.5), st.booleans()),
                           min_size=1, max_size=6),
           mode=st.sampled_from(list(AssemblyMode)))
    def test_each_point_is_answered_alone(self, seed, with_impurity, points, mode):
        rng = np.random.default_rng(seed)
        device = sample_device(rng)
        impurities = [sample_impurity(rng, device.a)] if with_impurity else []
        epsilon, xi, dirty = zip(*points)
        rows = [int(d and with_impurity) for d in dirty]
        J, evals, t0, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, impurities,
                                                       mode)
        assert J.shape == t0.shape == (len(points),) and evals.shape == (len(points), 4)
        bad = np.isin(np.arange(len(points)), list(failed))
        assert np.array_equal(np.isnan(J), bad) and np.array_equal(np.isnan(t0), bad)
        assert np.array_equal(np.isnan(evals), np.repeat(bad[:, None], 4, axis=1))
        for exc in failed.values():
            assert type(exc) is ValueError and self.KNOWN.fullmatch(str(exc)), exc
        for k in np.flatnonzero(~bad).tolist():
            point = dataclasses.replace(device, epsilon=epsilon[k], xi=xi[k])
            point_imp = impurities[0] if rows[k] else None
            alone = solve(point, point_imp, mode)
            assert same_bits((alone.eigenvalues, [alone.J, alone.t0_energy]),
                             (evals[k], [J[k], t0[k]]))
            assert same_bits([exchange_J_ghz(point, point_imp, mode)], [J[k] * MEV_TO_GHZ])

    # The supported devices: sample_device's grid (a = 100 nm, a/a_B in
    # [0.5, 3]), widened to a up to 300 nm and hbar_omega0 up to 5 meV.
    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(100.0, 300.0),
           hbar_omega0=st.floats(2.0 * HBAR2_OVER_2ME / 0.067 / 200.0**2, 5.0),
           seed=st.integers(0, 2**32 - 1),
           points=st.lists(st.tuples(sometimes_non_finite(-1.0, 1.0),
                                     sometimes_non_finite(0.0, 1.5), st.booleans()),
                           min_size=1, max_size=4),
           mode=st.sampled_from(list(AssemblyMode)))
    def test_a_supported_device_gives_a_finite_j_or_a_named_error(self, a, hbar_omega0, seed,
                                                                   points, mode):
        device = DeviceParams(a=a, hbar_omega0=hbar_omega0)
        imp = sample_impurity(np.random.default_rng(seed), a)
        epsilon, xi, dirty = zip(*points)
        rows = [int(d) for d in dirty]
        J, _, _, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, [imp], mode)
        for k in range(len(points)):
            point = (dataclasses.replace(device, epsilon=epsilon[k], xi=xi[k]),
                     imp if rows[k] else None, mode)
            if k in failed:
                assert type(failed[k]) is ValueError and self.KNOWN.fullmatch(str(failed[k]))
                with pytest.raises(ValueError, match=re.escape(str(failed[k]))):
                    solve(*point)
            else:
                assert math.isfinite(J[k]) and same_bits([solve(*point).J], [J[k]])

    # solve and exchange_J_ghz each hand the eigen step their one matrix once.
    @pytest.mark.parametrize("call,shape", [(solve, (1, 4, 4)), (exchange_J_ghz, (1, 4, 4))])
    def test_a_one_point_call_runs_jacobi_once(self, call, shape, impurity, eigen_stacks):
        stacks = eigen_stacks()
        call(DeviceParams(epsilon=0.3), impurity)
        assert [H.shape for H in stacks] == [shape]

    # perfbench's tracer times hamiltonian.jacobi_eigh by its module name:
    # each call takes its levels from it, once per stack (only jacobi_eigh
    # rotates, TestStackedJacobi).
    @pytest.mark.parametrize("call,shapes", [
        (lambda imp: solve(DeviceParams(epsilon=0.3), imp), [(1, 4, 4)]),
        (lambda imp: exchange_J_ghz(DeviceParams(epsilon=0.3), imp), [(1, 4, 4)]),
        (lambda imp: hamiltonian.solve_stack(DeviceParams(), [0.0, 0.3, math.nan], [1.3] * 3,
                                             [0, 1, 1], [imp]), [(2, 4, 4)]),
        (lambda imp: cli.main(["noise-compare", "--points", "5", "--out", os.devnull]), None),
    ], ids=["solve", "exchange_J_ghz", "solve_stack", "cli-noise-compare"])
    def test_the_levels_come_from_jacobi_eigh(self, call, shapes, impurity, eigen_stacks):
        stacks = eigen_stacks()
        call(impurity)
        assert stacks
        assert shapes is None or [H.shape for H in stacks] == shapes

    def test_in_ghz_names_only_a_j_that_overflows(self):
        # A failed point's NaN is no J: it is NaN in GHz, and unnamed.
        ghz, over = hamiltonian.in_ghz(np.array([math.nan, 1e307, 1.0]))
        assert same_bits([ghz], [[math.nan, math.nan, MEV_TO_GHZ]])
        assert {k: str(exc) for k, exc in over.items()} == {1: "J = 1e+307 meV overflows in GHz"}


class TestSolve:
    def test_default_exchange_truncated_mode(self, params):
        res = solve(params)
        assert res.J == pytest.approx(J0_MEV, rel=1e-12)
        assert exchange_J_ghz(params) == pytest.approx(J0_GHZ, rel=1e-12)
        np.testing.assert_allclose(res.eigenvalues, PAPER_EVALS, rtol=1e-12)
        # Clean, untilted: the decoupled state sits exactly at U12.
        assert res.t0_energy == pytest.approx(U_12, rel=1e-14)
        assert res.J == solve(params, mode=AssemblyMode.PAPER).J  # the default mode

    def test_a_j_that_overflows_in_ghz_is_a_named_error(self):
        # J = 1e307 meV is finite; in GHz it is not.
        assert solve(DeviceParams(epsilon=1e307)).J == 1e307
        with pytest.raises(ValueError, match=r"^J = 1e\+307 meV overflows in GHz$"):
            exchange_J_ghz(DeviceParams(epsilon=1e307))

    def test_default_exchange_full_mode(self, params):
        res = solve(params, mode=AssemblyMode.FULL)
        assert res.J == pytest.approx(J_FULL_MEV, rel=1e-12)
        assert res.J < 0.0  # correction terms invert the splitting here
        np.testing.assert_allclose(res.eigenvalues, FULL_EVALS, rtol=1e-12)

    def test_signed_j_tracks_t0_minus_lowest_singlet(self, params):
        for mode in (AssemblyMode.PAPER, AssemblyMode.FULL):
            res = solve(params, mode=mode)
            others = [e for e in res.eigenvalues
                      if abs(e - res.t0_energy) > 1e-15]
            assert res.J == pytest.approx(res.t0_energy - min(others), abs=1e-15)

    # The x mirror of a clean device swaps its dots (TestMirrors).
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(AssemblyMode)))
    def test_clean_exchange_is_even_in_detuning(self, seed, mode):
        device = sample_device(np.random.default_rng(seed))
        plus = solve(device, mode=mode).J
        minus = solve(dataclasses.replace(device, epsilon=-device.epsilon), mode=mode).J
        # abs floor: J is a difference of ~1 meV eigenvalues, so it
        # carries ~1e-15 meV of roundoff regardless of its own size.
        assert minus == pytest.approx(plus, rel=1e-10, abs=1e-15)

    def test_exchange_grows_with_tilt_and_shrinks_with_barrier(self):
        tilts = [solve(DeviceParams(epsilon=e)).J for e in (0.0, 0.2, 0.4, 0.6)]
        assert all(b > a for a, b in zip(tilts, tilts[1:]))
        barriers = [solve(DeviceParams(xi=x)).J for x in (0.5, 0.8, 1.1, 1.3)]
        assert all(b < a for a, b in zip(barriers, barriers[1:]))

    def test_global_energy_shift_leaves_exchange_unchanged(self, impurity):
        # Shifting the one-body operator by c*S only moves the trace: the
        # common level takes the shift and every other parameter stays.
        point = DeviceParams(epsilon=0.37, xi=1.1)
        ref = fresh_model(point, impurity)._asdict()
        moved = fresh_model(point, impurity, 3.7)._asdict()
        assert moved.pop("offset") - ref.pop("offset") == pytest.approx(3.7, rel=0, abs=1e-12)
        for name, value in ref.items():
            assert moved[name] == pytest.approx(value, rel=0, abs=1e-12), name


class TestMirrors:
    """The device is symmetric under y -> -y, and under x -> -x, which swaps
    its dots and so turns epsilon into -epsilon: an impurity at (x, y) and
    one at (x, -y), or one at (-x, y) at the mirrored detuning, give the same
    J.  Over sampled devices and impurities, in both modes."""

    @staticmethod
    def sampled(seed):
        rng = np.random.default_rng(seed)
        device = sample_device(rng)
        return device, sample_impurity(rng, device.a)

    @pytest.mark.parametrize("mode", list(AssemblyMode))
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_y_mirror_changes_no_bit(self, mode, seed):
        device, imp = self.sampled(seed)
        mirrored = Impurity(imp.x_c, -imp.y_c, imp.q)
        assert same_bits(hubbard_parameters(device, mirrored), hubbard_parameters(device, imp))
        for scheme, value in (("tilt", device.epsilon), ("barrier", device.xi)):
            # J_clean, J_imp, delta_J and rel_noise
            assert same_bits(noise.delta_J(scheme, value, device, mirrored, mode)[2:],
                             noise.delta_J(scheme, value, device, imp, mode)[2:])

    # Not to the bit today: the mirrored model's swapped fields differ in
    # their last bits (U1 - U2 = -2.2e-16 meV on the default device), and
    # Jacobi rounds the two matrices differently.  Over 6,000 sampled points
    # the two J were at most 1.2e-15 max|H| apart, which away from J = 0 is
    # a relative bound: 4e-10 where |J| >= 1e-5 max|H| (the worst seen there
    # was 2.3e-11).  An exact J and a mirror-exact model (ROADMAP items 2
    # and 4) tighten it to bits.
    @pytest.mark.parametrize("mode", list(AssemblyMode))
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_x_mirror_holds_to_a_bound(self, mode, seed):
        device, imp = self.sampled(seed)
        mirrored = Impurity(-imp.x_c, imp.y_c, imp.q)
        hp = hubbard_parameters(device, imp)
        J = solve(device, imp, mode).J
        assume(abs(J) >= 1e-5 * np.abs(assemble_matrix(hp, mode)).max())
        J_mirrored = solve(dataclasses.replace(device, epsilon=-device.epsilon), mirrored, mode).J
        assert abs(J_mirrored - J) <= 4e-10 * abs(J)
        # A mirror test alone cannot see where the impurity is, only that
        # both sides agree: flipping every x_c is itself a mirror.  So the
        # orientation is checked too: the impurity shifts the level of the
        # dot it is nearer the more (dot 1 sits at x = -a), and its image
        # the other dot's.
        mirrored_hp = hubbard_parameters(device, mirrored)
        for point, model in ((imp, hp), (mirrored, mirrored_hp)):
            assert (model.Zt1 - model.Zt2) * point.x_c * point.q >= 0.0


class TestDeviceBuiltOnce:
    """hubbard_parameters builds each device once and applies the controls
    on top; that must agree with an uncached build of the device."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.floats(-1.0, 1.0),
           xi=st.floats(0.0, 1.5), with_impurity=st.booleans())
    def test_matches_a_build_from_scratch(self, seed, eps, xi, with_impurity):
        rng = np.random.default_rng(seed)
        device = sample_device(rng)
        imp = sample_impurity(rng, device.a) if with_impurity else None
        # The second point of the same device reuses the first one's build.
        for point in (dataclasses.replace(device, epsilon=eps, xi=xi),
                      dataclasses.replace(device, epsilon=-eps, xi=1.5 - xi)):
            got = hubbard_parameters(point, imp)._asdict()
            for name, value in fresh_model(point, imp)._asdict().items():
                assert got[name] == pytest.approx(value, rel=0, abs=1e-14), name

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.floats(-1.0, 1.0),
           xi=st.floats(0.0, 1.5))
    def test_alternating_impurities_are_never_stale(self, seed, eps, xi):
        # Impurity A, then B, then A again on one device: each matrix comes
        # from its own impurity, whatever the previous call built.
        rng = np.random.default_rng(seed)
        device = sample_device(rng)
        imp_a = sample_impurity(rng, device.a)
        imp_b = sample_impurity(rng, device.a)
        for imp in (imp_a, imp_b, imp_a):
            for point in (dataclasses.replace(device, epsilon=eps, xi=xi),
                          dataclasses.replace(device, epsilon=-eps, xi=1.5 - xi)):
                got = hubbard_parameters(point, imp)._asdict()
                for name, value in fresh_model(point, imp)._asdict().items():
                    assert got[name] == pytest.approx(value, rel=0, abs=1e-14), name


class TestPerturbativeEstimate:
    def test_matches_exact_at_weak_coupling(self, params):
        hp = hubbard_parameters(params)
        est = hubbard_exchange_estimate(hp)
        assert est == pytest.approx(ESTIMATE_MEV, rel=1e-12)
        assert est == pytest.approx(J0_MEV, rel=5e-3)

    def test_improves_as_hopping_shrinks(self, params):
        hp = hubbard_parameters(params)
        errs = []
        for f in (1.0, 0.5, 0.25):
            small = hp._replace(t=hp.t * f)
            exact = exact_solve(assemble_matrix(small, AssemblyMode.PAPER))[1]
            errs.append(abs(hubbard_exchange_estimate(small) - exact) / exact)
        assert errs[0] > errs[1] > errs[2]

    def test_raises_on_charge_transfer_pole(self):
        hp = HubbardParams(
            t=0.01, U1=1.0, U2=1.0, U12=0.5, mu1=-0.25, mu2=0.25,
            Zt1=0.0, Zt2=0.0, Zt12=0.0, exchange_k=0.0,
            corr_hop1=0.0, corr_hop2=0.0, offset=0.0)
        assert hp.delta_u == pytest.approx(0.5)
        assert hp.detuning == pytest.approx(0.5)
        with pytest.raises(ZeroDivisionError, match="pole"):
            hubbard_exchange_estimate(hp)
