"""Tests for the two-electron model assembly and eigensolver."""
import dataclasses
import functools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    jacobi_eigh,
    solve,
)
from dqdsim import cli, hamiltonian, noise
from dqdsim.crosscheck import fresh_model, sample_device, sample_impurity
from dqdsim.model import MEV_TO_GHZ

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
    if not np.allclose(A, A.T, rtol=0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    A = 0.5 * (A + A.T)
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


def lone_solve(H):
    """lone_jacobi's eigenpairs of H and J by the T0-overlap rule: the level
    whose eigenvector overlaps T0 most, minus the lowest of the others."""
    evals, evecs = lone_jacobi(H)
    levels = evals.tolist()
    j = levels.pop(int(np.argmax(np.abs(T0_VECTOR @ evecs))))
    return evals, evecs, j - min(levels)


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


class TestJacobiEigensolver:
    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_eigenvalues_are_charpoly_roots(self, seed):
        # Independent route: Faddeev-LeVerrier gives the characteristic
        # polynomial from traces; every reported eigenvalue must be a
        # root of it, within the polynomial's own conditioning.
        A = random_symmetric(seed)
        evals, _ = jacobi_eigh(A)
        coeffs = charpoly_coefficients(A)
        for lam in evals:
            p = float(np.polyval(coeffs, lam))
            scale = float(np.polyval(np.abs(coeffs), abs(lam)))
            assert abs(p) < 1e-12 * max(scale, 1.0)

    def test_well_separated_spectrum_matches_polynomial_roots(self):
        A = np.diag([1.0, 2.0, 3.0, 5.0]) + 0.1 * random_symmetric(7)
        evals, _ = jacobi_eigh(A)
        roots = np.sort(np.roots(charpoly_coefficients(A)).real)
        np.testing.assert_allclose(evals, roots, rtol=1e-10)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_decomposition_identities(self, seed):
        A = random_symmetric(seed, scale=3.0)
        evals, V = jacobi_eigh(A)
        n = A.shape[0]
        scale = max(1.0, float(np.abs(A).max()))
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-13
        assert np.max(np.abs(A @ V - V @ np.diag(evals))) < 1e-12 * scale
        assert np.all(np.diff(evals) >= 0.0)
        assert float(np.sum(evals)) == pytest.approx(float(np.trace(A)), abs=1e-12 * scale)
        assert float(np.prod(evals)) == pytest.approx(
            float(np.linalg.det(A)), abs=1e-11 * scale**n)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_bit_reproducible(self):
        A = random_symmetric(123)
        e1, v1 = jacobi_eigh(A)
        e2, v2 = jacobi_eigh(A)
        assert np.array_equal(e1, e2) and np.array_equal(v1, v2)


# numpy's floating-point warnings are RuntimeWarnings.  Only they are made
# errors here, and pyproject.toml exempts the DeprecationWarning that
# hypothesis's failure report trips, which as an error would abort the run.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedJacobi:
    """Every matrix of a stack takes exactly the rotations it takes alone."""

    def check_stack(self, stack):
        evals, evecs = jacobi_eigh(np.array(stack))
        for A, e, v in zip(stack, evals, evecs):
            assert same_bits((e, v), jacobi_eigh(A))
            assert same_bits((e, v), lone_jacobi(A))

    def test_sweep_counts_are_as_named(self):
        for sweeps, matrices in matrices_by_sweeps().items():
            assert [sweeps_to_converge(A) for A in matrices] == [sweeps] * 3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(sorted(MATRIX_KINDS)), min_size=1, max_size=9))
    def test_each_matrix_matches_its_lone_solve(self, seed, kinds):
        rng = np.random.default_rng(seed)
        self.check_stack([MATRIX_KINDS[k](rng) for k in kinds])

    def test_every_kind_in_one_stack(self):
        rng = np.random.default_rng(2)
        stack = [make(rng) for make in MATRIX_KINDS.values() for _ in range(3)]
        self.check_stack(stack)
        self.check_stack(stack[::-1])

    def test_matrices_leave_while_another_skips_a_pair(self):
        # The 3x3 block never couples to the last level, so its pairs (0, 3),
        # (1, 3) and (2, 3) are skipped at every one of its 4 sweeps, while
        # the others leave the stack after 2, 3 and 4 sweeps: the masked
        # rotations run on a stack that has lost matrices.
        block = np.zeros((4, 4))
        block[:3, :3], block[3, 3] = random_symmetric(0, n=3), 0.5
        assert sweeps_to_converge(block) == 4
        stack = [matrices_by_sweeps()[k][0] for k in (2, 3, 4)] + [block]
        self.check_stack(stack)
        self.check_stack(stack[::-1])

    # One call of each kind: calibrations in lockstep, one device with
    # impurities, and a full-mode sweep with its zoom block.
    @pytest.mark.parametrize("argv", [["noise-compare", "--points", "5"],
                                      ["impurity-scan", "--radii", "1.5,6,20"],
                                      ["exchange-barrier", "--mode", "full"]])
    def test_every_stack_of_a_cli_call_matches_lone_solves(self, argv, monkeypatch, tmp_path):
        solved, rotated = [], []
        real_solve, real_rotate = hamiltonian.solve_stack, hamiltonian._rotate
        for module in (cli, noise):
            monkeypatch.setattr(module, "solve_stack", lambda *args: solved.append(
                (args, real_solve(*args))) or solved[-1][1])
        monkeypatch.setattr(hamiltonian, "_rotate",
                            lambda av, n: rotated.append(len(av)) or real_rotate(av, n))
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert solved and rotated == [len(J) for _, (J, _, _) in solved]
        for args, (J, evals, failed) in solved:
            assert failed == {}
            for A, e, j in zip(built_matrices(*args), evals, J):
                want_e, _, want_j = lone_solve(A)
                assert same_bits((e, [j]), (want_e, [want_j]))

    def test_a_matrix_at_the_threshold_is_not_rotated(self):
        A = at_the_threshold(None)
        assert sweeps_to_converge(A) == 0
        self.check_stack([A, random_symmetric(1)])

    def test_a_converged_matrix_keeps_its_negative_zero(self):
        A = np.diag([-0.0, 1.0, 2.0, 3.0])
        evals, _ = jacobi_eigh(np.array([A, random_symmetric(1)]))
        assert math.copysign(1.0, evals[0, 0]) == -1.0

    def test_stack_with_an_asymmetric_matrix_is_rejected(self):
        bad = random_symmetric(2)
        bad[0, 1] += 1e-3
        with pytest.raises(ValueError, match="matrix must be symmetric"):
            jacobi_eigh(np.array([random_symmetric(1), bad]))

    def test_a_tiny_asymmetry_is_accepted(self):
        # Off by 1e-13 of the largest entry: within the check's 1e-12, so the
        # matrix is solved as its symmetric part, as before the exact test.
        A = 5.0 * random_symmetric(4)
        A[0, 2] += 1e-13 * np.abs(A).max()
        evals, evecs = jacobi_eigh(np.array([random_symmetric(1), A]))
        assert same_bits((evals[1], evecs[1]), lone_jacobi(A))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 3)])
    def test_a_nan_matrix_is_rejected(self, entry):
        bad = random_symmetric(2)
        bad[entry] = bad[entry[::-1]] = math.nan
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            jacobi_eigh(np.array([random_symmetric(1), bad]))

    def test_an_infinite_matrix_is_rejected(self):
        # Symmetric, so only its infinite entries can reject it; solved, it
        # came back as diag(1, 2, 3, 4) with the identity.
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        A[0, 1] = A[1, 0] = math.inf
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            jacobi_eigh(A)
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            jacobi_eigh(np.array([random_symmetric(1), A]))

    def test_an_overflowing_off_diagonal_norm_is_rejected(self):
        # Two pairs at 1e154 square to past the largest float, so Jacobi's
        # convergence test could never pass; one pair, or a huge diagonal,
        # is solved as a lone loop solves it, unwarned.
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        A[0, 1] = A[1, 0] = 1e154
        huge = np.diag([1e300, -1e300, 3.0, 4.0])
        huge[0, 1] = huge[1, 0] = 1.0
        self.check_stack([A, huge])
        A[2, 3] = A[3, 2] = 1e154
        with pytest.raises(ValueError, match="matrix off-diagonal norm overflows"):
            jacobi_eigh(A)
        with pytest.raises(ValueError, match="matrix off-diagonal norm overflows"):
            jacobi_eigh(np.array([huge, A]))
        A[0, 0] = math.nan
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            jacobi_eigh(A)

    def test_a_non_finite_entry_is_named_before_an_asymmetry(self):
        # A NaN on one side only is both; a stack names its first bad matrix.
        lopsided = random_symmetric(2)
        lopsided[0, 1] = math.nan
        skew = random_symmetric(3)
        skew[0, 1] += 1e-3
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            jacobi_eigh(lopsided)
        with pytest.raises(ValueError, match="matrix must be symmetric"):
            jacobi_eigh(np.array([skew, lopsided]))

    def test_an_exactly_symmetric_stack_is_not_scanned(self, monkeypatch):
        stack = np.array([random_symmetric(k) for k in range(5)])
        want = jacobi_eigh(stack)

        def scan(*args, **kwargs):
            raise AssertionError("tolerance scan of an exactly symmetric stack")
        monkeypatch.setattr(np, "isclose", scan)
        assert same_bits(jacobi_eigh(stack), want)

    def test_shapes(self):
        A = random_symmetric(3)
        evals, evecs = jacobi_eigh(A)
        assert evals.shape == (4,) and evecs.shape == (4, 4)
        evals, evecs = jacobi_eigh(np.array([A, A]))
        assert evals.shape == (2, 4) and evecs.shape == (2, 4, 4)

    # A 1x1 matrix has no pair to rotate: it is its own eigenvalue, with the
    # eigenvector [1], however large, and a non-finite one is still named.
    @pytest.mark.parametrize("entry", [2.0, -0.0, 1e200, -1e300])
    def test_a_1x1_matrix_is_its_own_eigenvalue(self, entry):
        assert same_bits(jacobi_eigh([[entry]]), (np.array([entry]), np.array([[1.0]])))
        evals, evecs = jacobi_eigh(np.full((3, 1, 1), entry))
        assert same_bits((evals, evecs), (np.full((3, 1), entry), np.ones((3, 1, 1))))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_a_non_finite_1x1_matrix_is_rejected(self, entry):
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            jacobi_eigh(np.array([[[1.0]], [[entry]]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (), (0, 0), (2, 0, 0), (2, 3, 4),
                                       (1, 1, 1, 1)])
    def test_a_shape_that_is_no_square_matrix_is_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected an (n, n) matrix or an (N, n, n) stack, got shape {shape}")):
            jacobi_eigh(np.zeros(shape))


@pytest.mark.filterwarnings("error")
class TestSolveMany:
    """solve_stack on many points of one device, and solve on each alone."""

    # Both signs of J, the charge-transfer pole (dU = 0.78 meV), no barrier
    # and a high one, and a sampled device.
    POINTS = [(0.0, 1.3), (0.37, 1.1), (-0.5, 0.6), (0.9, 1.3), (0.75, 1.3),
              (-0.78, 0.9), (1.4, 0.0), (0.05, 1.5), (0.0, 0.3)]

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_each_point_matches_a_lone_solve(self, impurity, mode):
        for device in (DeviceParams(), sample_device(np.random.default_rng(4))):
            points = [(dataclasses.replace(device, epsilon=e, xi=x), imp)
                      for e, x in self.POINTS for imp in (None, impurity)]
            stack = (device, [p.epsilon for p, _ in points], [p.xi for p, _ in points],
                     [0, 1] * len(self.POINTS), [impurity], mode)
            kernel_J, kernel_evals, failed = hamiltonian.solve_stack(*stack)
            assert failed == {}
            stacked = built_matrices(*stack)
            for k, (params, imp) in enumerate(points):
                # The solve of one point as a plain loop over one matrix, and
                # J as the T0 level minus the lowest of the others.
                hp = hubbard_parameters(params, imp)
                H = assemble_matrix(hp, mode)
                evals, evecs, j_lone = lone_solve(H)
                res = solve(params, imp, mode)
                assert same_bits((res.eigenvalues, res.eigenvectors), (evals, evecs))
                assert same_bits([res.J], [j_lone]) and type(res.J) is float
                # T0's energy is its exact eigenvalue, as solve_stack takes it.
                assert same_bits([res.t0_energy], [H[1, 1] - H[1, 2]])
                assert same_bits((stacked[k], kernel_evals[k], [kernel_J[k]]),
                                 (H, evals, [j_lone]))

    def test_a_failing_point_fails_alone(self, monkeypatch):
        # A NaN and an asymmetric matrix among good ones, then a bad device.
        # assemble_matrix builds the device's points as one stack.
        real = hamiltonian.assemble_matrix

        def corrupted(hp, mode=AssemblyMode.PAPER):
            H = real(hp, mode)
            H[np.isclose(hp.detuning, 0.1), 0, 0] = math.nan
            H[np.isclose(hp.detuning, 0.3), 0, 1] += 1e-3
            return H

        expected = [solve(DeviceParams(epsilon=e)) for e in (0.0, 0.2)]
        monkeypatch.setattr(hamiltonian, "assemble_matrix", corrupted)
        J, evals, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.1, 0.2, 0.3], [1.3] * 4)
        assert {k: (type(exc), str(exc)) for k, exc in failed.items()} == {
            1: (ValueError, "matrix has a non-finite entry"),
            3: (ValueError, "matrix must be symmetric")}
        assert np.isnan(J[[1, 3]]).all() and np.isnan(evals[[1, 3]]).all()
        for k, want in zip((0, 2), expected):
            assert same_bits((evals[k],), (want.eigenvalues,))
            assert J[k] == want.J
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            solve(DeviceParams(epsilon=0.1))
        with pytest.raises(ValueError, match="m_eff must be positive and finite"):
            hamiltonian.solve_stack(DeviceParams(m_eff=-0.067), [0.0], [1.3])

    def test_only_the_asymmetric_point_of_a_stack_fails(self, monkeypatch):
        # Off by 1e-3, point 1 fails; off by 1e-13 of its largest entry,
        # point 2 is solved as its symmetric part.
        real, built = hamiltonian.assemble_matrix, []

        def corrupted(hp, mode=AssemblyMode.PAPER):
            H = real(hp, mode)
            H[1, 0, 1] += 1e-3
            H[2, 0, 1] += 1e-13 * np.abs(H[2]).max()
            built.append(H)
            return H
        monkeypatch.setattr(hamiltonian, "assemble_matrix", corrupted)
        J, evals, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.1, 0.2, 0.3], [1.3] * 4)
        assert list(failed) == [1] and str(failed[1]) == "matrix must be symmetric"
        assert np.isnan(J[1]) and np.isnan(evals[1]).all()
        kept = [0, 2, 3]
        for A, e, j in zip(built[0][kept], evals[kept], J[kept]):
            want_e, _, want_j = lone_solve(A)
            assert same_bits((e, [j]), (want_e, [want_j]))

    def test_an_infinite_point_of_a_stack_fails_alone(self, monkeypatch):
        real, built = hamiltonian.assemble_matrix, []

        def corrupted(hp, mode=AssemblyMode.PAPER):
            H = real(hp, mode)
            H[1, 0, 1] = H[1, 1, 0] = math.inf
            built.append(H)
            return H
        monkeypatch.setattr(hamiltonian, "assemble_matrix", corrupted)
        J, evals, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.1, 0.2], [1.3] * 3)
        assert list(failed) == [1] and str(failed[1]) == "matrix has a non-finite entry"
        assert np.isnan(J[1]) and np.isnan(evals[1]).all()
        kept = [0, 2]
        for A, e, j in zip(built[0][kept], evals[kept], J[kept]):
            want_e, _, want_j = lone_solve(A)
            assert same_bits((e, [j]), (want_e, [want_j]))

    def test_an_overflowing_point_of_a_stack_fails_alone(self):
        # Its hop is about 1e300 meV; a detuning of 1e160 meV only sits on
        # the diagonal, and is solved.
        J, evals, failed = hamiltonian.solve_stack(
            DeviceParams(), [0.0, 0.0, 1e160], [1.3, 1e300, 1.3])
        assert list(failed) == [1] and str(failed[1]) == "matrix off-diagonal norm overflows"
        assert np.isnan(J[1]) and np.isnan(evals[1]).all()
        for k, params in ((0, DeviceParams()), (2, DeviceParams(epsilon=1e160))):
            alone = solve(params)
            assert same_bits((evals[k], J[k]), (alone.eigenvalues, alone.J))
        with pytest.raises(ValueError, match="matrix off-diagonal norm overflows"):
            solve(DeviceParams(xi=1e300))

    def test_no_points(self):
        J, evals, failed = hamiltonian.solve_stack(DeviceParams(), [], [])
        assert failed == {}
        assert (evals.shape, J.shape) == ((0, 4), (0,))


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
            J, evals, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, imps[1:], mode)
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
            J, evals, failed = hamiltonian.solve_stack(DeviceParams(), *stack)
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
    H11 - H12.  Where that pick is hardest, each J equals, bit for bit, the
    J of the T0-overlap rule on lone_jacobi's eigenvectors."""

    @staticmethod
    def check(device, epsilon, xi, rows=None, impurities=(), mode=AssemblyMode.PAPER):
        J, evals, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, impurities, mode)
        assert failed == {} and len(J) == len(epsilon)
        H = built_matrices(device, epsilon, xi, rows, impurities, mode)
        for A, e, j in zip(H, evals, J.tolist()):
            want_e, _, want_j = lone_solve(A)
            assert same_bits((e, [j]), (want_e, [want_j]))
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
    """solve_stack answers for every point it is given: J and the levels
    where the point solves, NaN where it fails, and the failure map; the
    one-point calls agree with it bit for bit and run Jacobi once each."""

    KNOWN = re.compile(r"(epsilon|xi) must be finite, got (nan|inf|-inf)|matrix has a non-finite"
                       r" entry|matrix off-diagonal norm overflows|matrix must be symmetric|"
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
        J, evals, failed = hamiltonian.solve_stack(device, epsilon, xi, rows, impurities, mode)
        assert J.shape == (len(points),) and evals.shape == (len(points), 4)
        bad = np.isin(np.arange(len(points)), list(failed))
        assert np.array_equal(np.isnan(J), bad)
        assert np.array_equal(np.isnan(evals), np.repeat(bad[:, None], 4, axis=1))
        for exc in failed.values():
            assert type(exc) is ValueError and self.KNOWN.fullmatch(str(exc)), exc
        for k in np.flatnonzero(~bad).tolist():
            point = dataclasses.replace(device, epsilon=epsilon[k], xi=xi[k])
            point_imp = impurities[0] if rows[k] else None
            assert same_bits([J[k]], [solve(point, point_imp, mode).J])
            assert same_bits([exchange_J_ghz(point, point_imp, mode)], [J[k] * MEV_TO_GHZ])

    # solve rotates its matrix with its eigenvector rows, exchange_J_ghz the
    # matrix alone; each does so once.
    @pytest.mark.parametrize("call,shape", [(solve, (1, 8, 4)), (exchange_J_ghz, (1, 4, 4))])
    def test_a_one_point_call_runs_jacobi_once(self, call, shape, impurity, monkeypatch):
        rotated, real = [], hamiltonian._rotate
        monkeypatch.setattr(hamiltonian, "_rotate",
                            lambda av, n: rotated.append(av.shape) or real(av, n))
        call(DeviceParams(epsilon=0.3), impurity)
        assert rotated == [shape]

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

    @settings(max_examples=30, deadline=None)
    @given(eps=st.floats(0.0, 1.0), xi=st.floats(0.3, 1.5))
    def test_clean_exchange_is_even_in_detuning(self, eps, xi):
        plus = solve(DeviceParams(epsilon=eps, xi=xi)).J
        minus = solve(DeviceParams(epsilon=-eps, xi=xi)).J
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
            H = assemble_matrix(small, AssemblyMode.PAPER)
            evals, evecs = jacobi_eigh(H)
            i = int(np.argmax(np.abs(T0_VECTOR @ evecs)))
            exact = float(evals[i]) - float(np.min(np.delete(evals, i)))
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
