"""Tests for the two-electron model assembly and eigensolver."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim import (
    AssemblyMode,
    DeviceParams,
    HubbardParams,
    T0_VECTOR,
    assemble_matrix,
    build_basis,
    build_tables,
    exchange_J,
    exchange_J_ghz,
    hubbard_exchange_estimate,
    hubbard_parameters,
    jacobi_eigh,
    overlap_matrix,
    solve,
)
from dqdsim.crosscheck import sample_device, sample_impurity
from dqdsim.hamiltonian import hubbard_from_tables

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
        assert hp.t_eff() == pytest.approx(T_HOP, rel=1e-13)

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


class TestSolve:
    def test_default_exchange_truncated_mode(self, params):
        res = solve(params)
        assert res.J == pytest.approx(J0_MEV, rel=1e-12)
        assert exchange_J_ghz(params) == pytest.approx(J0_GHZ, rel=1e-12)
        np.testing.assert_allclose(res.eigenvalues, PAPER_EVALS, rtol=1e-12)
        # Clean, untilted: the decoupled state sits exactly at U12.
        assert res.t0_energy == pytest.approx(U_12, rel=1e-14)
        assert res.mode == AssemblyMode.PAPER

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
        plus = exchange_J(DeviceParams(epsilon=eps, xi=xi))
        minus = exchange_J(DeviceParams(epsilon=-eps, xi=xi))
        # abs floor: J is a difference of ~1 meV eigenvalues, so it
        # carries ~1e-15 meV of roundoff regardless of its own size.
        assert minus == pytest.approx(plus, rel=1e-10, abs=1e-15)

    def test_exchange_grows_with_tilt_and_shrinks_with_barrier(self):
        tilts = [exchange_J(DeviceParams(epsilon=e)) for e in (0.0, 0.2, 0.4, 0.6)]
        assert all(b > a for a, b in zip(tilts, tilts[1:]))
        barriers = [exchange_J(DeviceParams(xi=x)) for x in (0.5, 0.8, 1.1, 1.3)]
        assert all(b < a for a, b in zip(barriers, barriers[1:]))

    def test_global_energy_shift_leaves_exchange_unchanged(self, basis, impurity):
        # Shifting the one-body operator by c*S only moves the trace: the
        # common level takes the shift and every other parameter stays.
        point = DeviceParams(epsilon=0.37, xi=1.1)
        tables = build_tables(dataclasses.replace(point, epsilon=0.0), imp=impurity)
        shifted = dataclasses.replace(
            tables, confinement=tables.confinement + 3.7 * overlap_matrix(basis))
        ref = dataclasses.asdict(hubbard_from_tables(point, basis, tables))
        moved = dataclasses.asdict(hubbard_from_tables(point, basis, shifted))
        assert moved.pop("offset") - ref.pop("offset") == pytest.approx(3.7, rel=0, abs=1e-12)
        for name, value in ref.items():
            assert moved[name] == pytest.approx(value, rel=0, abs=1e-12), name


class TestDeviceBuiltOnce:
    """hubbard_parameters builds each device once and applies the controls
    on top; that must agree with a build of the tables from scratch."""

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
            fresh = hubbard_from_tables(point, build_basis(point), build_tables(
                dataclasses.replace(point, epsilon=0.0), imp=imp))
            got = dataclasses.asdict(hubbard_parameters(point, imp))
            for name, value in dataclasses.asdict(fresh).items():
                assert got[name] == pytest.approx(value, rel=0, abs=1e-14), name

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.floats(-1.0, 1.0),
           xi=st.floats(0.0, 1.5))
    def test_alternating_impurities_are_never_stale(self, seed, eps, xi):
        # Impurity A, then B, then A again on one device: each matrix comes
        # from its own impurity, whatever the previous call cached.
        rng = np.random.default_rng(seed)
        device = sample_device(rng)
        imp_a = sample_impurity(rng, device.a)
        imp_b = sample_impurity(rng, device.a)
        for imp in (imp_a, imp_b, imp_a):
            for point in (dataclasses.replace(device, epsilon=eps, xi=xi),
                          dataclasses.replace(device, epsilon=-eps, xi=1.5 - xi)):
                fresh = hubbard_from_tables(point, build_basis(point), build_tables(
                    dataclasses.replace(point, epsilon=0.0), imp=imp))
                got = dataclasses.asdict(hubbard_parameters(point, imp))
                for name, value in dataclasses.asdict(fresh).items():
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
            small = dataclasses.replace(hp, t=hp.t * f)
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
