"""Tests for the closed-form one- and two-body matrix elements."""
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim import (
    DeviceParams,
    Impurity,
    build_tables,
    coulomb_element,
    impurity_element,
    kinetic_element,
    potential_element,
)
from dqdsim import hamiltonian, integrals, orbitals
from dqdsim.crosscheck import sample_device, sample_impurity
from dqdsim.integrals import i0e, impurity_table
from dqdsim.model import derive_constants
from dqdsim.orbitals import build_basis

# Frozen from high-precision evaluation at the default device
# (a = 100 nm, hbar_omega0 = 0.1 meV, epsilon = 0, xi = 1.3) with the
# default impurity at (-600, 600) nm carrying charge -e.
KIN_00 = 0.05  # exactly hbar_omega0 / 2 for the oscillator ground state
KIN_01 = 0.002505683055263816
POT_00 = 0.12863274731335791
POT_01 = 0.06738021688237973
U_ONSITE = 1.2918176650340685      # (11|11)
U_INTERDOT = 0.6449712446980829    # (11|22)
EXCHANGE_RAW = 0.22257565281478114  # (12|12)
MIXED_RAW = 0.4356166515676744     # (11|12)
W_11 = 0.14140963816686766
W_22 = 0.11963096468007561
W_12 = 0.053987766523390456

IDX = st.integers(0, 1)
DEVICES = st.builds(
    DeviceParams,
    a=st.just(100.0),
    hbar_omega0=st.floats(0.02, 0.5),
    epsilon=st.floats(0.0, 1.0),
    xi=st.floats(0.0, 1.5),
)


class TestFrozenValues:
    def test_kinetic(self, params):
        assert kinetic_element(0, 0, params) == pytest.approx(KIN_00, rel=1e-13)
        assert kinetic_element(1, 1, params) == pytest.approx(KIN_00, rel=1e-13)
        assert kinetic_element(0, 1, params) == pytest.approx(KIN_01, rel=1e-13)

    def test_confinement(self, params):
        assert potential_element(0, 0, params) == pytest.approx(POT_00, rel=1e-13)
        # Untilted device: the two dots are equivalent.
        assert potential_element(1, 1, params) == pytest.approx(POT_00, rel=1e-13)
        assert potential_element(0, 1, params) == pytest.approx(POT_01, rel=1e-13)

    def test_coulomb(self, params):
        assert coulomb_element(0, 0, 0, 0, params) == pytest.approx(U_ONSITE, rel=1e-13)
        assert coulomb_element(0, 0, 1, 1, params) == pytest.approx(U_INTERDOT, rel=1e-13)
        assert coulomb_element(0, 1, 0, 1, params) == pytest.approx(EXCHANGE_RAW, rel=1e-13)
        assert coulomb_element(0, 0, 0, 1, params) == pytest.approx(MIXED_RAW, rel=1e-13)

    def test_impurity(self, params, impurity):
        assert impurity_element(0, 0, impurity, params) == pytest.approx(W_11, rel=1e-13)
        assert impurity_element(1, 1, impurity, params) == pytest.approx(W_22, rel=1e-13)
        assert impurity_element(0, 1, impurity, params) == pytest.approx(W_12, rel=1e-13)

    def test_repulsion_ordering(self):
        # Same-dot repulsion beats inter-dot repulsion beats the overlap term.
        assert U_ONSITE > U_INTERDOT > EXCHANGE_RAW > 0.0


class TestSymmetries:
    @settings(max_examples=40)
    @given(d=DEVICES, i=IDX, j=IDX)
    def test_kinetic_is_symmetric(self, d, i, j):
        assert kinetic_element(i, j, d) == pytest.approx(
            kinetic_element(j, i, d), rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(d=DEVICES, i=IDX, j=IDX, k=IDX, l=IDX)
    def test_coulomb_pair_symmetries(self, d, i, j, k, l):
        v = coulomb_element(i, j, k, l, d)
        assert coulomb_element(j, i, k, l, d) == pytest.approx(v, rel=1e-12)
        assert coulomb_element(i, j, l, k, d) == pytest.approx(v, rel=1e-12)
        assert coulomb_element(k, l, i, j, d) == pytest.approx(v, rel=1e-12)

    @settings(max_examples=30)
    @given(
        d=DEVICES,
        x=st.floats(-2000.0, 2000.0),
        y=st.floats(-2000.0, 2000.0),
    )
    def test_impurity_mirror_relations(self, d, x, y):
        here = Impurity(x_c=x, y_c=y)
        flipped_x = Impurity(x_c=-x, y_c=y)
        flipped_y = Impurity(x_c=x, y_c=-y)
        # The dots sit at (-a, 0) and (+a, 0): mirroring the charge in x
        # swaps the diagonal elements, mirroring in y changes nothing.
        assert impurity_element(0, 0, here, d) == pytest.approx(
            impurity_element(1, 1, flipped_x, d), rel=1e-12)
        assert impurity_element(0, 1, here, d) == pytest.approx(
            impurity_element(0, 1, flipped_x, d), rel=1e-12)
        for i in range(2):
            for j in range(2):
                assert impurity_element(i, j, here, d) == pytest.approx(
                    impurity_element(i, j, flipped_y, d), rel=1e-12)

    def test_impurity_linear_in_charge(self, params):
        base = Impurity(x_c=-600.0, y_c=600.0, q=-1.0)
        double = Impurity(x_c=-600.0, y_c=600.0, q=-2.0)
        opposite = Impurity(x_c=-600.0, y_c=600.0, q=1.0)
        w = impurity_element(0, 0, base, params)
        assert impurity_element(0, 0, double, params) == pytest.approx(2 * w, rel=1e-13)
        assert impurity_element(0, 0, opposite, params) == pytest.approx(-w, rel=1e-13)

    def test_attractive_charge_raises_nearest_dot_most(self, params):
        # A negative charge repels electrons: the dot closer to it
        # (dot 1 at -a) picks up the larger energy shift.
        imp = Impurity(x_c=-600.0, y_c=600.0, q=-1.0)
        assert impurity_element(0, 0, imp, params) > impurity_element(
            1, 1, imp, params) > 0.0


class TestEdgeBehavior:
    def test_far_impurity_falls_off_like_inverse_distance(self, params):
        near = Impurity(x_c=0.0, y_c=2000.0)
        far = Impurity(x_c=0.0, y_c=20000.0)
        w_near = impurity_element(0, 0, near, params)
        w_far = impurity_element(0, 0, far, params)
        assert w_far == pytest.approx(w_near / 10.0, rel=2e-3)

    def test_everything_finite_at_extreme_settings(self):
        d = DeviceParams(hbar_omega0=0.5, epsilon=1.0, xi=1.5)
        imp = Impurity(x_c=-2000.0, y_c=2000.0)
        vals = [
            kinetic_element(0, 1, d),
            potential_element(0, 1, d),
            coulomb_element(0, 1, 1, 0, d),
            impurity_element(0, 1, imp, d),
        ]
        assert all(np.isfinite(vals))


class TestTables:
    def test_one_body_is_kinetic_plus_confinement(self, tables):
        np.testing.assert_allclose(
            tables.one_body, tables.kinetic + tables.confinement,
            rtol=0.0, atol=0.0)

    def test_entries_match_element_functions(self, params, impurity, tables):
        for i in range(2):
            for j in range(2):
                assert tables.kinetic[i, j] == kinetic_element(i, j, params)
                assert tables.confinement[i, j] == potential_element(i, j, params)
                assert tables.impurity[i, j] == impurity_element(
                    i, j, impurity, params)

    def test_coulomb_tensor_uses_bra_bra_ket_ket_order(self, params, tables):
        # tables.coulomb[i, j, k, l] = <ij|kl> = (ik|jl) in pair notation.
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert tables.coulomb[i, j, k, l] == coulomb_element(
                            i, k, j, l, params)

    def test_without_impurity_table_is_absent(self, params):
        t = build_tables(params)
        assert t.impurity is None


def _impurity_element_scalar(i, j, imp, params):
    """One impurity element with its own scalar i0e call: the formula
    that impurity_table evaluates for all four elements at once."""
    basis = build_basis(params)
    aB2 = basis.a_B**2
    R = basis.R
    rc = np.array([imp.x_c, imp.y_c])
    s_ij = math.exp(-float(np.sum((R[i] - R[j]) ** 2)) / (4.0 * aB2))
    arg = float(np.sum((R[i] + R[j] - 2.0 * rc) ** 2)) / (8.0 * aB2)
    pref = derive_constants(params).coulomb_scale * math.sqrt(math.pi) / basis.a_B
    return (-imp.q) * pref * s_ij * i0e(arg), arg


def _four_entry_table(imps, params):
    """impurity_table with all four elements evaluated, W[1, 0] included,
    by one i0e call over the 4K arguments; and those arguments."""
    basis = build_basis(params)
    aB2 = basis.a_B**2
    R = basis.R
    pairs = [(i, j) for i in range(2) for j in range(2)]
    s = np.array([math.exp(-float(np.sum((R[i] - R[j]) ** 2)) / (4.0 * aB2)) for i, j in pairs])
    midpoints = np.array([R[i] + R[j] for i, j in pairs])
    rc = np.array([[imp.x_c, imp.y_c] for imp in imps]).reshape(-1, 1, 2)
    arg = np.sum((midpoints - 2.0 * rc) ** 2, axis=-1) / (8.0 * aB2)
    pref = derive_constants(params).coulomb_scale * math.sqrt(math.pi) / basis.a_B
    charge = np.array([-imp.q for imp in imps])
    return (charge[:, None] * pref * s * i0e(arg)).reshape(-1, 2, 2), arg


class TestImpurityTable:
    def test_bit_equal_to_a_four_entry_evaluation(self):
        # The series stops on the batch's largest term and smallest sum,
        # which the duplicate W[1, 0] arguments do not change.  Near and
        # far impurities share each batch, so both i0e branches run.
        rng = np.random.default_rng(21)
        args = []
        for _ in range(100):
            params = sample_device(rng)
            imps = [sample_impurity(rng, params.a) for _ in range(6)]
            ref, arg = _four_entry_table(imps, params)
            table = impurity_table(imps, params)
            assert np.array_equal(table.view(np.int64), ref.view(np.int64)), (params, imps)
            args.append(arg)
        args = np.concatenate(args)
        assert ((args < 20.0).any(axis=-1) & (args > 20.0).any(axis=-1)).any()

    def test_an_overflow_is_not_warned(self, params, recwarn):
        far, charged = impurity_table([Impurity(1e200, 0.0), Impurity(-150.0, 0.0, 1e308)],
                                      params)
        assert (far == 0.0).all()
        assert not np.isfinite(charged).all()
        assert len(recwarn) == 0

    def test_bit_equal_to_one_element_at_a_time(self):
        # sample_impurity draws radii out to 20a, so both i0e branches run.
        rng = np.random.default_rng(20)
        args = []
        for _ in range(300):
            params = sample_device(rng)
            imp = sample_impurity(rng, params.a)
            (table,) = impurity_table([imp], params)
            for i in range(2):
                for j in range(2):
                    ref, arg = _impurity_element_scalar(i, j, imp, params)
                    assert table[i, j] == ref, (params, imp, i, j)
                    assert impurity_element(i, j, imp, params) == ref
                    args.append(arg)
        assert min(args) < 20.0 < max(args)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
    def test_many_impurities_are_bit_equal_to_one_at_a_time(self, seed, k):
        rng = np.random.default_rng(seed)
        params = sample_device(rng)
        imps = [sample_impurity(rng, params.a) for _ in range(k)]
        imps[-1] = dataclasses.replace(imps[-1], q=float(rng.uniform(-2.0, 2.0)))
        table = impurity_table(imps, params)
        assert table.shape == (k, 2, 2)
        for imp, W in zip(imps, table):
            (alone,) = impurity_table([imp], params)
            assert np.array_equal(W.view(np.int64), alone.view(np.int64)), imp


class TestDeviceIntegrals:
    """hamiltonian._device builds a device from one closed-form pass, the
    one the element functions, and so the quadrature oracle, read."""

    def test_a_new_device_builds_one_basis_and_one_bessel_batch(self, monkeypatch):
        calls = {"build_basis": 0, "i0e": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # Every module of the package that binds build_basis counts.
        build_basis = orbitals.build_basis
        for module in [m for name, m in sys.modules.items() if name.startswith("dqdsim")]:
            if getattr(module, "build_basis", None) is build_basis:
                monkeypatch.setattr(module, "build_basis", counted("build_basis", build_basis))
        monkeypatch.setattr(integrals, "i0e", counted("i0e", i0e))
        hamiltonian._device.__wrapped__(DeviceParams(epsilon=0.0, xi=0.0))
        assert calls == {"build_basis": 1, "i0e": 1}

    def test_a_scaled_bessel_moves_the_on_site_repulsion(self, monkeypatch):
        device = DeviceParams(epsilon=0.0, xi=0.0)
        u1 = hamiltonian._device.__wrapped__(device)[-1]["U1"]
        monkeypatch.setattr(integrals, "i0e", lambda x: i0e(x) * 1.001)
        scaled = hamiltonian._device.__wrapped__(device)[-1]["U1"]
        assert scaled / u1 - 1.0 == pytest.approx(1e-3, rel=1e-9)

    def test_the_bump_is_the_xi_slope_of_potential_element(self):
        # The two elements differ by the bump to their own rounding, so the
        # bound is 1e-14 of the larger element: where the confinement is some
        # 100 times the bump, that cancellation alone loses ~1e-14 of it.
        rng = np.random.default_rng(22)
        for _ in range(100):
            device = dataclasses.replace(sample_device(rng), xi=0.0)
            bump = hamiltonian._device.__wrapped__(dataclasses.replace(device, epsilon=0.0))[3]
            for i in range(2):
                for j in range(2):
                    at_1 = potential_element(i, j, dataclasses.replace(device, xi=1.0))
                    at_0 = potential_element(i, j, device)
                    assert at_1 - at_0 == pytest.approx(
                        bump[i, j], rel=0, abs=1e-14 * max(abs(at_1), abs(at_0))), (device, i, j)
