"""Tests for the brute-force quadrature oracle.

The oracle exists to cross-check the closed-form elements, so these
tests confirm (a) agreement with the closed forms on representative
elements and (b) that the oracle refuses rather than silently returning
an unconverged number.
"""
import numpy as np
import pytest

from dqdsim import (
    DeviceParams,
    Impurity,
    OracleRefusal,
    OracleResult,
    coulomb_element,
    default_impurity,
    impurity_element,
    kinetic_element,
    oracle_overlap,
    potential_element,
    quadrature_oracle,
)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-9)


class TestAgreementWithClosedForms:
    def test_overlap(self, params, basis):
        res = oracle_overlap(params, 0, 1)
        assert res.converged
        assert rel(res.value, basis.s) < 1e-9

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1)])
    def test_kinetic(self, params, i, j):
        res = quadrature_oracle(("kinetic", i, j), params)
        assert rel(res.value, kinetic_element(i, j, params)) < 1e-7

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1)])
    def test_confinement(self, i, j):
        tilted = DeviceParams(epsilon=0.4, xi=0.9)
        res = quadrature_oracle(("potential", i, j), tilted)
        assert rel(res.value, potential_element(i, j, tilted)) < 1e-6

    @pytest.mark.parametrize("idx", [(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0)])
    def test_coulomb(self, params, idx):
        res = quadrature_oracle(("coulomb", *idx), params)
        assert rel(res.value, coulomb_element(*idx, params)) < 1e-6

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1)])
    def test_impurity(self, params, impurity, i, j):
        res = quadrature_oracle(("impurity", i, j, impurity), params)
        assert rel(res.value, impurity_element(i, j, impurity, params)) < 1e-6


class TestImpurityDistanceRegimes:
    """The impurity kernel switches integration strategy with distance;
    both branches must track the closed form."""

    def test_near_charge(self, params):
        imp = Impurity(x_c=-1.7 * params.a, y_c=0.8 * params.a)
        res = quadrature_oracle(("impurity", 0, 0, imp), params)
        assert rel(res.value, impurity_element(0, 0, imp, params)) < 1e-6

    def test_moderate_distance(self, params):
        imp = Impurity(x_c=-2.0 * params.a, y_c=2.0 * params.a)
        res = quadrature_oracle(("impurity", 0, 1, imp), params)
        assert rel(res.value, impurity_element(0, 1, imp, params)) < 1e-6

    def test_far_charge(self, params):
        imp = Impurity(x_c=9.0 * params.a, y_c=-12.0 * params.a)  # |R| = 15 a
        res = quadrature_oracle(("impurity", 0, 0, imp), params)
        assert rel(res.value, impurity_element(0, 0, imp, params)) < 1e-7

    def test_far_charge_small_orbitals(self):
        # Stiff case: tight orbitals, charge twenty spacings out.
        d = DeviceParams(hbar_omega0=0.4)
        imp = Impurity(x_c=-12.0 * d.a, y_c=16.0 * d.a)
        res = quadrature_oracle(("impurity", 1, 1, imp), d)
        assert rel(res.value, impurity_element(1, 1, imp, d)) < 1e-6


class TestRefusalAndErrors:
    def test_refuses_unreachable_tolerance(self, params):
        with pytest.raises(OracleRefusal, match="error estimate"):
            quadrature_oracle(("coulomb", 0, 0, 0, 0), params, rtol=1e-16)

    def test_unknown_kind(self, params):
        with pytest.raises(ValueError, match="unknown element kind"):
            quadrature_oracle(("hopping", 0, 1), params)

    def test_result_fields(self, params):
        res = quadrature_oracle(("kinetic", 0, 0), params)
        assert np.isfinite(res.value)
        assert 0.0 <= res.error_estimate < 1e-7
        assert res.converged is True

    def test_result_is_plain_record(self):
        r = OracleResult(value=1.0, error_estimate=1e-12, converged=True)
        assert (r.value, r.error_estimate, r.converged) == (1.0, 1e-12, True)


def test_oracle_and_closed_form_share_no_code_path(params, impurity):
    """Guard the dual-route design: the oracle must keep disagreeing
    when the closed form is perturbed, i.e. it cannot be a wrapper
    around the same expressions."""
    from dqdsim import integrals as closed

    res = quadrature_oracle(("coulomb", 0, 0, 0, 0), params)
    exact = closed.coulomb_element(0, 0, 0, 0, params)
    assert rel(res.value, exact) < 1e-6
    # A 0.1% perturbation of the closed form must be visible to the oracle.
    assert rel(res.value, exact * 1.001) > 5e-4
