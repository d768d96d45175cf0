"""Piecewise-quartic double well plus Gaussian barrier: junction
constraints, well geometry, curvature bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqdsim import (
    DeviceParams,
    central_curvatures,
    constraint_report,
    derive_constants,
    eval_potential,
    eval_vx,
    gaussian_barrier,
    quartic_pieces,
)

CONTROLS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.5))


@settings(max_examples=60, deadline=None)
@given(CONTROLS)
def test_junction_constraints_everywhere(ctrl):
    eps, xi = ctrl
    p = DeviceParams(epsilon=eps, xi=xi)
    for name, value, expected, rel in constraint_report(p):
        assert abs(rel) <= 1e-12, f"{name}: {value} vs {expected}"


def test_constraint_report_covers_both_sides(params):
    names = [row[0] for row in constraint_report(params)]
    assert len(names) == 8
    assert sum("0-" in n or "0+" in n for n in names) == 4
    assert sum("-a" in n or "+a" in n for n in names) == 4


def test_well_bottoms_follow_detuning():
    p = DeviceParams(epsilon=0.6)
    left, right = quartic_pieces(p)
    assert float(left(-p.a)) == pytest.approx(-p.mu1, abs=1e-15)
    assert float(right(+p.a)) == pytest.approx(-p.mu2, abs=1e-15)
    # the +a well is deeper for positive detuning
    assert float(right(+p.a)) < float(left(-p.a))


def test_pieces_meet_continuously_at_origin(params, consts):
    left, right = quartic_pieces(params)
    assert float(left(0.0)) == pytest.approx(consts.barrier_height, rel=1e-13)
    assert float(right(0.0)) == pytest.approx(consts.barrier_height, rel=1e-13)
    assert float(left.deriv(0.0)) == pytest.approx(0.0, abs=1e-18)
    assert float(right.deriv(0.0)) == pytest.approx(0.0, abs=1e-18)


def test_wells_are_local_minima_of_vx(params):
    left, right = quartic_pieces(params)
    h = 1e-3
    for piece, x0 in ((left, -params.a), (right, +params.a)):
        assert float(piece.deriv(x0)) == pytest.approx(0.0, abs=1e-12)
        assert float(piece(x0 - h)) > float(piece(x0))
        assert float(piece(x0 + h)) > float(piece(x0))


def test_deriv_matches_finite_difference(params):
    left, _right = quartic_pieces(params)
    x, h = -37.0, 1e-4
    numeric = (float(left(x + h)) - float(left(x - h))) / (2 * h)
    assert float(left.deriv(x)) == pytest.approx(numeric, rel=1e-7)
    h2 = 0.05  # second difference needs a larger step to beat cancellation
    numeric2 = (float(left(x + h2)) - 2 * float(left(x)) + float(left(x - h2))) / h2**2
    assert float(left.deriv(x, 2)) == pytest.approx(numeric2, rel=1e-5)


def test_poly_coeffs_reproduce_callable(params):
    left, right = quartic_pieces(params)
    for piece in (left, right):
        coeffs = piece.poly_coeffs()  # ascending powers of u = x - center
        for x in (-150.0, -50.0, 0.0, 80.0):
            direct = float(piece(x))
            horner = float(np.polyval(coeffs[::-1], x - piece.center))
            assert horner == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_eval_vx_selects_halves(params):
    left, right = quartic_pieces(params)
    xs = np.array([-120.0, -1.0, 1.0, 120.0])
    vals = eval_vx(xs, params)
    assert vals[0] == pytest.approx(float(left(xs[0])), rel=1e-14)
    assert vals[-1] == pytest.approx(float(right(xs[-1])), rel=1e-14)


class TestGaussianBarrier:
    def test_peak_value_and_width(self, params):
        # amplitude xi at the origin, falling to xi e^{-8} at either well:
        # the width is tied to the half-separation, sigma = a/4
        assert gaussian_barrier(0.0, 0.0, params) == pytest.approx(params.xi)
        assert gaussian_barrier(params.a, 0.0, params) == pytest.approx(
            params.xi * math.exp(-8.0), rel=1e-13)
        assert gaussian_barrier(0.0, params.a, params) == pytest.approx(
            params.xi * math.exp(-8.0), rel=1e-13)

    def test_radial_symmetry(self, params):
        assert gaussian_barrier(30.0, 40.0, params) == pytest.approx(
            gaussian_barrier(50.0, 0.0, params), rel=1e-13)

    def test_zero_amplitude(self):
        p = DeviceParams(xi=0.0)
        assert gaussian_barrier(12.3, -4.5, p) == 0.0


def test_eval_potential_is_quartic_plus_barrier_plus_transverse(params, consts):
    x, y = 42.0, -17.0
    expected = (float(eval_vx(np.array([x]), params)[0])
                + 0.5 * consts.m_omega2 * y * y
                + gaussian_barrier(x, y, params))
    assert eval_potential(x, y, params) == pytest.approx(expected, rel=1e-13)


def test_origin_is_a_barrier_top(params):
    v0 = eval_potential(0.0, 0.0, params)
    assert v0 > eval_potential(-params.a, 0.0, params)
    assert v0 > eval_potential(+params.a, 0.0, params)
    # and a local maximum along x
    assert v0 > eval_potential(-5.0, 0.0, params)
    assert v0 > eval_potential(+5.0, 0.0, params)


def test_central_curvatures_match_numeric(params):
    cl, cr = central_curvatures(params)
    h = 1e-3
    for sign, analytic in ((-1.0, cl), (+1.0, cr)):
        xs = sign * np.array([3 * h, 2 * h, h])
        v = eval_potential(xs, 0.0, params)
        v0 = eval_potential(0.0, 0.0, params)
        # one-sided second difference at the origin
        numeric = (2 * v0 - 5 * v[2] + 4 * v[1] - v[0]) / h**2
        assert analytic == pytest.approx(numeric, abs=5e-7)


def test_central_curvature_formula(params, consts):
    # (a^2 m* w0^2 - 12 mu_i - 12 C - 16 xi) / a^2 on each side
    p = dataclasses.replace(params, epsilon=0.4)
    c = derive_constants(p)
    expect_left = (p.a**2 * c.m_omega2 - 12 * p.mu1
                   - 12 * c.barrier_height - 16 * p.xi) / p.a**2
    expect_right = (p.a**2 * c.m_omega2 - 12 * p.mu2
                    - 12 * c.barrier_height - 16 * p.xi) / p.a**2
    cl, cr = central_curvatures(p)
    assert cl == pytest.approx(expect_left, rel=1e-12)
    assert cr == pytest.approx(expect_right, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(CONTROLS)
def test_transverse_direction_is_harmonic(ctrl):
    eps, xi = ctrl
    p = DeviceParams(epsilon=eps, xi=xi)
    c = derive_constants(p)
    x = -p.a  # at a well bottom the Gaussian is e^{-8}-suppressed but present
    for y in (10.0, 25.0):
        expected = (eval_potential(x, 0.0, p)
                    - gaussian_barrier(x, 0.0, p)
                    + 0.5 * c.m_omega2 * y**2
                    + gaussian_barrier(x, y, p))
        assert eval_potential(x, y, p) == pytest.approx(expected, rel=1e-12)
