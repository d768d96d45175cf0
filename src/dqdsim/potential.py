"""Double-well confinement potential.

V(x, y) = V_x(x) + (m* w0^2 / 2) y^2 + xi exp(-8 (x^2+y^2)/a^2)

V_x is built from two quartic pieces joined at x = 0.  Each piece is a
quartic in u = x -/+ (-a/+a) whose coefficients are fixed by requiring,
per side i (1: x<0, 2: x>=0):

    V_x(-/+a) = -mu_i        (well bottom)
    V_x'(-/+a) = 0
    V_x''(-/+a) = m* w0^2    (harmonic curvature at the bottom)
    V_x(0) = C,  V_x'(0) = 0 (smooth junction at the barrier top)

with C = a^2 m* w0^2 / 12.  Those five conditions leave exactly the
cubic and quartic coefficients free:

    c3 = s_i (4C + 4 mu_i - a^2 m* w0^2) / a^3      (s_1=+1, s_2=-1)
    c4 = (-6C - 6 mu_i + a^2 m* w0^2) / (2 a^4)
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import DeviceParams, derive_constants


class QuarticPiece(NamedTuple):
    """V_piece(u) = -mu + (k2/2) u^2 + c3 u^3 + c4 u^4, u = x - center."""
    center: float
    mu: float
    k2: float   # m* w0^2
    c3: float
    c4: float

    def __call__(self, x):
        u = np.asarray(x, dtype=float) - self.center
        return -self.mu + 0.5 * self.k2 * u**2 + self.c3 * u**3 + self.c4 * u**4

    def deriv(self, x, order=1):
        u = np.asarray(x, dtype=float) - self.center
        if order == 1:
            return self.k2 * u + 3 * self.c3 * u**2 + 4 * self.c4 * u**3
        if order == 2:
            return self.k2 + 6 * self.c3 * u + 12 * self.c4 * u**2
        raise ValueError(order)

    def poly_coeffs(self) -> np.ndarray:
        """Coefficients [c0..c4] in powers of u."""
        return np.array([-self.mu, 0.0, 0.5 * self.k2, self.c3, self.c4])


def quartic_pieces(params: DeviceParams) -> tuple[QuarticPiece, QuarticPiece]:
    """(left piece for x<0 about -a with mu1, right piece for x>=0 about +a with mu2)."""
    consts = derive_constants(params)
    a = params.a
    aw = a**2 * consts.m_omega2
    C = consts.barrier_height
    left = QuarticPiece(
        center=-a, mu=params.mu1, k2=consts.m_omega2,
        c3=(4 * C + 4 * params.mu1 - aw) / a**3,
        c4=(-6 * C - 6 * params.mu1 + aw) / (2 * a**4),
    )
    right = QuarticPiece(
        center=+a, mu=params.mu2, k2=consts.m_omega2,
        c3=-(4 * C + 4 * params.mu2 - aw) / a**3,
        c4=(-6 * C - 6 * params.mu2 + aw) / (2 * a**4),
    )
    return left, right


def eval_vx(x, params: DeviceParams):
    """Longitudinal double-well part V_x(x); vectorized."""
    left, right = quartic_pieces(params)
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, left(x), right(x))


def gaussian_barrier(x, y, params: DeviceParams):
    """xi exp(-8 r^2 / a^2): a Gaussian bump of width sigma = a/4."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return params.xi * np.exp(-8.0 * (x**2 + y**2) / params.a**2)


def eval_potential(x, y, params: DeviceParams):
    """Full 2D confinement potential, vectorized over x and y."""
    consts = derive_constants(params)
    y = np.asarray(y, dtype=float)
    return eval_vx(x, params) + 0.5 * consts.m_omega2 * y**2 + gaussian_barrier(x, y, params)


def constraint_report(params: DeviceParams) -> list[tuple[str, float, float, float]]:
    """Evaluate the junction/well constraints on V_x analytically.

    Returns rows (name, value, expected, relative residual).  Covers both
    one-sided values at the origin, both well bottoms, and the curvature
    at each bottom.
    """
    consts = derive_constants(params)
    left, right = quartic_pieces(params)
    a, C = params.a, consts.barrier_height

    def rel(v, e):
        scale = max(abs(e), abs(C), 1e-30)
        return (v - e) / scale

    rows = []
    for name, value, expected in [
        ("Vx(0-) = C", float(left(0.0)), C),
        ("Vx(0+) = C", float(right(0.0)), C),
        ("Vx'(0-) = 0", float(left.deriv(0.0)), 0.0),
        ("Vx'(0+) = 0", float(right.deriv(0.0)), 0.0),
        ("Vx(-a) = -mu1", float(left(-a)), -params.mu1),
        ("Vx(+a) = -mu2", float(right(+a)), -params.mu2),
        ("Vx''(-a) = m*w0^2", float(left.deriv(-a, 2)), consts.m_omega2),
        ("Vx''(+a) = m*w0^2", float(right.deriv(+a, 2)), consts.m_omega2),
    ]:
        rows.append((name, value, expected, rel(value, expected)))
    return rows

