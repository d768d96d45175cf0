"""Independent quadrature oracle for the closed-form matrix elements.

Nothing here calls the closed forms in `integrals` (or its i0e); the
orbital products are re-derived from the raw Gaussian exponents and
integrated numerically:

* smooth one-body integrands: tensor Gauss-Hermite;
* the piecewise confinement: the x axis is split at the junction into
  two Gauss-Legendre panels with the Gaussian weight kept explicit
  (plain Gauss-Hermite stalls on the derivative discontinuity);
* 1/r kernels: polar coordinates around the singularity, where the
  Jacobian cancels the kernel exactly (radial Gauss-Legendre, periodic
  trapezoid in the angle);
* the two-body element: exact center-of-mass/relative factorization of
  the eight-dimensional Gaussian pair (the COM integral is a Gaussian
  normalization), then the relative integral in polar form.

Every oracle evaluates at two resolutions and reports the difference as
its error estimate; `quadrature_oracle` raises OracleRefusal when the
estimate exceeds the requested tolerance.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .model import DeviceParams, Impurity, derive_constants
from .orbitals import OrbitalBasis, build_basis
from .potential import eval_potential


class OracleRefusal(RuntimeError):
    """The two-resolution error estimate exceeded the tolerance."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    error_estimate: float


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

@functools.cache
def _gauss(rule, n: int):
    """The nodes and weights of a Gauss rule (leggauss or hermgauss),
    computed once per n since the resolutions are constants; read-only,
    since every caller shares them."""
    nodes, weights = rule(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _pair_log_density(X, Y, Ri, Rj, a_B):
    """log[phi_i(r) phi_j(r)] evaluated elementwise."""
    d1 = (X - Ri[0]) ** 2 + (Y - Ri[1]) ** 2
    d2 = (X - Rj[0]) ** 2 + (Y - Rj[1]) ** 2
    return -(d1 + d2) / (2.0 * a_B**2) - math.log(math.pi * a_B**2)


def _gh_pair_grid(basis: OrbitalBasis, i: int, j: int, n: int):
    """Nodes and weights for integrals of phi_i phi_j * smooth(x, y).

    Returns (X, Y, F) with sum(F * f(X, Y)) ~ the integral.  The pair
    Gaussian is kept in log space against the Hermite weight so nothing
    overflows.
    """
    t, w = _gauss(hermgauss, n)
    a_B = basis.a_B
    P = 0.5 * (basis.R[i] + basis.R[j])
    X = P[0] + a_B * t[:, None]
    Y = P[1] + a_B * t[None, :]
    logf = _pair_log_density(X, Y, basis.R[i], basis.R[j], a_B)
    logf += t[:, None] ** 2 + t[None, :] ** 2
    F = np.exp(logf) * w[:, None] * w[None, :] * a_B**2
    return X, Y, F


def _overlap_once(basis, i, j, n):
    _, _, F = _gh_pair_grid(basis, i, j, n)
    return float(F.sum())


def _kinetic_once(params, basis, i, j, n):
    kin = derive_constants(params).kinetic_scale
    a_B = basis.a_B
    Rj = basis.R[j]
    X, Y, F = _gh_pair_grid(basis, i, j, n)
    rj2 = (X - Rj[0]) ** 2 + (Y - Rj[1]) ** 2
    lap_factor = (rj2 - 2.0 * a_B**2) / a_B**4
    return float(np.sum(F * (-kin) * lap_factor))


def _split_leggauss_axis(center, sig, n):
    """Legendre nodes/weights over [center - 14 sig, center + 14 sig],
    split at 0 when 0 is interior.  Splitting puts the panel edge - where
    Legendre nodes cluster - on the confinement kink and on the narrow
    barrier bump at the origin, so the rule stays accurate even when the
    orbitals are much wider than the bump."""
    lo, hi = center - 14.0 * sig, center + 14.0 * sig
    panels = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    tg, wg = _gauss(leggauss, n)
    nodes, weights = [], []
    for p_lo, p_hi in panels:
        half = 0.5 * (p_hi - p_lo)
        nodes.append(0.5 * (p_lo + p_hi) + half * tg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _potential_once(params, basis, i, j, nx, ny):
    a_B = basis.a_B
    P = 0.5 * (basis.R[i] + basis.R[j])
    sig = a_B / math.sqrt(2.0)
    x_nodes, wx = _split_leggauss_axis(P[0], sig, nx)
    y_nodes, wy = _split_leggauss_axis(P[1], sig, ny)

    X = x_nodes[:, None]
    Y = y_nodes[None, :]
    logf = _pair_log_density(X, Y, basis.R[i], basis.R[j], a_B)
    F = np.exp(logf) * wx[:, None] * wy[None, :]
    # V broadcasts from the node columns, so the quartic V_x runs on the x
    # nodes alone.
    V = eval_potential(X, Y, params)
    return float(np.sum(F * V))


def _impurity_once(params, basis, i, j, imp, n_rad, n_ang):
    consts = derive_constants(params)
    a_B = basis.a_B
    rc = np.array([imp.x_c, imp.y_c])
    P = 0.5 * (basis.R[i] + basis.R[j])
    d = float(np.linalg.norm(rc - P))
    if d > 6.0 * a_B:
        # Far charge: the kernel is smooth across the orbital cloud, while a
        # polar grid centered on the charge would undersample it in angle.
        X, Y, F = _gh_pair_grid(basis, i, j, max(60, n_rad // 2))
        kern = 1.0 / np.hypot(X - rc[0], Y - rc[1])
        return float(np.sum(F * kern)) * consts.coulomb_scale * (-imp.q)
    r_max = d + 14.0 * a_B / math.sqrt(2.0)

    tr, wr = _gauss(leggauss, n_rad)
    rho = 0.5 * r_max * (tr + 1.0)
    w_rho = 0.5 * r_max * wr
    theta = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    w_theta = 2.0 * math.pi / n_ang

    X = rc[0] + rho[:, None] * np.cos(theta)[None, :]
    Y = rc[1] + rho[:, None] * np.sin(theta)[None, :]
    # rho * (1/rho) = 1: the polar Jacobian cancels the kernel
    logf = _pair_log_density(X, Y, basis.R[i], basis.R[j], a_B)
    F = np.exp(logf) * w_rho[:, None] * w_theta
    return float(np.sum(F)) * consts.coulomb_scale * (-imp.q)


def _coulomb_once(params, basis, i, j, k, l, n_rad, n_ang):
    """Chemist element (ij|kl) by COM/relative factorization."""
    consts = derive_constants(params)
    a_B = basis.a_B
    R = basis.R
    s_ij = math.exp(-float(np.sum((R[i] - R[j]) ** 2)) / (4.0 * a_B**2))
    s_kl = math.exp(-float(np.sum((R[k] - R[l]) ** 2)) / (4.0 * a_B**2))
    P = 0.5 * (R[i] + R[j])
    Q = 0.5 * (R[k] + R[l])
    D = P - Q
    # COM Gaussian integrates to pi a_B^2 / 2; remaining relative integral:
    #   coul/(2 pi a_B^2) * int exp(-|u - D|^2/(2 a_B^2)) / |u| d^2u
    pref = s_ij * s_kl * consts.coulomb_scale / (2.0 * math.pi * a_B**2)
    r_max = float(np.linalg.norm(D)) + 14.0 * a_B

    tr, wr = _gauss(leggauss, n_rad)
    rho = 0.5 * r_max * (tr + 1.0)
    w_rho = 0.5 * r_max * wr
    theta = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    w_theta = 2.0 * math.pi / n_ang

    UX = rho[:, None] * np.cos(theta)[None, :]
    UY = rho[:, None] * np.sin(theta)[None, :]
    g = np.exp(-((UX - D[0]) ** 2 + (UY - D[1]) ** 2) / (2.0 * a_B**2))
    return pref * float(np.sum(g * w_rho[:, None])) * w_theta


# ---------------------------------------------------------------------------
# two-resolution wrappers
# ---------------------------------------------------------------------------

def _two_res(f, coarse, fine, floor) -> OracleResult:
    v1 = f(*coarse)
    v2 = f(*fine)
    return OracleResult(v2, abs(v1 - v2) / max(abs(v2), floor))


def oracle_overlap(params, i, j):
    basis = build_basis(params)
    return _two_res(lambda m: _overlap_once(basis, i, j, m), (80,), (120,), 1e-12)


def oracle_kinetic(params, i, j):
    basis = build_basis(params)
    return _two_res(lambda m: _kinetic_once(params, basis, i, j, m),
                    (80,), (120,), 1e-12 * params.hbar_omega0)


def oracle_potential(params, i, j):
    basis = build_basis(params)
    floor = 1e-9 * max(params.hbar_omega0, abs(params.xi), 1e-3)
    return _two_res(lambda nx, ny: _potential_once(params, basis, i, j, nx, ny),
                    (150, 150), (225, 225), floor)


def oracle_impurity(params, i, j, imp):
    basis = build_basis(params)
    return _two_res(lambda nr, na: _impurity_once(params, basis, i, j, imp, nr, na),
                    (180, 256), (270, 384), 1e-15)


def oracle_coulomb(params, i, j, k, l):
    basis = build_basis(params)
    return _two_res(lambda nr, na: _coulomb_once(params, basis, i, j, k, l, nr, na),
                    (180, 256), (270, 384), 1e-15)


_DISPATCH = {
    "overlap": oracle_overlap,
    "kinetic": oracle_kinetic,
    "potential": oracle_potential,
    "impurity": oracle_impurity,
    "coulomb": oracle_coulomb,
}


def quadrature_oracle(element_spec: tuple, params: DeviceParams,
                      rtol: float = 1e-7) -> OracleResult:
    """Evaluate one element spec, e.g. ("coulomb", 0, 1, 1, 0) or
    ("impurity", 0, 0, imp).  Raises OracleRefusal if the two-resolution
    error estimate exceeds rtol."""
    kind, *args = element_spec
    try:
        fn = _DISPATCH[kind]
    except KeyError:
        raise ValueError(f"unknown element kind {kind!r}") from None
    res = fn(params, *args)
    if res.error_estimate > rtol:
        raise OracleRefusal(
            f"{element_spec}: error estimate {res.error_estimate:.3e} exceeds rtol {rtol:.1e}")
    return res
