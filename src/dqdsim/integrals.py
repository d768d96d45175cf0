"""Closed-form matrix elements over the two-dot orbital basis.

Every element here reduces to Gaussian moments:

* the product of two basis orbitals is s_ij times a normalized Gaussian
  centered at the pair midpoint P_ij = (R_i+R_j)/2 with per-axis
  variance a_B^2/2, where s_ij = exp(-|R_i-R_j|^2/(4 a_B^2));
* kinetic elements use the Laplacian identity
  lap phi_j = phi_j (|r-R_j|^2 - 2 a_B^2)/a_B^4;
* the piecewise-quartic confinement reduces to half-line Gaussian
  moments (erf recurrences), the transverse harmonic term to hw0/4 per
  overlap, and the Gaussian bump to a closed Gaussian-times-Gaussian
  form;
* both Coulomb kernels reduce to the identity
  E[1/|X|] = (sqrt(pi)/(sqrt(2) sigma)) e^{-B} I0(B),  B = |D|^2/(4 sigma^2)
  for X ~ N(D, sigma^2 I_2), which brings in the scaled Bessel function
  i0e(x) = e^{-x} I0(x) implemented below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DeviceParams, derive_constants
from .orbitals import OrbitalBasis, build_basis
from .potential import quartic_pieces
from .model import Impurity

__all__ = [
    "i0e", "kinetic_element", "potential_element", "coulomb_element",
    "impurity_element", "impurity_table", "IntegralTables", "build_tables",
]

# --------------------------------------------------------------------------
# scaled modified Bessel function I0(x) e^{-x}
# --------------------------------------------------------------------------

_SERIES_CUT = 20.0


def i0e(x):
    """exp(-|x|) I0(x) for x >= 0 (even in x), vectorized.

    Power series below x=20 (all-positive terms, no cancellation),
    asymptotic series above, truncated at its smallest term.  Relative
    accuracy ~1e-13 or better across [0, 1e5].
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty_like(x_arr)

    small = x_arr < _SERIES_CUT
    if small.any():
        xs = x_arr[small]
        q = 0.25 * xs * xs
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for k in range(1, 200):
            term = term * q / (k * k)
            acc += term
            if term.max() < 1e-18 * acc.min():
                break
        out[small] = acc * np.exp(-xs)

    if (~small).any():
        xb = x_arr[~small]
        term = np.ones_like(xb)
        acc = np.ones_like(xb)
        active = np.ones(xb.shape, dtype=bool)
        for k in range(1, 60):
            nxt = term * (2 * k - 1) ** 2 / (8.0 * k * xb)
            active &= np.abs(nxt) < np.abs(term)
            np.add(acc, nxt, out=acc, where=active)
            term = nxt
            if not active.any() or np.abs(term[active]).max() < 1e-17:
                break
        out[~small] = acc / np.sqrt(2.0 * np.pi * xb)

    return float(out[0]) if scalar else out.reshape(np.shape(x))


# --------------------------------------------------------------------------
# Gaussian moment helpers (scalar)
# --------------------------------------------------------------------------

def _half_moments(m: float, v: float, kmax: int = 4) -> np.ndarray:
    """I_k = int_0^inf x^k N(x; m, v) dx for k = 0..kmax."""
    sig = math.sqrt(v)
    i = np.empty(kmax + 1)
    n0 = math.exp(-0.5 * m * m / v) / math.sqrt(2.0 * math.pi * v)
    i[0] = 0.5 * (1.0 + math.erf(m / (sig * math.sqrt(2.0))))
    if kmax >= 1:
        i[1] = m * i[0] + v * n0
    for k in range(1, kmax):
        i[k + 1] = m * i[k] + k * v * i[k - 1]
    return i


def _full_moments(m: float, v: float) -> np.ndarray:
    """E[x^k], k = 0..4, for x ~ N(m, v)."""
    return np.array([
        1.0,
        m,
        m * m + v,
        m**3 + 3 * m * v,
        m**4 + 6 * m * m * v + 3 * v * v,
    ])


def _shift_poly(coeffs_u: np.ndarray, center: float) -> np.ndarray:
    """Rewrite sum_k p_k u^k, u = x - center, as sum_n q_n x^n."""
    q = np.zeros_like(coeffs_u)
    for k, p in enumerate(coeffs_u):
        if p == 0.0:
            continue
        for n in range(k + 1):
            q[n] += p * math.comb(k, n) * (-center) ** (k - n)
    return q


# --------------------------------------------------------------------------
# one-body elements
# --------------------------------------------------------------------------

def _pair_geometry(basis: OrbitalBasis, i: int, j: int):
    R = basis.R
    d2 = float(np.sum((R[i] - R[j]) ** 2))
    P = 0.5 * (R[i] + R[j])
    s_ij = math.exp(-d2 / (4.0 * basis.a_B**2))
    return d2, P, s_ij


def kinetic_element(i: int, j: int, params: DeviceParams) -> float:
    """<phi_i| -hbar^2/(2 m*) lap |phi_j>  [meV]."""
    basis = build_basis(params)
    d2, _, s_ij = _pair_geometry(basis, i, j)
    return 0.5 * params.hbar_omega0 * s_ij * (1.0 - d2 / (4.0 * basis.a_B**2))


def potential_element(i: int, j: int, params: DeviceParams) -> float:
    """<phi_i| V |phi_j> for the full confinement potential  [meV]."""
    basis = build_basis(params)
    consts = derive_constants(params)
    _, P, s_ij = _pair_geometry(basis, i, j)
    v = 0.5 * basis.a_B**2  # per-axis variance of the pair Gaussian

    left, right = quartic_pieces(params)
    mx = float(P[0])
    q_left = _shift_poly(left.poly_coeffs(), left.center)
    q_right = _shift_poly(right.poly_coeffs(), right.center)
    upper = _half_moments(mx, v)            # moments over [0, inf)
    lower = _full_moments(mx, v) - upper    # moments over (-inf, 0]
    e_vx = float(q_left @ lower + q_right @ upper)

    # transverse harmonic: (m w0^2 / 2) E[y^2], P_y = 0 => E[y^2] = v
    e_y = 0.5 * consts.m_omega2 * v

    # Gaussian bump xi exp(-w |r|^2), w = 8/a^2
    w = 8.0 / params.a**2
    f = 1.0 / (1.0 + 2.0 * w * v)
    e_g = params.xi * f * math.exp(-w * f * float(P @ P))

    return s_ij * (e_vx + e_y + e_g)


def impurity_element(i: int, j: int, imp: Impurity, params: DeviceParams) -> float:
    """<phi_i| (-q) e^2/(4 pi kappa |r - R_c|) |phi_j>  [meV].

    Positive (repulsive) for q = -1 against the -e electrons.
    """
    return float(impurity_table([imp], params)[0, i, j])


def impurity_table(imps, params: DeviceParams) -> np.ndarray:
    """(K, 2, 2) matrices of impurity_element over the dot basis, one per
    impurity of the sequence imps  [meV]; one i0e call evaluates all 4K
    Bessel factors."""
    basis = build_basis(params)
    consts = derive_constants(params)
    aB2 = basis.a_B**2
    R = basis.R
    pairs = [(i, j) for i in range(2) for j in range(2)]
    s = np.array([math.exp(-float(np.sum((R[i] - R[j]) ** 2)) / (4.0 * aB2)) for i, j in pairs])
    midpoints = np.array([R[i] + R[j] for i, j in pairs])                 # (4, 2)
    rc = np.array([[imp.x_c, imp.y_c] for imp in imps]).reshape(-1, 1, 2)  # (K, 1, 2)
    arg = np.sum((midpoints - 2.0 * rc) ** 2, axis=-1) / (8.0 * aB2)      # (K, 4)
    pref = consts.coulomb_scale * math.sqrt(math.pi) / basis.a_B
    charge = np.array([-imp.q for imp in imps])
    return (charge[:, None] * pref * s * i0e(arg)).reshape(-1, 2, 2)


# --------------------------------------------------------------------------
# two-body Coulomb element (chemist pairing)
# --------------------------------------------------------------------------

def coulomb_element(i: int, j: int, k: int, l: int, params: DeviceParams) -> float:
    """(ij|kl) = integral of rho_ij(r1) rho_kl(r2) e^2/(4 pi kappa r12),
    with rho_ij = phi_i phi_j  [meV]."""
    basis = build_basis(params)
    consts = derive_constants(params)
    aB2 = basis.a_B**2
    R = basis.R
    damp = math.exp(-(float(np.sum((R[i] - R[j]) ** 2)) +
                      float(np.sum((R[k] - R[l]) ** 2))) / (4.0 * aB2))
    arg = float(np.sum((R[i] + R[j] - R[k] - R[l]) ** 2)) / (16.0 * aB2)
    pref = consts.coulomb_scale * math.sqrt(math.pi / 2.0) / basis.a_B
    return pref * damp * i0e(arg)


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralTables:
    """All matrix elements needed by the 4x4 assembly.

    kinetic, confinement : (2, 2) one-body elements in the dot basis
    coulomb              : (2, 2, 2, 2) two-body tensor, index order
                           <ij|v|kl> (electron 1: i->k, electron 2: j->l)
    impurity             : (2, 2) impurity elements, or None
    """
    kinetic: np.ndarray
    confinement: np.ndarray
    coulomb: np.ndarray
    impurity: np.ndarray | None

    @property
    def one_body(self) -> np.ndarray:
        return self.kinetic + self.confinement


def build_tables(params: DeviceParams, imp: Impurity | None = None) -> IntegralTables:
    T = np.empty((2, 2))
    V = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            T[i, j] = kinetic_element(i, j, params)
            V[i, j] = potential_element(i, j, params)
    # physicist-ordered tensor from chemist pairings: <ij|v|kl> = (ik|jl)
    V4 = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    V4[i, j, k, l] = coulomb_element(i, k, j, l, params)
    W = None if imp is None else impurity_table([imp], params)[0]
    return IntegralTables(kinetic=T, confinement=V, coulomb=V4, impurity=W)
