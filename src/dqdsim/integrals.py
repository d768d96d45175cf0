"""Closed-form matrix elements over the two-dot orbital basis.

The dots sit at R_1,2 = (-/+a, 0), so three orbital pairs (00, 01, 11)
carry every element, and each reduces to Gaussian moments:

* the product of two basis orbitals is s_ij times a normalized Gaussian
  centered at the pair midpoint P_ij = (R_i+R_j)/2 with per-axis
  variance a_B^2/2, where s_ij = exp(-|R_i-R_j|^2/(4 a_B^2));
* kinetic elements use the Laplacian identity
  lap phi_j = phi_j (|r-R_j|^2 - 2 a_B^2)/a_B^4;
* the piecewise-quartic confinement reduces to half-line Gaussian
  moments (erf recurrences), the transverse harmonic term to hw0/4 per
  overlap, and the Gaussian bump to xi s_ij f exp(-w f |P_ij|^2),
  w = 8/a^2, f = 1/(1 + w a_B^2): the one-body terms are affine in xi;
* both Coulomb kernels reduce to the identity
  E[1/|X|] = (sqrt(pi)/(sqrt(2) sigma)) e^{-B} I0(B),  B = |D|^2/(4 sigma^2)
  for X ~ N(D, sigma^2 I_2), which brings in the scaled Bessel function
  i0e(x) = e^{-x} I0(x) implemented below.  Of the two-body integrals
  only on-site (00|00), inter-dot (00|11), mixed (00|01) and exchange
  (01|01) differ (Burkard, Loss & DiVincenzo, PRB 59, 2070 (1999)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DeviceParams, Impurity, derive_constants
from .orbitals import build_basis
from .potential import quartic_pieces

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
    accuracy ~1e-13 or better across [0, 1e5].  Each series tests its stopping
    rule every 8 terms: the terms past it are below half an ulp of the sum.
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
            if k % 8 == 0 and term.max() < 1e-18 * acc.min():
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
            if k % 8 == 0 and (not active.any() or np.abs(term[active]).max() < 1e-17):
                break
        out[~small] = acc / np.sqrt(2.0 * np.pi * xb)

    return float(out[0]) if scalar else out.reshape(np.shape(x))


# --------------------------------------------------------------------------
# Gaussian moment helpers (scalar)
# --------------------------------------------------------------------------

def _split_moments(m: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """The moments of x^k N(x; m, v), k = 0..4, over (-inf, 0] and over
    [0, inf): the full-line moments E[x^k] less the half-line ones."""
    sig = math.sqrt(v)
    i = np.empty(5)
    n0 = math.exp(-0.5 * m * m / v) / math.sqrt(2.0 * math.pi * v)
    i[0] = 0.5 * (1.0 + math.erf(m / (sig * math.sqrt(2.0))))
    i[1] = m * i[0] + v * n0
    for k in range(1, 4):
        i[k + 1] = m * i[k] + k * v * i[k - 1]
    full = np.array([
        1.0,
        m,
        m * m + v,
        m**3 + 3 * m * v,
        m**4 + 6 * m * m * v + 3 * v * v,
    ])
    return full - i, i


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
# the device in closed form
# --------------------------------------------------------------------------

# The orbital pairs 00, 01 and 11 spread over a symmetric 2x2 table.
_PAIRS = [[0, 1], [1, 2]]


def _device_integrals(params: DeviceParams):
    """(basis, kinetic, confinement, bump, coulomb) of one device from one
    basis: the (2, 2) one-body tables at its own detuning and xi = 0, the
    bump's (2, 2) confinement per meV of xi, and the (2, 2, 2, 2) tensor
    <ij|v|kl> = (ik|jl) filled from its four distinct entries."""
    basis = build_basis(params)
    consts = derive_constants(params)
    a, aB2 = params.a, basis.a_B**2
    r = a**2 / aB2                           # |R_1 - R_2|^2 / (4 a_B^2)
    s = np.array([1.0, math.exp(-r), 1.0])   # s_ij of the pairs 00, 01, 11
    kinetic = 0.5 * params.hbar_omega0 * s * (1.0 - np.array([0.0, r, 0.0]))

    v = 0.5 * aB2  # per-axis variance of the pair Gaussian
    q_left, q_right = (_shift_poly(p.poly_coeffs(), p.center) for p in quartic_pieces(params))

    def e_vx(mx: float) -> float:  # V_x over the pair Gaussian at P_ij = (mx, 0)
        lower, upper = _split_moments(mx, v)
        return float(q_left @ lower + q_right @ upper)

    # transverse harmonic: (m w0^2 / 2) E[y^2], P_y = 0 => E[y^2] = v
    e_y = 0.5 * consts.m_omega2 * v
    confinement = s * (np.array([e_vx(-a), e_vx(0.0), e_vx(a)]) + e_y)

    # Gaussian bump xi exp(-w |r|^2), w = 8/a^2, at |P_ij|^2 = a^2, 0, a^2
    w = 8.0 / a**2
    f = 1.0 / (1.0 + w * aB2)
    on_dot = math.exp(-w * f * a**2)
    bump = s * f * np.array([on_dot, 1.0, on_dot])

    # (00|00), (00|11), (00|01), (01|01): the pair densities' centers sit
    # 0, 2a, a and 0 apart.  <ij|v|kl> = (ik|jl) is mixed or exchange when
    # one or both of (ik), (jl) span the dots, else on-site or inter-dot.
    pref = consts.coulomb_scale * math.sqrt(math.pi / 2.0) / basis.a_B
    damp = np.array([1.0, 1.0, s[1], math.exp(-2.0 * r)])
    distinct = pref * damp * i0e(np.array([0.0, r, 0.25 * r, 0.0]))
    i, j, k, l = np.indices((2, 2, 2, 2))
    across = abs(i - k) + abs(j - l)
    coulomb = distinct[np.where(across, across + 1, abs(i - j))]
    return basis, kinetic[_PAIRS], confinement[_PAIRS], bump[_PAIRS], coulomb


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
    """The device's tables at its own detuning and barrier amplitude:
    _device_integrals with xi times the bump added, and the impurity's."""
    _, kinetic, confinement, bump, coulomb = _device_integrals(params)
    W = None if imp is None else impurity_table([imp], params)[0]
    return IntegralTables(kinetic=kinetic, confinement=confinement + params.xi * bump,
                          coulomb=coulomb, impurity=W)


def kinetic_element(i: int, j: int, params: DeviceParams) -> float:
    """<phi_i| -hbar^2/(2 m*) lap |phi_j>  [meV]."""
    return float(build_tables(params).kinetic[i, j])


def potential_element(i: int, j: int, params: DeviceParams) -> float:
    """<phi_i| V |phi_j> for the full confinement potential  [meV]."""
    return float(build_tables(params).confinement[i, j])


def coulomb_element(i: int, j: int, k: int, l: int, params: DeviceParams) -> float:
    """(ij|kl) = integral of rho_ij(r1) rho_kl(r2) e^2/(4 pi kappa r12),
    with rho_ij = phi_i phi_j  [meV]."""
    return float(build_tables(params).coulomb[i, k, j, l])


def impurity_element(i: int, j: int, imp: Impurity, params: DeviceParams) -> float:
    """<phi_i| (-q) e^2/(4 pi kappa |r - R_c|) |phi_j>  [meV].

    Positive (repulsive) for q = -1 against the -e electrons.
    """
    return float(impurity_table([imp], params)[0, i, j])


def impurity_table(imps, params: DeviceParams) -> np.ndarray:
    """(K, 2, 2) matrices of impurity_element over the dot basis, one per
    impurity of the sequence imps  [meV]; one i0e call evaluates the 3K
    distinct Bessel factors (W[0, 1] = W[1, 0], whose arguments are equal).

    Overflow is not warned: an impurity too far for its squared distance
    to be finite has elements 0, and one whose charge makes an element
    overflow has a non-finite entry (solve_stack fails its points by
    name)."""
    basis = build_basis(params)
    consts = derive_constants(params)
    a, aB2 = params.a, basis.a_B**2
    s = np.array([1.0, math.exp(-a**2 / aB2), 1.0])
    midpoints = np.array([[-2.0 * a, 0.0], [0.0, 0.0], [2.0 * a, 0.0]])  # R_i + R_j
    rc = np.array([[imp.x_c, imp.y_c] for imp in imps]).reshape(-1, 1, 2)  # (K, 1, 2)
    pref = consts.coulomb_scale * math.sqrt(math.pi) / basis.a_B
    charge = np.array([-imp.q for imp in imps])
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
        arg = np.sum((midpoints - 2.0 * rc) ** 2, axis=-1) / (8.0 * aB2)  # (K, 3)
        W = charge[:, None] * pref * s * i0e(arg)
    return W[:, _PAIRS]
