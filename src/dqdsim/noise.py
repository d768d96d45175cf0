"""Charge-noise metrics, matched-J calibration, chi, and quality factors."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .hamiltonian import AssemblyMode, exchange_J_ghz, hubbard_parameters
from .model import DeviceParams, Impurity, control_point

DEFAULT_IMPURITY_SCALE = 6.0  # R_c = (-6a, 6a) is the reference noise source


def default_impurity(params: DeviceParams, q: float = -1.0) -> Impurity:
    return Impurity(-DEFAULT_IMPURITY_SCALE * params.a, DEFAULT_IMPURITY_SCALE * params.a, q)


@dataclass(frozen=True)
class NoiseRecord:
    scheme: str
    control_mev: float
    J_clean_ghz: float
    J_imp_ghz: float
    delta_J_ghz: float
    rel_noise: float
    impurity: Impurity | None = None
    error: str | None = None

    CSV_FIELDS = ("scheme", "control_mev", "J_clean_ghz", "J_imp_ghz",
                  "delta_J_ghz", "rel_noise")


def delta_J(scheme: str, value: float, base: DeviceParams,
            imp: Impurity, mode: AssemblyMode = AssemblyMode.PAPER,
            xi_fixed: float = 1.3) -> NoiseRecord:
    """Evaluate J with and without the impurity at one control point."""
    params = control_point(scheme, base, value, xi_fixed)
    j_clean = exchange_J_ghz(params, None, mode)
    j_imp = exchange_J_ghz(params, imp, mode)
    return NoiseRecord(
        scheme=scheme, control_mev=value,
        J_clean_ghz=j_clean, J_imp_ghz=j_imp,
        delta_J_ghz=j_imp - j_clean,
        rel_noise=(j_imp - j_clean) / j_clean,
        impurity=imp,
    )


# ---------------------------------------------------------------------------
# calibration (clean device; J is impurity-independent here)
# ---------------------------------------------------------------------------

class CalibrationError(ValueError):
    pass


TILT_BRACKET = (0.0, 1.5)
BARRIER_BRACKET = (0.3, 1.3)
_CAL_MAXITER = 200


def _brentq(f, xpre, xcur, fpre, fcur, xtol, rtol, maxiter, label):
    """Root of f between xpre and xcur, where f takes the values fpre and
    fcur of opposite signs: Brent's method, step for step as the C solver
    behind scipy.optimize.brentq, so the roots are bit-identical.  Returns
    (root, f(root)); f is evaluated once per step and never at the ends."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise CalibrationError(f"{label}: no root within {maxiter} iterations; last at {xcur!r} meV")


def _calibrate(j_target_ghz, f_of_control, lo, hi, label):
    def miss(c):
        d = f_of_control(c) - j_target_ghz
        if math.isnan(d):
            raise CalibrationError(f"{label}: J - target is NaN at {c!r} meV "
                                   f"for target {j_target_ghz:.6g} GHz")
        return d

    f_lo = miss(lo)
    f_hi = miss(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise CalibrationError(
            f"{label}: target {j_target_ghz:.6g} GHz outside "
            f"[{min(f_lo, f_hi) + j_target_ghz:.6g}, {max(f_lo, f_hi) + j_target_ghz:.6g}] GHz "
            f"reachable on the bracket [{lo}, {hi}] meV")
    root, f_root = _brentq(miss, lo, hi, f_lo, f_hi, xtol=1e-13, rtol=8.9e-16,
                           maxiter=_CAL_MAXITER, label=label)
    if abs(f_root) > 1e-6 * j_target_ghz:
        raise CalibrationError(
            f"{label}: root-finder landed at J = {f_root + j_target_ghz:.9g} GHz "
            f"for target {j_target_ghz:.9g} GHz")
    return float(root)


def _clean_j(scheme: str, base: DeviceParams, mode: AssemblyMode, xi_fixed: float = 1.3):
    """Clean J [GHz] as a function of the scheme's control value."""
    return lambda value: exchange_J_ghz(control_point(scheme, base, value, xi_fixed), None, mode)


def calibrate_tilt(j_target_ghz: float, xi_fixed: float = 1.3,
                   base: DeviceParams = DeviceParams(),
                   mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Detuning epsilon* >= 0 with clean J(epsilon*) = target."""
    return _calibrate(j_target_ghz, _clean_j("tilt", base, mode, xi_fixed),
                      *TILT_BRACKET, label="calibrate_tilt")


def calibrate_barrier(j_target_ghz: float,
                      base: DeviceParams = DeviceParams(),
                      mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Barrier amplitude xi* with clean J(xi*) = target (J decreasing in xi)."""
    return _calibrate(j_target_ghz, _clean_j("barrier", base, mode),
                      *BARRIER_BRACKET, label="calibrate_barrier")


# ---------------------------------------------------------------------------
# matched-J comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiRecord:
    J_ghz: float
    rel_tilt: float
    rel_barrier: float
    chi: float

    CSV_FIELDS = ("J_ghz", "rel_tilt", "rel_barrier", "chi")


def improvement_factor(j_target_ghz: float, imp: Impurity,
                       base: DeviceParams = DeviceParams(),
                       mode: AssemblyMode = AssemblyMode.PAPER,
                       xi_fixed: float = 1.3) -> ChiRecord:
    """chi = (dJ/J)_tilt / (dJ/J)_barrier at matched clean J.

    A vanishing barrier noise is signaled by chi = +inf rather than an
    exception: matched-J comparisons remain well-defined pointwise.
    """
    eps = calibrate_tilt(j_target_ghz, xi_fixed, base, mode)
    xi = calibrate_barrier(j_target_ghz, base, mode)
    rec_t = delta_J("tilt", eps, base, imp, mode, xi_fixed=xi_fixed)
    rec_b = delta_J("barrier", xi, base, imp, mode)
    if rec_b.rel_noise == 0.0:
        chi = math.inf if rec_t.rel_noise != 0.0 else 1.0
    else:
        chi = abs(rec_t.rel_noise) / abs(rec_b.rel_noise)
    return ChiRecord(J_ghz=j_target_ghz, rel_tilt=rec_t.rel_noise,
                     rel_barrier=rec_b.rel_noise, chi=chi)


def matched_j_grid(base: DeviceParams, n: int = 25, j_max_ghz: float = 1.0,
                   mode: AssemblyMode = AssemblyMode.PAPER) -> np.ndarray:
    """Geometric grid from the common starting point J0 up to j_max."""
    if n < 2:
        raise ValueError(f"--points must be at least 2, got {n}")
    if not 0 < j_max_ghz < math.inf:
        raise ValueError(f"--j-max must be positive and finite, got {j_max_ghz}")
    j0 = _clean_j("tilt", base, mode, base.xi)(0.0)
    if not 0 < j0 < math.inf:
        raise ValueError(f"{AssemblyMode(mode).value} mode: the matched-J grid starts at "
                         f"J0 = J(epsilon = 0) = {j0:.6g} GHz, which must be positive and finite")
    return j0 * (j_max_ghz / j0) ** (np.arange(n) / (n - 1))


# ---------------------------------------------------------------------------
# first-order perturbative noise estimate
# ---------------------------------------------------------------------------

def hubbard_noise_estimate(params: DeviceParams, imp: Impurity) -> float:
    """First-order dJ/J: (2/t) dt + [2 eps/(dU^2 - eps^2)] deps,
    with dt = -Z_t12 and deps = Z_t1 - Z_t2 (effective depths
    mu_i' = mu_i - Z_ti and eps = mu2 - mu1 here)."""
    hp = hubbard_parameters(params, imp=imp)
    eps = hp.detuning
    du = hp.delta_u
    denom = du * du - eps * eps
    if abs(denom) <= 1e-9 * du * du:
        raise ZeroDivisionError(
            f"|eps| = {abs(eps):.6g} meV at the charge-transfer pole dU = {du:.6g} meV; "
            "the first-order noise decomposition is invalid there")
    d_t = -hp.Zt12
    d_eps = hp.Zt1 - hp.Zt2
    return 2.0 * d_t / hp.t + 2.0 * eps * d_eps / denom


# ---------------------------------------------------------------------------
# quality factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityModel:
    """Quasistatic Gaussian J-noise: sigma_tot^2 = (sigma_rel J)^2 + sigma_floor^2."""
    sigma_rel: float
    sigma_floor_ghz: float = 0.0


def sigma_total(j_ghz: float, model: QualityModel) -> float:
    return math.hypot(model.sigma_rel * j_ghz, model.sigma_floor_ghz)


def quality_factor(j_ghz: float, model: QualityModel) -> float:
    """Q = J / (sqrt(2) pi sigma_tot): oscillations until the ensemble
    envelope exp(-2 pi^2 sigma^2 t^2) decays to 1/e.  Returns +inf for a
    noiseless model (signaled, not raised)."""
    if j_ghz <= 0:
        raise ValueError(f"J must be positive, got {j_ghz}")
    sig = sigma_total(j_ghz, model)
    if sig == 0.0:
        return math.inf
    return j_ghz / (math.sqrt(2.0) * math.pi * sig)


def envelope_closed(sigma_ghz: float, t_ns: float) -> float:
    return math.exp(-2.0 * math.pi**2 * sigma_ghz**2 * t_ns**2)


def envelope_numeric(j_ghz: float, sigma_ghz: float, t_ns: float, n: int = 80) -> float:
    """|E exp(2 pi i J' t)| for J' ~ N(J, sigma^2) by Gauss-Hermite."""
    u, w = hermgauss(n)
    phase = 2.0 * math.pi * (j_ghz + math.sqrt(2.0) * sigma_ghz * u) * t_ns
    val = np.sum(w * np.exp(1j * phase)) / math.sqrt(math.pi)
    return float(abs(val))


def t_star_ns(sigma_ghz: float) -> float:
    if sigma_ghz == 0.0:
        return math.inf
    return 1.0 / (math.sqrt(2.0) * math.pi * sigma_ghz)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(scheme: str, values, base: DeviceParams, imp: Impurity,
          mode: AssemblyMode = AssemblyMode.PAPER, xi_fixed: float = 1.3) -> list[NoiseRecord]:
    """One NoiseRecord per control value, in input order; per-point errors
    are captured on the record instead of aborting the sweep."""
    records = []
    for value in map(float, values):
        try:
            records.append(delta_J(scheme, value, base, imp, mode, xi_fixed=xi_fixed))
        except Exception as exc:  # record and continue
            records.append(NoiseRecord(
                scheme=scheme, control_mev=value,
                J_clean_ghz=math.nan, J_imp_ghz=math.nan,
                delta_J_ghz=math.nan, rel_noise=math.nan,
                impurity=imp, error=f"{type(exc).__name__}: {exc}"))
    return records


# ---------------------------------------------------------------------------
# sweet spot
# ---------------------------------------------------------------------------

def sweet_spot_check(xi: float, base: DeviceParams = DeviceParams(),
                     mode: AssemblyMode = AssemblyMode.PAPER,
                     h: float = 1e-3) -> tuple[float, float]:
    """(dJ/d eps at eps = 0 [GHz/meV], truncation-error estimate).

    Central differences at steps h and h/2 combined by Richardson
    extrapolation; the difference of the two estimates bounds the
    leading truncation term.
    """
    j = _clean_j("tilt", base, mode, xi)
    d1 = (j(+h) - j(-h)) / (2.0 * h)
    d2 = (j(+h / 2) - j(-h / 2)) / h
    richardson = (4.0 * d2 - d1) / 3.0
    return richardson, abs(d2 - d1) / 3.0
