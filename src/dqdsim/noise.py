"""Charge-noise metrics, matched-J calibration, chi, and quality factors."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .hamiltonian import AssemblyMode, exchange_J_ghz, hubbard_parameters, solve_many, unwrap
from .model import MEV_TO_GHZ, DeviceParams, Impurity, control_point

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


def _j_ghz(points, mode: AssemblyMode) -> list:
    """J [GHz] at each (params, imp) point from one stacked solve, or the
    exception that point raised."""
    return [res if isinstance(res, Exception) else res.J * MEV_TO_GHZ
            for res in solve_many(points, mode)]


def noise_records(controls, base: DeviceParams, imp: Impurity,
                  mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """The NoiseRecord of each (scheme, value) control: J with and without
    the impurity there, every point in one stacked solve.

    An entry is the exception its control raised instead; a control whose
    value is an exception (a failed calibration) passes it through."""
    controls = list(controls)
    out: list = [None] * len(controls)
    points, owners = [], []
    for i, (scheme, value) in enumerate(controls):
        if isinstance(value, Exception):
            out[i] = value
            continue
        try:
            params = control_point(scheme, base, value)
        except ValueError as exc:
            out[i] = exc
            continue
        points += [(params, None), (params, imp)]
        owners.append(i)
    js = _j_ghz(points, mode)
    for i, j_clean, j_imp in zip(owners, js[0::2], js[1::2]):
        scheme, value = controls[i]
        try:
            j_clean, j_imp = unwrap([j_clean, j_imp])
            out[i] = NoiseRecord(
                scheme=scheme, control_mev=value,
                J_clean_ghz=j_clean, J_imp_ghz=j_imp,
                delta_J_ghz=j_imp - j_clean,
                rel_noise=(j_imp - j_clean) / j_clean,
                impurity=imp,
            )
        except Exception as exc:  # the point's own failure
            out[i] = exc
    return out


def delta_J(scheme: str, value: float, base: DeviceParams,
            imp: Impurity, mode: AssemblyMode = AssemblyMode.PAPER) -> NoiseRecord:
    """Evaluate J with and without the impurity at one control point."""
    (rec,) = unwrap(noise_records([(scheme, value)], base, imp, mode))
    return rec


# ---------------------------------------------------------------------------
# calibration (clean device; J is impurity-independent here)
# ---------------------------------------------------------------------------

class CalibrationError(ValueError):
    pass


TILT_BRACKET = (0.0, 1.5)
BARRIER_BRACKET = (0.3, 1.3)
_BRACKETS = {"tilt": TILT_BRACKET, "barrier": BARRIER_BRACKET}
_CAL_MAXITER = 200


def _brent(xpre, xcur, fpre, fcur, xtol, rtol, maxiter, label):
    """Root of f between xpre and xcur, where f takes the values fpre and
    fcur of opposite signs: Brent's method, step for step as the C solver
    behind scipy.optimize.brentq, so the roots are bit-identical.

    A generator: it yields each x where it needs f and receives f(x), once
    per step and never at the ends, and returns (root, f(root))."""
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
        fcur = yield xcur
    raise CalibrationError(f"{label}: no root within {maxiter} iterations; last at {xcur!r} meV")


def _brentq(f, xpre, xcur, fpre, fcur, xtol, rtol, maxiter, label):
    """_brent with f evaluated at each step as it asks: returns (root, f(root))."""
    steps = _brent(xpre, xcur, fpre, fcur, xtol, rtol, maxiter, label)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def _calibration(j_target_ghz, lo, hi, j_lo, j_hi, label):
    """One calibration on the bracket [lo, hi], given the clean J [GHz] at
    its ends.  A generator: it yields each control value whose clean J it
    needs and receives that J, or the exception its solve raised; it
    returns the control value at which J meets the target."""
    def miss(c, j):
        if isinstance(j, Exception):
            raise j
        d = j - j_target_ghz
        if math.isnan(d):
            raise CalibrationError(f"{label}: J - target is NaN at {c!r} meV "
                                   f"for target {j_target_ghz:.6g} GHz")
        return d

    f_lo = miss(lo, j_lo)
    f_hi = miss(hi, j_hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise CalibrationError(
            f"{label}: target {j_target_ghz:.6g} GHz outside "
            f"[{min(f_lo, f_hi) + j_target_ghz:.6g}, {max(f_lo, f_hi) + j_target_ghz:.6g}] GHz "
            f"reachable on the bracket [{lo}, {hi}] meV")
    steps = _brent(lo, hi, f_lo, f_hi, xtol=1e-13, rtol=8.9e-16,
                   maxiter=_CAL_MAXITER, label=label)
    try:
        c = next(steps)
        while True:
            c = steps.send(miss(c, (yield c)))
    except StopIteration as stop:
        root, f_root = stop.value
    if abs(f_root) > 1e-6 * j_target_ghz:
        raise CalibrationError(
            f"{label}: root-finder landed at J = {f_root + j_target_ghz:.9g} GHz "
            f"for target {j_target_ghz:.9g} GHz")
    return float(root)


def calibrate_many(requests, base: DeviceParams = DeviceParams(),
                   mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """The control value of each (scheme, target_ghz) request at which the
    clean J meets the target.

    Each calibration takes the steps of Brent's method on its scheme's
    bracket, and all of them advance in lockstep: every round evaluates
    the pending step of each unfinished calibration in one stacked solve.
    J at the bracket ends does not depend on the target, so it is
    evaluated once per end.  An entry is the exception its calibration
    raised instead."""
    requests = list(requests)
    for scheme, _ in requests:
        if scheme not in _BRACKETS:
            raise ValueError(f"unknown scheme {scheme!r}")

    def point(k, value):
        return control_point(requests[k][0], base, value), None

    ends = {point(k, c): None for k, (scheme, _) in enumerate(requests)
            for c in _BRACKETS[scheme]}
    ends = dict(zip(ends, _j_ghz(list(ends), mode)))
    steps = {k: _calibration(target, *_BRACKETS[scheme],
                             *(ends[point(k, c)] for c in _BRACKETS[scheme]),
                             label=f"calibrate_{scheme}")
             for k, (scheme, target) in enumerate(requests)}
    out: list = [None] * len(requests)
    received = dict.fromkeys(steps)  # None starts each generator
    while received:
        asks = {}
        for k, j in received.items():
            try:
                asks[k] = steps[k].send(j)
            except StopIteration as stop:
                out[k] = stop.value
            except Exception as exc:  # this calibration's own failure
                out[k] = exc
        points = [point(k, c) for k, c in asks.items()]
        received = dict(zip(asks, _j_ghz(points, mode))) if points else {}
    return out


def calibrate_tilt(j_target_ghz: float,
                   base: DeviceParams = DeviceParams(),
                   mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Detuning epsilon* >= 0 with clean J(epsilon*) = target at the
    device's own barrier amplitude."""
    (eps,) = unwrap(calibrate_many([("tilt", j_target_ghz)], base, mode))
    return eps


def calibrate_barrier(j_target_ghz: float,
                      base: DeviceParams = DeviceParams(),
                      mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Barrier amplitude xi* with clean J(xi*) = target (J decreasing in xi)."""
    (xi,) = unwrap(calibrate_many([("barrier", j_target_ghz)], base, mode))
    return xi


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


def improvement_factors(targets, imp: Impurity,
                        base: DeviceParams = DeviceParams(),
                        mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """improvement_factor at each target: every calibration in lockstep,
    then both noise records of every target in one stacked solve.

    An entry is its target's first exception instead, in the order tilt
    calibration, barrier calibration, tilt record, barrier record."""
    targets = list(targets)
    requests = [(scheme, j) for j in targets for scheme in ("tilt", "barrier")]
    controls = calibrate_many(requests, base, mode)
    records = noise_records([(scheme, c) for (scheme, _), c in zip(requests, controls)],
                            base, imp, mode)
    out = []
    for k, j in enumerate(targets):
        steps = controls[2 * k:2 * k + 2] + records[2 * k:2 * k + 2]
        failed = [r for r in steps if isinstance(r, Exception)]
        out.append(failed[0] if failed else _chi(j, *steps[2:]))
    return out


def _chi(j_target_ghz: float, rec_t: NoiseRecord, rec_b: NoiseRecord) -> ChiRecord:
    if rec_b.rel_noise == 0.0:
        chi = math.inf if rec_t.rel_noise != 0.0 else 1.0
    else:
        chi = abs(rec_t.rel_noise) / abs(rec_b.rel_noise)
    return ChiRecord(J_ghz=j_target_ghz, rel_tilt=rec_t.rel_noise,
                     rel_barrier=rec_b.rel_noise, chi=chi)


def improvement_factor(j_target_ghz: float, imp: Impurity,
                       base: DeviceParams = DeviceParams(),
                       mode: AssemblyMode = AssemblyMode.PAPER) -> ChiRecord:
    """chi = (dJ/J)_tilt / (dJ/J)_barrier at matched clean J.

    A vanishing barrier noise is signaled by chi = +inf rather than an
    exception: matched-J comparisons remain well-defined pointwise.
    """
    (rec,) = unwrap(improvement_factors([j_target_ghz], imp, base, mode))
    return rec


def matched_j_grid(base: DeviceParams, n: int = 25, j_max_ghz: float = 1.0,
                   mode: AssemblyMode = AssemblyMode.PAPER) -> np.ndarray:
    """Geometric grid from the common starting point J0 up to j_max."""
    if n < 2:
        raise ValueError(f"--points must be at least 2, got {n}")
    if not 0 < j_max_ghz < math.inf:
        raise ValueError(f"--j-max must be positive and finite, got {j_max_ghz}")
    j0 = exchange_J_ghz(control_point("tilt", base, 0.0), None, mode)
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
          mode: AssemblyMode = AssemblyMode.PAPER) -> list[NoiseRecord]:
    """One NoiseRecord per control value, in input order, from one stacked
    solve; per-point errors are captured on the record instead of aborting
    the sweep."""
    values = [float(v) for v in values]
    records = noise_records([(scheme, v) for v in values], base, imp, mode)
    return [rec if isinstance(rec, NoiseRecord) else NoiseRecord(
                scheme=scheme, control_mev=value,
                J_clean_ghz=math.nan, J_imp_ghz=math.nan,
                delta_J_ghz=math.nan, rel_noise=math.nan,
                impurity=imp, error=f"{type(rec).__name__}: {rec}")
            for value, rec in zip(values, records)]


# ---------------------------------------------------------------------------
# sweet spot
# ---------------------------------------------------------------------------

def sweet_spot_check(base: DeviceParams = DeviceParams(),
                     mode: AssemblyMode = AssemblyMode.PAPER,
                     h: float = 1e-3) -> tuple[float, float]:
    """(dJ/d eps at eps = 0 [GHz/meV], truncation-error estimate) at the
    device's own barrier amplitude.

    Central differences at steps h and h/2 combined by Richardson
    extrapolation; the difference of the two estimates bounds the
    leading truncation term.
    """
    j_plus, j_minus, j_half_plus, j_half_minus = unwrap(_j_ghz(
        [(control_point("tilt", base, e), None) for e in (+h, -h, +h / 2, -h / 2)], mode))
    d1 = (j_plus - j_minus) / (2.0 * h)
    d2 = (j_half_plus - j_half_minus) / h
    richardson = (4.0 * d2 - d1) / 3.0
    return richardson, abs(d2 - d1) / 3.0
