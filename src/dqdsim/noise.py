"""Charge-noise metrics, matched-J calibration, chi, and quality factors.

Noise records are computed as columns of float64 arrays, NaN where a point
failed, with a map from each failed row to its exception (see _table); the
public calls raise the exception of their first failed row instead."""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .hamiltonian import (AssemblyMode, _device, _model, _raise_first, hubbard_parameters,
                          in_ghz, solve_stack)
from .model import MEV_TO_GHZ, DeviceParams, Impurity, control_point, control_values

DEFAULT_IMPURITY_SCALE = 6.0  # R_c = (-6a, 6a) is the reference noise source
MAX_GRID_POINTS = 100_000  # the most points of a matched-J grid or a CLI range


def default_impurity(params: DeviceParams, q: float = -1.0) -> Impurity:
    return Impurity(-DEFAULT_IMPURITY_SCALE * params.a, DEFAULT_IMPURITY_SCALE * params.a, q)


class NoiseRecord(NamedTuple):
    scheme: str
    control_mev: float
    J_clean_ghz: float
    J_imp_ghz: float
    delta_J_ghz: float
    rel_noise: float


def _j_ghz(base: DeviceParams, settings, mode: AssemblyMode, rows=None,
           impurities=()) -> tuple[np.ndarray, dict]:
    """(J, failed): J [GHz] at each (epsilon, xi) setting (n, 2) of the device
    base from one solve_stack (rows and impurities as there), NaN where failed
    maps the setting to its exception, a J too large for GHz included."""
    epsilon, xi = np.asarray(settings, dtype=float).reshape(-1, 2).T
    try:
        J, _, _, failed = solve_stack(base, epsilon, xi, rows, impurities, mode)
    except ValueError as exc:  # the device's own failure
        return np.full(len(epsilon), math.nan), dict.fromkeys(range(len(epsilon)), exc)
    ghz, over = in_ghz(J)
    return ghz, {**failed, **over}


def _table(controls, js, failed, clean, dirty, out: dict) -> tuple[np.ndarray, dict]:
    """(table, out): the NoiseRecord columns J_clean, J_imp, delta_J and
    rel_noise (4, n) of rows at (scheme, value) controls whose clean J and J
    with the impurity are js[clean[i]] and js[dirty[i]] (_j_ghz's J and
    failed), or -1 where out already fails the row.  A row that fails is
    NaN, and out maps it to its clean solve's exception, else its impurity
    solve's, else a ValueError where J_clean = 0."""
    table = np.full((4, len(clean)), math.nan)
    table[:2] = np.append(js, math.nan)[np.array([clean, dirty], dtype=int)]
    if failed:
        bad = list(failed)
        for i in np.flatnonzero(np.isin(clean, bad) | np.isin(dirty, bad)).tolist():
            out.setdefault(i, failed.get(clean[i], failed.get(dirty[i])))
    for i in np.flatnonzero(table[0] == 0.0).tolist():
        out.setdefault(i, ValueError(f"J_clean = 0 at {controls[i][0]} control "
                                     f"{controls[i][1]:.12g} meV, so rel_noise = "
                                     "delta_J / J_clean is undefined"))
    table[:, list(out)] = math.nan
    with np.errstate(over="ignore"):
        table[2] = table[1] - table[0]
        table[3] = table[2] / table[0]
    return table, out


def _noise_table(controls, base: DeviceParams, imp: Impurity,
                 mode: AssemblyMode) -> tuple[np.ndarray, dict]:
    """The _table of (scheme, value) controls, every distinct setting solved
    once clean and once with the impurity in one stack; a row whose control
    raises ValueError fails with it first."""
    failed, index, at = {}, {}, []
    for i, (scheme, value) in enumerate(controls):
        try:
            at.append(index.setdefault(control_values(scheme, base, value), len(index)))
        except ValueError as exc:
            failed[i] = exc
            at.append(-1)
    n, at = len(index), np.array(at, dtype=int)
    points = np.fromiter(itertools.chain.from_iterable(index), float, 2 * n).reshape(-1, 2)
    js, solved = _j_ghz(base, np.tile(points, (2, 1)), mode, np.repeat([0, 1], n), [imp])
    return _table(controls, js, solved, at, np.where(at < 0, -1, at + n), failed)


def noise_records(controls, base: DeviceParams, imp: Impurity,
                  mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """The NoiseRecord of each (scheme, value) control: J with and without
    the impurity there (see _noise_table).  Raises the exception of the
    first control that fails."""
    if imp is None:
        raise ValueError("noise_records needs an impurity, got imp=None")
    controls = list(controls)
    table, failed = _noise_table(controls, base, imp, mode)
    return list(map(NoiseRecord._make, zip(*zip(*controls), *_raise_first(failed, table))))


def delta_J(scheme: str, value: float, base: DeviceParams,
            imp: Impurity, mode: AssemblyMode = AssemblyMode.PAPER) -> NoiseRecord:
    """Evaluate J with and without the impurity at one control point."""
    (rec,) = noise_records([(scheme, value)], base, imp, mode)
    return rec


# ---------------------------------------------------------------------------
# calibration (clean device; J is impurity-independent here)
# ---------------------------------------------------------------------------

class CalibrationError(ValueError):
    pass


TILT_BRACKET = (0.0, 1.5)
BARRIER_BRACKET = (0.3, 1.3)


def _bracket(scheme: str, base: DeviceParams) -> tuple[float, float]:
    """The control interval [meV] searched on the device base: TILT_BRACKET, or
    BARRIER_BRACKET widened to hold a finite base.xi, where J0 is met exactly."""
    if scheme == "barrier" and math.isfinite(base.xi):
        return min(BARRIER_BRACKET[0], base.xi), max(BARRIER_BRACKET[1], base.xi)
    return TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET


def _quadratic(a, b, c):
    """Both roots (2, ...) of a y^2 + b y + c = 0, each without cancellation;
    a root at infinity (a = 0) comes out inf or NaN."""
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    return np.stack([q / a, c / q])


def _roots(tilt, targets, lo, hi, base: DeviceParams, mode: AssemblyMode) -> np.ndarray:
    """The control value at which the clean J meets each target [GHz], in
    closed form: a detuning where tilt is set, else a barrier amplitude.

    -J is the lowest eigenvalue of the T0-shifted singlet block
    B = [[U2 - U12 - D + K, s2, K], [s2, 2K, s1], [K, s1, U1 - U12 + D + K]]
    over {S(0,2), S(1,1), S(2,0)}, with D = mu2 - mu1, s_i = sqrt(2) h_i and
    the hops h_i = c_i - t (paper mode: K = c_i = 0).  So det(B + J) = 0 is
    a quadratic in D at the device's barrier, and at epsilon = 0 one in the
    hop t, which is affine in xi.  Of its two roots, the one nearest the
    bracket [lo, hi] is taken."""
    x = targets / MEV_TO_GHZ
    # A non-finite base.xi makes every tilt root NaN, unwarned; the tilt
    # bracket ends then fail on it by name.
    xi0 = base.xi if math.isfinite(base.xi) else math.nan
    # The model at xi = base.xi, 0 and 1 of the device at epsilon = xi = 0.
    hp = _model(_device(control_point("barrier", base, 0.0)), np.zeros(3),
                np.array([xi0, 0.0, 1.0]), np.zeros(3, dtype=int), ())
    k, c1, c2 = ((hp.exchange_k, hp.corr_hop1, hp.corr_hop2) if mode == AssemblyMode.FULL
                 else (0.0, 0.0, 0.0))
    a1, a2 = hp.U1 - hp.U12, hp.U2 - hp.U12
    # The diagonal of B + J is (P - D, m, Q + D), so with A = P - D and C = Q + D
    # det(B + J) = m (A C - K^2) - s1^2 A - s2^2 C + 2 K s1 s2.  A root at
    # infinity, or of a target out of reach, comes out inf or NaN unwarned.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P, Q, m = a2 + k + x, a1 + k + x, 2.0 * k + x
        h1, h2 = c1 - hp.t[0], c2 - hp.t[0]
        d_star = _quadratic(-m, m * (a2 - a1) + 2.0 * (h1 * h1 - h2 * h2),
                            m * (P * Q - k * k) - 2.0 * (h1 * h1 * P + h2 * h2 * Q)
                            + 4.0 * k * h1 * h2)
        t_star = _quadratic(4.0 * k - 2.0 * (P + Q), 4.0 * (P * c1 + Q * c2 - k * (c1 + c2)),
                            m * (P * Q - k * k) - 2.0 * (P * c1 * c1 + Q * c2 * c2)
                            + 4.0 * k * c1 * c2)
        eps_star = d_star - (hp.mu2[0] - hp.mu1[0])
        xi_star = (t_star - hp.t[1]) / (hp.t[2] - hp.t[1])
    roots = np.where(tilt, eps_star, xi_star)
    outside = np.fmax(np.fmax(lo - roots, roots - hi), 0.0)
    nearest = np.argmin(np.where(np.isnan(outside), np.inf, outside), axis=0)
    return np.take_along_axis(roots, nearest[None], axis=0)[0]


def _calibrated(requests, base: DeviceParams, mode: AssemblyMode, imps=()):
    """(controls, failed, table, out): the control value of each (scheme,
    target_ghz) request at which the clean J meets the target, NaN where its
    calibration fails and failed maps it to its exception; and the _table of
    every request's NoiseRecord at its control with each impurity of imps in
    turn (row k n + r for impurity k and request r of n), a failed
    calibration failing its rows with its exception.

    Every root comes in closed form (_roots).  One stack solves the clean J
    at every distinct bracket end, J0 point (epsilon = 0 on the device's own
    barrier) and root, and J with each impurity at every root, and at the
    others too given at most one impurity; a point settled on that was not
    solved with the impurities is, with each, in a second stack.  All
    requests settle or fail in one selection (see step below).  A device
    that cannot be built fails every entry with its error."""
    requests, imps = list(requests), list(imps)
    schemes = [scheme for scheme, _ in requests]
    for scheme in schemes:
        if scheme not in ("tilt", "barrier"):
            raise ValueError(f"unknown scheme {scheme!r}")
    brackets = {scheme: _bracket(scheme, base) for scheme in dict.fromkeys(schemes)}
    # J0, the tilt bracket's low end, is solved with the ends.
    at_j0 = control_values("tilt", base, 0.0)
    ends = list(dict.fromkeys([*(control_values(scheme, base, c)
                                 for scheme, bracket in brackets.items() for c in bracket), at_j0]))
    # Each request's bracket ends, their indices in ends, and side: 0 tilt, 1 barrier.
    tilt = np.array(schemes, dtype=str) == "tilt"
    side = np.where(tilt, 0, 1)
    lo, hi = np.array([brackets.get(s, (0.0, 0.0)) for s in ("tilt", "barrier")])[side].T
    i_lo, i_hi = np.array([[ends.index(control_values(s, base, c)) for c in brackets.get(s, ())]
                           or [0, 0] for s in ("tilt", "barrier")])[side].T
    targets = np.array([target for _, target in requests], dtype=float)
    n_req, n_imps = len(requests), len(imps)
    try:
        roots = _roots(tilt, targets, lo, hi, base, mode)
    except ValueError as exc:  # the device's own failure
        return (np.full(n_req, math.nan), dict.fromkeys(range(n_req), exc),
                np.full((4, n_imps * n_req), math.nan), dict.fromkeys(range(n_imps * n_req), exc))
    settings = np.concatenate([np.array(ends, dtype=float).reshape(-1, 2), np.stack(
        [np.where(tilt, roots, 0.0), np.where(tilt, base.xi, roots)], axis=1)])
    # J [GHz] clean at every setting, then with each impurity in turn at every
    # setting (given at most one impurity) or only at every root.
    n, start = len(settings), 0 if n_imps <= 1 else len(ends)
    js, failed = _j_ghz(base, np.concatenate([settings, np.tile(settings[start:], (n_imps, 1))]),
                        mode, np.arange(1 + n_imps).repeat([n] + [n - start] * n_imps), imps)
    j = js[:n]
    with np.errstate(invalid="ignore", over="ignore"):
        f_lo, f_hi, f_root = j[i_lo] - targets, j[i_hi] - targets, j[len(ends):] - targets
    # The first step at which each request settles or fails: 0 on the J0
    # point if J0 meets the target exactly; 1-2 on a failed solve or a NaN
    # miss at an end, the low end first; 3-4 on an end that meets it
    # exactly; 5 on a target not strictly between J at the ends; 6 as 1-2 at
    # the root; 7 on a miss there by more than 1e-6 of it; 8 on the root.
    step = np.argmax([j[ends.index(at_j0)] == targets, np.isnan(f_lo), np.isnan(f_hi),
                      f_lo == 0.0, f_hi == 0.0, (f_lo < 0) == (f_hi < 0), np.isnan(f_root),
                      np.abs(f_root) > 1e-6 * np.abs(targets), np.full(n_req, True)], axis=0)
    # The index in settings of each settled control, -1 where none.
    settled = np.choose(step, [ends.index(at_j0), -1, -1, i_lo, i_hi, -1, -1, -1,
                               np.arange(len(ends), n)])
    controls = np.where(settled < 0, math.nan, settings[settled, side])
    calibration_failed = {}
    for r in np.flatnonzero(settled < 0).tolist():
        (scheme, target), (b_lo, b_hi) = requests[r], brackets[requests[r][0]]
        if step[r] == 5:
            j_lo, j_hi = j[i_lo[r]].item(), j[i_hi[r]].item()
            exc = CalibrationError(
                f"calibrate_{scheme}: target {target:.6g} GHz outside [{min(j_lo, j_hi):.6g}, "
                f"{max(j_lo, j_hi):.6g}] GHz reachable on the bracket [{b_lo}, {b_hi}] meV")
        elif step[r] == 7:
            exc = CalibrationError(
                f"calibrate_{scheme}: root-finder landed at J = "
                f"{f_root[r].item() + target:.9g} GHz for target {target:.9g} GHz")
        else:
            at, c = {1: (i_lo[r].item(), b_lo), 2: (i_hi[r].item(), b_hi)}.get(
                step[r].item(), (len(ends) + r, roots[r].item()))
            exc = failed[at] if at in failed else CalibrationError(
                f"calibrate_{scheme}: J - target is NaN at {c!r} meV for target {target:.6g} GHz")
        calibration_failed[r] = exc
    # The index in js of J with the first impurity at each settled control,
    # and its stride to the next impurity.  An end settled on but not solved
    # with them (nor equal to a root) is, with each, in a second stack.
    first, stride, left = n + settled - start, np.full(n_req, n - start), []
    for e in dict.fromkeys(settled[(0 <= settled) & (settled < start)].tolist()):
        same = np.flatnonzero((settings[start:] == settings[e]).all(axis=1))
        if same.size:
            first[settled == e] = n + same[-1]
        else:
            first[settled == e] = len(js) + len(left)
            left.append(e)
    if left:
        stride[np.isin(settled, left)] = len(left)
        more, more_failed = _j_ghz(base, np.tile(settings[left], (n_imps, 1)), mode,
                                   np.arange(1, 1 + n_imps).repeat(len(left)), imps)
        failed.update((len(js) + i, exc) for i, exc in more_failed.items())
        js = np.append(js, more)
    dirty = np.where(settled < 0, -1, first + stride * np.arange(n_imps)[:, None]).ravel()
    rows = list(zip(schemes, controls.tolist())) * n_imps
    table, out = _table(rows, js, failed, np.tile(settled, n_imps), dirty, {
        k * n_req + r: exc for k in range(n_imps) for r, exc in calibration_failed.items()})
    return controls, calibration_failed, table, out


def calibrate_many(requests, base: DeviceParams = DeviceParams(),
                   mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """The control value of each (scheme, target_ghz) request at which the
    clean J meets the target, every request from one stacked solve (see
    _calibrated).  Raises the exception of the first request whose
    calibration fails."""
    controls, failed = _calibrated(requests, base, mode)[:2]
    return _raise_first(failed, controls)


def calibrate_tilt(j_target_ghz: float,
                   base: DeviceParams = DeviceParams(),
                   mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Detuning epsilon* >= 0 with clean J(epsilon*) = target at the
    device's own barrier amplitude."""
    (eps,) = calibrate_many([("tilt", j_target_ghz)], base, mode)
    return eps


def calibrate_barrier(j_target_ghz: float,
                      base: DeviceParams = DeviceParams(),
                      mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Barrier amplitude xi* with clean J(xi*) = target (J decreasing in xi)."""
    (xi,) = calibrate_many([("barrier", j_target_ghz)], base, mode)
    return xi


# ---------------------------------------------------------------------------
# matched-J comparison
# ---------------------------------------------------------------------------

class ChiRecord(NamedTuple):
    J_ghz: float
    rel_tilt: float
    rel_barrier: float
    chi: float


def _chi_table(targets, imp: Impurity, base: DeviceParams,
               mode: AssemblyMode) -> tuple[np.ndarray, dict]:
    """(table, failed): rel_tilt, rel_barrier and chi (3, n) at n targets
    [GHz] from one _calibrated call; a target that fails is NaN, and failed
    maps it, in row order, to its first exception in the order tilt
    calibration, barrier calibration, tilt record, barrier record."""
    _, calibration_failed, table, out = _calibrated(
        [(scheme, j) for j in targets for scheme in ("tilt", "barrier")], base, mode, [imp])
    failed: dict = {}
    for i, exc in [*sorted(calibration_failed.items()), *sorted(out.items())]:
        failed.setdefault(i // 2, exc)
    rel_t, rel_b = table[3].reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.where(rel_b == 0.0, np.where(rel_t != 0.0, math.inf, 1.0),
                       np.abs(rel_t) / np.abs(rel_b))
    table = np.array([rel_t, rel_b, chi])
    table[:, list(failed)] = math.nan
    return table, dict(sorted(failed.items()))


def improvement_factors(targets, imp: Impurity,
                        base: DeviceParams = DeviceParams(),
                        mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """improvement_factor at each target, every target's calibrations and
    noise records from one stacked solve (see _chi_table).  Raises the first
    failing target's first exception, in the order tilt calibration,
    barrier calibration, tilt record, barrier record."""
    if imp is None:
        raise ValueError("improvement_factors needs an impurity, got imp=None")
    targets = list(targets)
    table, failed = _chi_table(targets, imp, base, mode)
    return list(map(ChiRecord._make, zip(targets, *_raise_first(failed, table))))


def improvement_factor(j_target_ghz: float, imp: Impurity,
                       base: DeviceParams = DeviceParams(),
                       mode: AssemblyMode = AssemblyMode.PAPER) -> ChiRecord:
    """chi = |dJ/J|_tilt / |dJ/J|_barrier at matched clean J.

    A vanishing barrier noise is signaled by chi = +inf (1 if both vanish)
    rather than an exception: matched-J comparisons remain well-defined.
    """
    (rec,) = improvement_factors([j_target_ghz], imp, base, mode)
    return rec


def _grid_size(name: str, n: int) -> None:
    """Reject a grid of fewer than 2 or more than MAX_GRID_POINTS points, naming it."""
    if not 2 <= n <= MAX_GRID_POINTS:
        bound = "at least 2" if n < 2 else f"at most {MAX_GRID_POINTS}"
        raise ValueError(f"{name} must be {bound}, got {n}")


@functools.lru_cache(maxsize=16)
def _j0_ghz(base: DeviceParams, mode: AssemblyMode) -> float:
    """J0 [GHz], the clean J at epsilon = 0 on the device's own barrier, once
    per device and mode; a device whose J0 fails raises, and is not kept."""
    js, failed = _j_ghz(base, [control_values("tilt", base, 0.0)], mode)
    (j0,) = _raise_first(failed, js)
    return j0


def matched_j_grid(base: DeviceParams, n: int = 25, j_max_ghz: float = 1.0,
                   mode: AssemblyMode = AssemblyMode.PAPER) -> np.ndarray:
    """Geometric grid of n points from the common starting point J0 up to j_max."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    _grid_size("n", n)
    if not 0 < j_max_ghz < math.inf:
        raise ValueError(f"j_max_ghz must be positive and finite, got {j_max_ghz}")
    j0 = _j0_ghz(base, mode)
    if not 0 < j0 < math.inf:
        raise ValueError(f"{AssemblyMode(mode).value} mode: the matched-J grid starts at "
                         f"J0 = J(epsilon = 0) = {j0:.6g} GHz, which must be positive and finite")
    if j_max_ghz < j0:
        raise ValueError(f"{AssemblyMode(mode).value} mode: the matched-J grid's upper end "
                         f"{j_max_ghz!r} GHz is below its start J0 = J(epsilon = 0) = {j0!r} GHz")
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

class QualityModel(NamedTuple):
    """Quasistatic Gaussian J-noise: sigma_tot^2 = (sigma_rel J)^2 + sigma_floor^2."""
    sigma_rel: float
    sigma_floor_ghz: float = 0.0


def _checked(**values) -> None:
    """Reject a value that is not finite, or a sigma that is negative, by name."""
    for name, value in values.items():
        sigma = name.startswith("sigma")
        if not math.isfinite(value) or (sigma and value < 0):
            raise ValueError(f"{name} must be {'non-negative and ' * sigma}finite, got {value}")


def sigma_total(j_ghz: float, model: QualityModel) -> float:
    _checked(J=j_ghz, **model._asdict())
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
    _checked(sigma=sigma_ghz, t=t_ns)
    return math.exp(-2.0 * math.pi**2 * sigma_ghz**2 * t_ns**2)


def envelope_numeric(j_ghz: float, sigma_ghz: float, t_ns: float) -> float:
    """|E exp(2 pi i J' t)| for J' ~ N(J, sigma^2) by 80-point Gauss-Hermite."""
    _checked(J=j_ghz, sigma=sigma_ghz, t=t_ns)
    from numpy.polynomial.hermite import hermgauss  # a slow import that only this needs

    u, w = hermgauss(80)
    phase = 2.0 * math.pi * (j_ghz + math.sqrt(2.0) * sigma_ghz * u) * t_ns
    val = np.sum(w * np.exp(1j * phase)) / math.sqrt(math.pi)
    return float(abs(val))


def t_star_ns(sigma_ghz: float) -> float:
    _checked(sigma=sigma_ghz)
    if sigma_ghz == 0.0:
        return math.inf
    return 1.0 / (math.sqrt(2.0) * math.pi * sigma_ghz)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(scheme: str, values, base: DeviceParams, imp: Impurity,
          mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """noise_records over one scheme: the NoiseRecord of each control
    value, in input order; raises the exception of the first that fails."""
    return noise_records([(scheme, float(v)) for v in values], base, imp, mode)


# ---------------------------------------------------------------------------
# sweet spot
# ---------------------------------------------------------------------------

def sweet_spot_check(base: DeviceParams = DeviceParams(),
                     mode: AssemblyMode = AssemblyMode.PAPER) -> tuple[float, float]:
    """(dJ/d eps at eps = 0 [GHz/meV], truncation-error estimate) at the
    device's own barrier amplitude.

    Central differences at steps h and h/2 combined by Richardson
    extrapolation; the difference of the two estimates bounds the
    leading truncation term.
    """
    h = 1e-3  # meV
    js, failed = _j_ghz(base, [control_values("tilt", base, e)
                               for e in (+h, -h, +h / 2, -h / 2)], mode)
    j_plus, j_minus, j_half_plus, j_half_minus = _raise_first(failed, js)
    d1 = (j_plus - j_minus) / (2.0 * h)
    d2 = (j_half_plus - j_half_minus) / h
    richardson = (4.0 * d2 - d1) / 3.0
    return richardson, abs(d2 - d1) / 3.0
