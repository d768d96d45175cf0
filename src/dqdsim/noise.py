"""Charge-noise metrics, matched-J calibration, chi, and quality factors.

Noise records are computed as columns of float64 arrays, NaN where a point
failed, with a map from each failed row to its exception (see _table)."""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .hamiltonian import AssemblyMode, _model, hubbard_parameters, in_ghz, solve_stack, unwrap
from .model import MEV_TO_GHZ, DeviceParams, Impurity, control_point, control_values

DEFAULT_IMPURITY_SCALE = 6.0  # R_c = (-6a, 6a) is the reference noise source


def default_impurity(params: DeviceParams, q: float = -1.0) -> Impurity:
    return Impurity(-DEFAULT_IMPURITY_SCALE * params.a, DEFAULT_IMPURITY_SCALE * params.a, q)


class NoiseRecord(NamedTuple):
    scheme: str
    control_mev: float
    J_clean_ghz: float
    J_imp_ghz: float
    delta_J_ghz: float
    rel_noise: float

    CSV_FIELDS = ("scheme", "control_mev", "J_clean_ghz", "J_imp_ghz",
                  "delta_J_ghz", "rel_noise")


def _j_ghz(base: DeviceParams, settings, mode: AssemblyMode, rows=None,
           impurities=()) -> tuple[np.ndarray, dict]:
    """(J, failed): J [GHz] at each (epsilon, xi) setting of the device base
    from one stacked solve, NaN where a point failed, which failed maps to
    its exception (a J too large for GHz included); rows and impurities
    place an impurity at each setting as in solve_stack."""
    epsilon, xi = np.fromiter(itertools.chain.from_iterable(settings), float).reshape(-1, 2).T
    try:
        failed, _, _, _, J = solve_stack(base, epsilon, xi, rows, impurities, mode)
    except Exception as exc:  # the device's own failure
        return np.full(len(epsilon), math.nan), dict.fromkeys(range(len(epsilon)), exc)
    ghz, over = in_ghz(J)
    if not failed:
        return ghz, over
    built = np.delete(np.arange(len(epsilon)), list(failed))
    js = np.full(len(epsilon), math.nan)
    js[built] = ghz
    failed.update(zip(built[list(over)].tolist(), over.values()))
    return js, failed


def _entries(js: np.ndarray, failed: dict) -> list:
    """The J of each point of _j_ghz as a float, or the exception it raised."""
    out = js.tolist()
    for i, exc in failed.items():
        out[i] = exc
    return out


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


def _records(controls, table: np.ndarray, failed: dict) -> list:
    """The NoiseRecord of each row of a _table, or its exception."""
    out = list(map(NoiseRecord._make, zip(*zip(*controls), *table.tolist())))
    for i, exc in failed.items():
        out[i] = exc
    return out


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
    js, solved = _j_ghz(base, list(index) * 2, mode, np.repeat([0, 1], n), [imp])
    return _table(controls, js, solved, at, np.where(at < 0, -1, at + n), failed)


def noise_records(controls, base: DeviceParams, imp: Impurity,
                  mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """The NoiseRecord of each (scheme, value) control: J with and without
    the impurity there (see _noise_table).

    An entry is the exception its control raised instead; a control whose
    value is an exception (a failed calibration) passes it through."""
    if imp is None:
        raise ValueError("noise_records needs an impurity, got imp=None")
    controls = list(controls)
    out = [value for _, value in controls]
    given = [i for i, value in enumerate(out) if not isinstance(value, Exception)]
    solved = [controls[i] for i in given]
    for i, rec in zip(given, _records(solved, *_noise_table(solved, base, imp, mode))):
        out[i] = rec
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


def _bracket(scheme: str, base: DeviceParams) -> tuple[float, float]:
    """The control interval [meV] searched on the device base: TILT_BRACKET, or
    BARRIER_BRACKET widened to hold a finite base.xi, where J0 is met exactly."""
    if scheme == "barrier" and math.isfinite(base.xi):
        return min(BARRIER_BRACKET[0], base.xi), max(BARRIER_BRACKET[1], base.xi)
    return TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET


def _miss(label, j_target_ghz, c, j):
    """J - target at the control value c, given the clean J [GHz] there or
    the exception its solve raised."""
    if isinstance(j, Exception):
        raise j
    d = j - j_target_ghz
    if math.isnan(d):
        raise CalibrationError(f"{label}: J - target is NaN at {c!r} meV "
                               f"for target {j_target_ghz:.6g} GHz")
    return d


def _settle(scheme, j_target_ghz, base, root, j_lo, j_hi, j_root, j0):
    """The control value of one calibration on the device base, given the
    clean J [GHz] at its bracket ends, at its closed-form root and at
    epsilon = 0 on the device's own barrier (J0), each maybe the exception
    its solve raised: the control of that J0 point, or else of an end, at
    which J meets the target exactly, else the root, at which J must lie
    within 1e-6 of the target.  A target not strictly between J at the ends
    raises CalibrationError naming the J reachable there."""
    if j0 == j_target_ghz:
        return 0.0 if scheme == "tilt" else base.xi
    label = f"calibrate_{scheme}"
    lo, hi = _bracket(scheme, base)
    f_lo = _miss(label, j_target_ghz, lo, j_lo)
    f_hi = _miss(label, j_target_ghz, hi, j_hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise CalibrationError(
            f"{label}: target {j_target_ghz:.6g} GHz outside "
            f"[{min(j_lo, j_hi):.6g}, {max(j_lo, j_hi):.6g}] GHz "
            f"reachable on the bracket [{lo}, {hi}] meV")
    f_root = _miss(label, j_target_ghz, root, j_root)
    if abs(f_root) > 1e-6 * abs(j_target_ghz):
        raise CalibrationError(
            f"{label}: root-finder landed at J = {f_root + j_target_ghz:.9g} GHz "
            f"for target {j_target_ghz:.9g} GHz")
    return root


def _quadratic(a, b, c):
    """Both roots (2, ...) of a y^2 + b y + c = 0, each without cancellation;
    a root at infinity (a = 0) comes out inf or NaN."""
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    return np.stack([q / a, c / q])


def _roots(requests, base: DeviceParams, mode: AssemblyMode) -> list:
    """The control value of each (scheme, target_ghz) request at which the
    clean J meets the target, in closed form.

    -J is the lowest eigenvalue of the T0-shifted singlet block
    B = [[U2 - U12 - D + K, s2, K], [s2, 2K, s1], [K, s1, U1 - U12 + D + K]]
    over {S(0,2), S(1,1), S(2,0)}, with D = mu2 - mu1, s_i = sqrt(2) h_i and
    the hops h_i = c_i - t (paper mode: K = c_i = 0).  So det(B + J) = 0 is
    a quadratic in D at the device's barrier, and at epsilon = 0 one in the
    hop t, which is affine in xi.  Of its two roots, the one nearest the
    scheme's bracket is taken."""
    schemes = [scheme for scheme, _ in requests]
    x = np.array([target for _, target in requests], dtype=float) / MEV_TO_GHZ
    # A non-finite base.xi makes every tilt root NaN, unwarned; the tilt
    # bracket ends then fail on it by name.
    xi0 = base.xi if math.isfinite(base.xi) else math.nan
    # The model at xi = base.xi, 0 and 1 of the device at epsilon = xi = 0.
    hp = _model(control_point("barrier", base, 0.0), np.zeros(3),
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
    roots = np.where(np.array(schemes) == "tilt", eps_star, xi_star)
    lo, hi = np.array([_bracket(s, base) for s in schemes]).reshape(-1, 2).T
    outside = np.fmax(np.fmax(lo - roots, roots - hi), 0.0)
    nearest = np.argmin(np.where(np.isnan(outside), np.inf, outside), axis=0)
    return np.take_along_axis(roots, nearest[None], axis=0)[0].tolist()


def _calibrated(requests, base: DeviceParams, mode: AssemblyMode, imps=()) -> tuple[list, list]:
    """(controls, records): the control value of each (scheme, target_ghz)
    request at which the clean J meets the target, and for each impurity of
    imps the NoiseRecord of every request at its control (one _table).

    Every root comes in closed form (_roots).  One stack solves the clean J
    at every distinct bracket end, J0 point and root, and J with each
    impurity at every root, and at the others too given at most one
    impurity.  A request settles by _settle; a point it settles on that was
    not solved with the impurities is, with each, in a second stack.  An
    entry is the exception its calibration, or else its record, raised
    instead; a device that cannot be built fails every entry with it."""
    requests, imps = list(requests), list(imps)
    for scheme, _ in requests:
        if scheme not in ("tilt", "barrier"):
            raise ValueError(f"unknown scheme {scheme!r}")
    try:
        roots = _roots(requests, base, mode)
    except Exception as exc:  # the device's own failure
        return [exc] * len(requests), [[exc] * len(requests) for _ in imps]
    # J0, at epsilon = 0 on the device's own barrier, is the tilt bracket's
    # lower end, and is solved with the ends when no tilt request brings it.
    at_j0 = control_values("tilt", base, 0.0)
    ends = list(dict.fromkeys([*(control_values(scheme, base, c) for scheme, _ in requests
                                 for c in _bracket(scheme, base)), at_j0]))
    settings = ends + [control_values(scheme, base, c) for (scheme, _), c in zip(requests, roots)]
    # J [GHz] clean at every setting, then with each impurity in turn at every
    # setting (given at most one impurity) or only at every root.
    with_imp = settings if len(imps) <= 1 else settings[len(ends):]
    n, m = len(settings), len(with_imp)
    js, failed = _j_ghz(base, settings + with_imp * len(imps), mode,
                        np.arange(1 + len(imps)).repeat([n] + [m] * len(imps)), imps)
    clean = dict(zip(settings, _entries(js, failed)))
    controls: list = []
    for (scheme, target), root, at_root in zip(requests, roots, settings[len(ends):]):
        try:
            j_ends = (clean[control_values(scheme, base, e)] for e in _bracket(scheme, base))
            controls.append(_settle(scheme, target, base, root, *j_ends, clean[at_root],
                                    clean[at_j0]))
        except Exception as exc:  # this calibration's own failure
            controls.append(exc)
    settled = [None if isinstance(c, Exception) else control_values(scheme, base, c)
               for (scheme, _), c in zip(requests, controls)]
    # The index in js of J with each impurity in turn at each setting solved
    # with them; an end settled on but not solved with them is, with each,
    # in a second stack.
    with_each = {s: range(n + i, len(js), m) for i, s in enumerate(with_imp)}
    left = [s for s in dict.fromkeys(settled) if s is not None and s not in with_each]
    if left:
        more, more_failed = _j_ghz(base, left * len(imps), mode,
                                   np.arange(1, 1 + len(imps)).repeat(len(left)), imps)
        failed.update((len(js) + i, exc) for i, exc in more_failed.items())
        with_each.update((s, range(len(js) + i, len(js) + len(more), len(left)))
                         for i, s in enumerate(left))
        js = np.append(js, more)
    # A row per impurity and request, impurity by impurity; a failed
    # calibration fails its rows with its exception.
    at = {s: i for i, s in enumerate(settings)}
    rows = [(scheme, c) for (scheme, _), c in zip(requests, controls)] * len(imps)
    unsettled = [r for r, s in enumerate(settled) if s is None]
    out = _records(rows, *_table(
        rows, js, failed, [at.get(s, -1) for s in settled] * len(imps),
        [-1 if s is None else with_each[s][k] for k in range(len(imps)) for s in settled],
        {k * len(requests) + r: controls[r] for k in range(len(imps)) for r in unsettled}))
    return controls, [out[k * len(requests):(k + 1) * len(requests)] for k in range(len(imps))]


def calibrate_many(requests, base: DeviceParams = DeviceParams(),
                   mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """The control value of each (scheme, target_ghz) request at which the
    clean J meets the target, every request from one stacked solve (see
    _calibrated).  An entry is the exception its calibration raised
    instead."""
    return _calibrated(requests, base, mode)[0]


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

class ChiRecord(NamedTuple):
    J_ghz: float
    rel_tilt: float
    rel_barrier: float
    chi: float

    CSV_FIELDS = ("J_ghz", "rel_tilt", "rel_barrier", "chi")


def improvement_factors(targets, imp: Impurity,
                        base: DeviceParams = DeviceParams(),
                        mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """improvement_factor at each target: both calibrations and both noise
    records of every target from one stacked solve (see _calibrated).

    An entry is its target's first exception instead, in the order tilt
    calibration, barrier calibration, tilt record, barrier record."""
    if imp is None:
        raise ValueError("improvement_factors needs an impurity, got imp=None")
    targets = list(targets)
    controls, (records,) = _calibrated([(scheme, j) for j in targets
                                        for scheme in ("tilt", "barrier")], base, mode, [imp])
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
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0 < j_max_ghz < math.inf:
        raise ValueError(f"j_max_ghz must be positive and finite, got {j_max_ghz}")
    (j0,) = unwrap(_entries(*_j_ghz(base, [control_values("tilt", base, 0.0)], mode)))
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

class QualityModel(NamedTuple):
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


def envelope_numeric(j_ghz: float, sigma_ghz: float, t_ns: float) -> float:
    """|E exp(2 pi i J' t)| for J' ~ N(J, sigma^2) by 80-point Gauss-Hermite."""
    from numpy.polynomial.hermite import hermgauss  # a slow import that only this needs

    u, w = hermgauss(80)
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
          mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """noise_records over one scheme: the NoiseRecord of each control
    value, in input order, or the exception that value raised."""
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
    j_plus, j_minus, j_half_plus, j_half_minus = unwrap(_entries(*_j_ghz(
        base, [control_values("tilt", base, e) for e in (+h, -h, +h / 2, -h / 2)], mode)))
    d1 = (j_plus - j_minus) / (2.0 * h)
    d2 = (j_half_plus - j_half_minus) / h
    richardson = (4.0 * d2 - d1) / 3.0
    return richardson, abs(d2 - d1) / 3.0
