"""Tests for charge-noise metrics, calibration, and the quality model."""
import dataclasses
import math
import re
import traceback
import warnings

import numpy as np
import pytest

from dqdsim import (
    AssemblyMode,
    BARRIER_BRACKET,
    CalibrationError,
    ChiRecord,
    DeviceParams,
    Impurity,
    NoiseRecord,
    QualityModel,
    TILT_BRACKET,
    calibrate_barrier,
    calibrate_tilt,
    default_impurity,
    delta_J,
    envelope_closed,
    envelope_numeric,
    exchange_J_ghz,
    hubbard_noise_estimate,
    improvement_factor,
    matched_j_grid,
    quality_factor,
    sigma_total,
    solve,
    sweep,
    sweet_spot_check,
    t_star_ns,
)
from dqdsim import cli, hamiltonian, noise
from dqdsim.crosscheck import sample_device
from dqdsim.model import MEV_TO_GHZ, control_point
from dqdsim.noise import calibrate_many, improvement_factors, noise_records

# Frozen reference values at the default device with the default
# impurity at (-600, 600) nm, charge -e.
J0_GHZ = 0.032809933155053005
REL_NOISE_AT_J0 = 0.09185829016258289
EPS_STAR_242MHZ = 0.727583279863922
XI_STAR_242MHZ = 0.9745470770110896
DELTA_U = 0.7814953236075299


def shift_roots(monkeypatch, wrong, by=0.01):
    """Make calibrate_many's closed-form root of each (scheme, target)
    request in wrong land `by` meV off, so its residual check fails."""
    real = noise._roots

    def shifted(tilt, targets, *args):
        roots = real(tilt, targets, *args)
        hit = [req in wrong for req in zip(np.where(tilt, "tilt", "barrier").tolist(),
                                           targets.tolist())]
        return np.where(hit, roots + by, roots)
    monkeypatch.setattr(noise, "_roots", shifted)


def entries(values, failed):
    """values as a list, with each row of failed, a column core's {row:
    exception} map, holding its exception instead."""
    out = list(values)
    for i, exc in failed.items():
        out[i] = exc
    return out


def calibrations(requests, base=DeviceParams(), mode=AssemblyMode.PAPER):
    """noise._calibrated's control of each request, or its exception."""
    controls, failed = noise._calibrated(requests, base, mode)[:2]
    return entries(controls.tolist(), failed)


def records(controls, base, imp, mode=AssemblyMode.PAPER):
    """noise._noise_table's NoiseRecord of each control, or its exception."""
    table, failed = noise._noise_table(controls, base, imp, mode)
    return entries(map(NoiseRecord._make, zip(*zip(*controls), *table.tolist())), failed)


def chis(targets, imp, base=DeviceParams(), mode=AssemblyMode.PAPER):
    """noise._chi_table's ChiRecord of each target, or its first exception."""
    table, failed = noise._chi_table(targets, imp, base, mode)
    return entries(map(ChiRecord._make, zip(targets, *table.tolist())), failed)


def raised_or(call):
    """What call() returns, or the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return exc


def calibrated(requests, base, mode, imps):
    """noise._calibrated's controls, and each impurity's records, as lists
    with the exception of each failed entry in its place."""
    controls, failed, table, out = noise._calibrated(requests, base, mode, imps)
    controls = entries(controls.tolist(), failed)
    records = entries(map(NoiseRecord._make, zip(
        *zip(*[(scheme, c) for (scheme, _), c in zip(requests, controls)] * len(imps)),
        *table.tolist())), out)
    return controls, [records[k * len(requests):(k + 1) * len(requests)]
                      for k in range(len(imps))]


def chi_record(j, rec_t, rec_b):
    """The ChiRecord of the tilt and barrier NoiseRecords at target j."""
    rel_t, rel_b = rec_t.rel_noise, rec_b.rel_noise
    chi = (math.inf if rel_t != 0.0 else 1.0) if rel_b == 0.0 else abs(rel_t) / abs(rel_b)
    return ChiRecord(j, rel_t, rel_b, chi)


def end_js(base=DeviceParams()):
    """Clean J [GHz] at each end of both brackets, each from a lone solve."""
    return {(scheme, c): exchange_J_ghz(control_point(scheme, base, c))
            for scheme, bracket in (("tilt", TILT_BRACKET), ("barrier", BARRIER_BRACKET))
            for c in bracket}


def refuse(monkeypatch, epsilon=(), xi=()):
    """Make every solve fail at a point whose epsilon or xi is one of these,
    as the control check of solve_stack fails a NaN control there."""
    real = noise.solve_stack

    def solve(device, eps, x, *args):
        eps, x = np.asarray(eps, dtype=float), np.asarray(x, dtype=float)
        return real(device, np.where(np.isin(eps, epsilon), math.nan, eps),
                    np.where(np.isin(x, xi) & ~np.isin(eps, epsilon), math.nan, x), *args)
    monkeypatch.setattr(noise, "solve_stack", solve)


def outcome(entry):
    """A float control or record as itself, an exception as (type, text)."""
    return (type(entry), str(entry)) if isinstance(entry, Exception) else entry


def landed(scheme, target, control, base=DeviceParams(), mode=AssemblyMode.PAPER):
    """The message of a calibration whose root landed at control."""
    j = exchange_J_ghz(control_point(scheme, base, control), None, mode)
    return f"calibrate_{scheme}: root-finder landed at J = {j:.9g} GHz for target {target:.9g} GHz"


class TestDefaultImpurity:
    def test_reference_position_and_charge(self, params, impurity):
        assert (impurity.x_c, impurity.y_c) == (-600.0, 600.0)
        assert impurity.q == -1.0

    def test_scales_with_dot_spacing(self):
        imp = default_impurity(DeviceParams(a=50.0), q=-0.25)
        assert (imp.x_c, imp.y_c, imp.q) == (-300.0, 300.0, -0.25)


class TestDeltaJ:
    def test_reference_relative_noise(self, params, impurity):
        rec = delta_J("tilt", 0.0, params, impurity)
        assert rec.J_clean_ghz == pytest.approx(J0_GHZ, rel=1e-12)
        assert rec.rel_noise == pytest.approx(REL_NOISE_AT_J0, rel=1e-12)

    def test_record_identities(self, params, impurity):
        rec = delta_J("tilt", 0.45, params, impurity)
        assert rec.scheme == "tilt" and rec.control_mev == 0.45
        assert rec.delta_J_ghz == pytest.approx(rec.J_imp_ghz - rec.J_clean_ghz)
        assert rec.rel_noise == pytest.approx(rec.delta_J_ghz / rec.J_clean_ghz)
        assert tuple(rec) == tuple(getattr(rec, f) for f in NoiseRecord._fields)  # its CSV row

    def test_neutral_charge_gives_exact_zero(self, params):
        rec = delta_J("tilt", 0.3, params, Impurity(-600.0, 600.0, q=0.0))
        assert rec.delta_J_ghz == 0.0
        assert rec.rel_noise == 0.0

    def test_barrier_scheme_resets_detuning(self, impurity):
        tilted_base = DeviceParams(epsilon=0.7)
        rec = delta_J("barrier", 0.9, tilted_base, impurity)
        assert rec.J_clean_ghz == pytest.approx(
            exchange_J_ghz(DeviceParams(epsilon=0.0, xi=0.9)), rel=1e-12)

    def test_unknown_scheme(self, params, impurity):
        with pytest.raises(ValueError, match="unknown scheme"):
            delta_J("magnetic", 0.1, params, impurity)

    # Without an impurity there is no second J to pair with the clean one.
    @pytest.mark.parametrize("call,name", [
        (lambda p: noise_records([("tilt", 0.3), ("tilt", 0.5), ("barrier", 1.0)], p, None),
         "noise_records"),
        (lambda p: delta_J("tilt", 0.3, p, None), "noise_records"),
        (lambda p: sweep("tilt", [0.3, 0.5], p, None), "noise_records"),
        (lambda p: improvement_factors([0.242], None, p), "improvement_factors"),
    ])
    def test_no_impurity_is_rejected(self, params, call, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} needs an impurity, got imp=None")):
            call(params)

    # Tightly confined dots have J exactly 0 in float (the true J is about
    # 2e-35 meV), so the relative noise has no value there.
    def test_a_zero_clean_j_is_a_named_error(self, impurity):
        base = DeviceParams(hbar_omega0=5.0)
        assert exchange_J_ghz(base) == 0.0
        with pytest.raises(ValueError, match=re.escape(
                "J_clean = 0 at tilt control 0.05 meV, so rel_noise = delta_J / J_clean "
                "is undefined")):
            delta_J("tilt", 0.05, base, impurity)

    def test_csv_fields(self):
        assert NoiseRecord._fields == (
            "scheme", "control_mev", "J_clean_ghz", "J_imp_ghz",
            "delta_J_ghz", "rel_noise")
        assert ChiRecord._fields == ("J_ghz", "rel_tilt", "rel_barrier", "chi")
        assert not hasattr(NoiseRecord, "CSV_FIELDS") and not hasattr(ChiRecord, "CSV_FIELDS")


class TestCalibration:
    @pytest.mark.parametrize("target", [0.15, 0.242, 0.5])
    def test_tilt_round_trip(self, target):
        eps = calibrate_tilt(target)
        assert TILT_BRACKET[0] <= eps <= TILT_BRACKET[1]
        achieved = exchange_J_ghz(DeviceParams(epsilon=eps, xi=1.3))
        assert achieved == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("target", [0.15, 0.242, 0.5])
    def test_barrier_round_trip(self, target):
        xi = calibrate_barrier(target)
        assert BARRIER_BRACKET[0] <= xi <= BARRIER_BRACKET[1]
        achieved = exchange_J_ghz(DeviceParams(epsilon=0.0, xi=xi))
        assert achieved == pytest.approx(target, rel=1e-6)

    def test_reference_operating_point(self):
        assert calibrate_tilt(0.242) == pytest.approx(EPS_STAR_242MHZ, rel=1e-9)
        assert calibrate_barrier(0.242) == pytest.approx(XI_STAR_242MHZ, rel=1e-9)

    def test_unreachable_targets_raise(self):
        with pytest.raises(CalibrationError, match="reachable"):
            calibrate_tilt(1e6)
        with pytest.raises(CalibrationError, match="reachable"):
            calibrate_barrier(1e-4)  # below J at the widest barrier

    def test_nan_target_is_named(self):
        with pytest.raises(CalibrationError, match="calibrate_tilt: J - target is NaN"):
            calibrate_tilt(math.nan)

    def test_running_out_of_steps_names_the_calibration(self, monkeypatch):
        roots = [calibrate_tilt(0.242), calibrate_barrier(0.242)]
        shift_roots(monkeypatch, {("tilt", 0.242), ("barrier", 0.242)})
        for calibrate, root in zip((calibrate_tilt, calibrate_barrier), roots):
            scheme = calibrate.__name__.removeprefix("calibrate_")
            with pytest.raises(CalibrationError) as err:
                calibrate(0.242)
            assert str(err.value) == landed(scheme, 0.242, root + 0.01)

    def test_reachable_negative_full_mode_targets_calibrate(self, params):
        # In full mode J runs from -19.53 to -19.19 GHz on the barrier
        # bracket and up from -19.19 GHz on the tilt bracket.
        requests = [("barrier", -19.3), ("barrier", -19.5), ("tilt", -19.0), ("tilt", -10.0)]
        controls = calibrate_many(requests, params, AssemblyMode.FULL)
        for (scheme, target), c in zip(requests, controls):
            assert isinstance(c, float), c
            lo, hi = TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET
            assert lo < c < hi
            j = exchange_J_ghz(control_point(scheme, params, c), None, AssemblyMode.FULL)
            assert j == pytest.approx(target, rel=1e-12)

    def test_a_target_at_a_bracket_end_returns_that_end(self, params):
        # J0 is J at epsilon = 0 and xi = 1.3: the low end of the tilt
        # bracket and the high end of the barrier bracket, where dJ/d epsilon
        # = 0 leaves the closed form's root ill-conditioned.
        j0 = float(matched_j_grid(params, n=2)[0])
        assert params.xi == BARRIER_BRACKET[1]
        eps, xi = calibrate_many([("tilt", j0), ("barrier", j0)], params)
        assert eps == 0.0 and math.copysign(1.0, eps) == 1.0
        assert xi == params.xi

    # J0 is met at the device's own barrier, so the barrier bracket widens to
    # hold it: on a device whose xi lies outside BARRIER_BRACKET, J0
    # calibrates to that xi exactly, and a target between J0 and the
    # bracket's J calibrates inside the widened bracket.  Inside the bracket
    # too, J0 calibrates to xi itself, not to the closed-form root next to it.
    @pytest.mark.parametrize("xi", [1.5, 0.2, 1.1])
    def test_the_barrier_bracket_holds_the_devices_own_barrier(self, xi):
        base = DeviceParams(xi=xi)
        j0 = exchange_J_ghz(base)
        assert calibrate_barrier(j0, base) == xi
        j_mid = math.sqrt(j0 * exchange_J_ghz(DeviceParams(xi=1.3 if xi > 1.3 else 0.3)))
        xi_star = calibrate_barrier(j_mid, base)
        assert min(xi, 0.3) < xi_star < max(xi, 1.3)
        assert exchange_J_ghz(control_point("barrier", base, xi_star)) == pytest.approx(
            j_mid, rel=1e-6)


class TestClosedForm:
    """The closed-form roots of calibrate_many against a 50-digit root-find
    of J on the 4x4 model."""

    DEVICES = [DeviceParams(), *map(sample_device, [np.random.default_rng(5)] * 4)]

    @staticmethod
    def mp_root(scheme, target, base, mode):
        """The control on the scheme's bracket at which J of the 4x4 model,
        built in 50 digits from the float model fields, meets the target:
        bisection, then secant steps.  J is the T0 level d11 - K minus the
        lowest of the other three eigenvalues."""
        mp = pytest.importorskip("mpmath").mp
        build = hamiltonian._device(dataclasses.replace(base, epsilon=0.0, xi=0.0))
        hp = hamiltonian._model(build, np.zeros(3), np.array([base.xi, 0.0, 1.0]),
                                np.zeros(3, dtype=int), ())
        f = mp.mpf
        full = mode == AssemblyMode.FULL
        with mp.workdps(50):
            k, c1, c2 = map(f, (hp.exchange_k, hp.corr_hop1, hp.corr_hop2) if full else (0, 0, 0))
            x = f(target) / f(MEV_TO_GHZ)

            def miss(c):
                if scheme == "tilt":
                    mu1, mu2, t = f(hp.mu1[0]) - c / 2, f(hp.mu2[0]) + c / 2, f(hp.t[0])
                else:
                    mu1, mu2 = f(hp.mu1[1]), f(hp.mu2[1])
                    t = f(hp.t[1]) + (f(hp.t[2]) - f(hp.t[1])) * c
                d11, h1, h2 = f(hp.U12) - mu1 - mu2, c1 - t, c2 - t
                H = mp.matrix([[f(hp.U2) - 2 * mu2, h2, h2, k], [h2, d11, k, h1],
                               [h2, k, d11, h1], [k, h1, h1, f(hp.U1) - 2 * mu1]])
                levels = sorted(mp.eigsy(H, eigvals_only=True), key=lambda e: abs(e - d11 + k))
                return d11 - k - min(levels[1:]) - x

            lo, hi = map(f, TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET)
            f_lo = miss(lo)
            for _ in range(20):
                mid = (lo + hi) / 2
                f_mid = miss(mid)
                if (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            return float(mp.findroot(miss, (lo, hi), solver="secant", tol=f(10) ** -60))

    @pytest.mark.parametrize("scheme", ["tilt", "barrier"])
    @pytest.mark.parametrize("mode", list(AssemblyMode))
    def test_roots_match_a_50_digit_root_find(self, scheme, mode):
        for base in self.DEVICES:
            bracket = TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET
            j_lo, j_hi = (exchange_J_ghz(control_point(scheme, base, c), None, mode)
                          for c in bracket)
            targets = [j_lo + share * (j_hi - j_lo) for share in (0.05, 0.5, 0.95)]
            for target, c in zip(targets, calibrate_many(
                    [(scheme, t) for t in targets], base, mode)):
                ref = self.mp_root(scheme, target, base, mode)
                assert abs(c - ref) <= 1e-13 * max(1.0, abs(c)), (base, target, c, ref)

    @pytest.mark.parametrize("base", DEVICES)
    def test_the_hop_is_affine_in_xi(self, base):
        xi = np.linspace(0.0, 1.5, 16)
        build = hamiltonian._device(dataclasses.replace(base, epsilon=0.0, xi=0.0))
        t = hamiltonian._model(build, np.zeros(16), xi, np.zeros(16, dtype=int), ()).t
        affine = t[0] + (hamiltonian._model(
            build, np.zeros(1), np.ones(1), np.zeros(1, dtype=int), ()).t[0] - t[0]) * xi
        assert np.max(np.abs(t - affine)) <= 1e-15 * np.max(np.abs(t))


class TestLockstep:
    """calibrate_many calibrates every request of a call together: every
    root in closed form, then J at the bracket ends and at the roots in one
    stacked solve."""

    TARGETS = (0.05, 0.15, 0.242, 0.5, 0.9)
    REQUESTS = [(scheme, t) for t in TARGETS for scheme in ("tilt", "barrier")]

    def test_one_stacked_solve(self, eigen_stacks):
        stacks = eigen_stacks()
        got = calibrate_many(self.REQUESTS)
        # The tilt bracket starts where the barrier bracket ends (epsilon = 0,
        # xi = 1.3), so 3 ends, and one root per request.
        assert [len(H) for H in stacks] == [3 + len(self.REQUESTS)]
        for (scheme, target), c in zip(self.REQUESTS, got):
            j = exchange_J_ghz(control_point(scheme, DeviceParams(), c))
            assert j == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_a_mixed_batch_matches_each_request_alone(self, params, mode):
        # J0 is met at a bracket end of both schemes.  In full mode J0 is
        # -19.19 GHz, and each inner target is in reach of one scheme only.
        (j0,) = noise._j_ghz(params, [(0.0, params.xi)], mode)[0].tolist()
        inner = (0.242, 0.5) if mode == AssemblyMode.PAPER else (-19.3, -19.0)
        requests = [(scheme, target) for target in (j0, *inner, 1e6, math.nan)
                    for scheme in ("tilt", "barrier")]
        batch = calibrations(requests, params, mode)
        assert batch[:2] == [0.0, params.xi]
        assert all(isinstance(c, CalibrationError) for c in batch[-4:])
        inside = sum(isinstance(c, float) for c in batch[2:6])
        assert inside == (4 if mode == AssemblyMode.PAPER else 2)
        assert list(map(repr, batch)) == [
            repr(raised_or(lambda: calibrate_many([req], params, mode)[0])) for req in requests]

    def test_running_out_of_steps_fails_only_that_calibration(self, monkeypatch):
        whole = calibrate_many(self.REQUESTS)
        wrong = {("tilt", 0.15), ("barrier", 0.5), ("barrier", 0.9)}
        shift_roots(monkeypatch, wrong)
        got = calibrations(self.REQUESTS)
        for req, g, c in zip(self.REQUESTS, got, whole):
            if req in wrong:
                assert isinstance(g, CalibrationError) and str(g) == landed(*req, c + 0.01)
            else:
                assert g == c

    def test_improvement_factors_match_one_at_a_time(self, impurity):
        targets = [0.05, 0.242, 0.9]
        got = improvement_factors(targets, impurity)
        assert got == [improvement_factor(t, impurity) for t in targets]

    def test_failing_targets_fail_alone(self, impurity):
        got = chis([0.242, 1e6, 0.5], impurity)
        assert got[0] == improvement_factor(0.242, impurity)
        assert got[2] == improvement_factor(0.5, impurity)
        assert isinstance(got[1], CalibrationError)
        assert str(got[1]).startswith("calibrate_tilt: target 1e+06 GHz outside")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'magnetic'"):
            calibrate_many([("magnetic", 0.242)])

    # A base device with a non-finite xi fails every tilt request by name;
    # a barrier request never reads base.xi and keeps its own outcome.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    @pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_base_xi_fails_only_the_tilt_requests(self, xi, mode):
        tilt, barrier = calibrations([("tilt", 0.242), ("barrier", 0.242)],
                                     DeviceParams(xi=xi), mode)
        assert (type(tilt), str(tilt)) == (ValueError, f"xi must be finite, got {xi}")
        assert repr(barrier) == repr(raised_or(
            lambda: calibrate_many([("barrier", 0.242)], DeviceParams(), mode)[0]))


class TestSettleBranches:
    """Each way a calibration settles or fails, every request of a batch in
    its place in the columns: the control, or the exception's type and text.  A request
    settles on the J0 point if J0 meets its target exactly, else fails on a
    bracket end (the low end first), else settles on an end that meets it,
    else fails on a target out of reach, else takes its root."""

    def test_calibrate_many(self, params):
        j = end_js(params)
        j0, j_top, j_low = j["tilt", 0.0], j["tilt", 1.5], j["barrier", 0.3]
        assert j0 == j["barrier", 1.3] == exchange_J_ghz(params)
        requests = [("tilt", j0), ("barrier", j0), ("barrier", j_low), ("tilt", j_top),
                    ("tilt", 1e6), ("barrier", 1e-4), ("tilt", math.nan),
                    ("barrier", math.nan), ("barrier", 0.242)]
        got = calibrations(requests, params)
        assert list(map(outcome, got[:8])) == [
            0.0, 1.3, 0.3, 1.5,
            (CalibrationError, f"calibrate_tilt: target 1e+06 GHz outside [{j0:.6g}, "
                               f"{j_top:.6g}] GHz reachable on the bracket [0.0, 1.5] meV"),
            (CalibrationError, f"calibrate_barrier: target 0.0001 GHz outside [{j0:.6g}, "
                               f"{j_low:.6g}] GHz reachable on the bracket [0.3, 1.3] meV"),
            (CalibrationError, "calibrate_tilt: J - target is NaN at 0.0 meV for target nan GHz"),
            (CalibrationError, "calibrate_barrier: J - target is NaN at 0.3 meV "
                               "for target nan GHz")]
        assert all(type(c) is float for c in got[:4]) and math.copysign(1.0, got[0]) == 1.0
        assert got[8] == pytest.approx(XI_STAR_242MHZ, rel=1e-9)
        assert list(map(repr, got)) == [repr(raised_or(lambda: calibrate_many([req], params)[0]))
                                        for req in requests]

    # A failed solve at a bracket end fails every request of its scheme that
    # J0 does not settle first, with that solve's error, the low end's first.
    def test_a_failing_end(self, params, monkeypatch):
        j0 = exchange_J_ghz(params)
        inside = calibrate_many([("barrier", 0.242)], params)
        refuse(monkeypatch, epsilon=[1.5])
        got = calibrations([("tilt", j0), ("tilt", 0.242), ("barrier", 0.242)], params)
        assert list(map(outcome, got)) == [
            0.0, (ValueError, "epsilon must be finite, got nan"), *inside]
        refuse(monkeypatch, epsilon=[1.5], xi=[1.3])  # now J0, both ends' solves fail
        got = calibrations([("tilt", j0), ("barrier", 0.242), ("barrier", 1.0)], params)
        assert list(map(outcome, got)) == [(ValueError, "xi must be finite, got nan")] + [
            (ValueError, "xi must be finite, got nan")] * 2

    def test_improvement_factors(self, params, impurity):
        j = end_js(params)
        j0, j_top, j_low = j["tilt", 0.0], j["tilt", 1.5], j["barrier", 0.3]
        eps_low = calibrate_tilt(j_low, params)
        got = chis([j0, j_low, 2.0, j_top, math.nan], impurity, params)
        out_of_reach = ("calibrate_barrier: target {:.6g} GHz outside [{:.6g}, {:.6g}] GHz "
                        "reachable on the bracket [0.3, 1.3] meV")
        assert list(map(outcome, got)) == [
            chi_record(j0, delta_J("tilt", 0.0, params, impurity),
                       delta_J("barrier", 1.3, params, impurity)),
            chi_record(j_low, delta_J("tilt", eps_low, params, impurity),
                       delta_J("barrier", 0.3, params, impurity)),
            (CalibrationError, out_of_reach.format(2.0, j0, j_low)),
            (CalibrationError, out_of_reach.format(j_top, j0, j_low)),
            (CalibrationError, "calibrate_tilt: J - target is NaN at 0.0 meV for target nan GHz")]

    def test_one_call_brackets_each_scheme_once(self, params, impurity, monkeypatch):
        calls = []
        real = noise._bracket
        monkeypatch.setattr(noise, "_bracket",
                            lambda scheme, base: calls.append(scheme) or real(scheme, base))
        improvement_factors([0.05, 0.242, 0.5, 0.9], impurity, params)
        assert len(calls) <= 2


class TestCalibratedRecords:
    """improvement_factors and qfactor take their controls and noise records
    from one stacked solve; each entry is the one that a calibration and
    then a separate noise table give at the same controls."""

    @staticmethod
    def apart(requests, base, mode, imp):
        """Each request's control, and its record at that control from a
        separate noise table, a failed calibration in place of its record."""
        controls = calibrations(requests, base, mode)
        given = [i for i, c in enumerate(controls) if isinstance(c, float)]
        recs = list(controls)
        for i, rec in zip(given, records([(requests[i][0], controls[i]) for i in given],
                                         base, imp, mode)):
            recs[i] = rec
        return controls, recs

    @staticmethod
    def requests(params, mode):
        # J0 (met at an exact bracket end of both schemes), two inner targets,
        # one out of reach and NaN.
        (j0,) = noise._j_ghz(params, [(0.0, params.xi)], mode)[0].tolist()
        inner = (0.242, 0.5) if mode == AssemblyMode.PAPER else (-19.3, -19.0)
        return [(scheme, target) for target in (j0, *inner, 1e6, math.nan)
                for scheme in ("tilt", "barrier")]

    # In each mode, one tilt and one barrier request whose root is shifted.
    WRONG = {("tilt", 0.242), ("barrier", 0.5), ("tilt", -19.0), ("barrier", -19.3)}

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    @pytest.mark.parametrize("wrong", [set(), WRONG])
    def test_the_qfactor_path_matches_calibrate_then_record(self, params, impurity, mode,
                                                            wrong, monkeypatch):
        shift_roots(monkeypatch, wrong)  # a shifted root fails its residual check
        requests = self.requests(params, mode)
        controls, (records,) = calibrated(requests, params, mode, [impurity])
        want_controls, want_records = self.apart(requests, params, mode, impurity)
        assert list(map(repr, controls)) == list(map(repr, want_controls))
        assert list(map(repr, records)) == list(map(repr, want_records))
        assert records[0].control_mev == 0.0 and records[1].control_mev == params.xi
        # 1e6 and NaN fail for both schemes; in full mode each inner target
        # is out of reach of one scheme.
        failed = 4 + (0 if mode == AssemblyMode.PAPER else 2) + (2 if wrong else 0)
        assert sum(isinstance(r, CalibrationError) for r in records) == failed

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    @pytest.mark.parametrize("wrong", [set(), WRONG])
    def test_improvement_factors_match_calibrate_then_record(self, params, impurity, mode,
                                                             wrong, monkeypatch):
        shift_roots(monkeypatch, wrong)
        requests = self.requests(params, mode)
        targets = [target for scheme, target in requests if scheme == "tilt"]
        controls, records = self.apart(requests, params, mode, impurity)
        want = []
        for k, j in enumerate(targets):
            steps = controls[2 * k:2 * k + 2] + records[2 * k:2 * k + 2]
            failed = [r for r in steps if isinstance(r, Exception)]
            if failed:
                want.append(failed[0])
                continue
            want.append(chi_record(j, *steps[2:]))
        got = chis(targets, impurity, params, mode)
        assert list(map(repr, got)) == list(map(repr, want))
        assert isinstance(got[0], ChiRecord)

    def test_one_stack_holds_every_setting_clean_and_with_the_impurity(self, params, impurity,
                                                                       eigen_stacks):
        stacks = eigen_stacks()
        improvement_factors([0.05, 0.242, 0.9], impurity, params)
        # 3 bracket ends and 6 roots, each clean and with the impurity.
        assert [len(H) for H in stacks] == [2 * (3 + 6)]

    # Each request's record with each impurity is the lone delta_J at its
    # control, J0 (met exactly at the end xi = 1.3 of both schemes) included.
    # With no impurity there are no records.  One impurity is solved at the
    # 3 bracket ends and 3 roots in the one stack; three only at the roots,
    # and both J0 requests take their records from a second stack of that
    # one end with each impurity.
    @pytest.mark.parametrize("n_imps,stacked", [(0, [6]), (1, [12]), (3, [6 + 3 * 3, 3])])
    def test_each_record_is_a_lone_delta_j_at_its_control(self, params, n_imps, stacked,
                                                          eigen_stacks):
        imps = [Impurity(-600.0, 600.0), Impurity(-150.0, 0.0, -0.5),
                Impurity(0.0, 300.0, 2.0)][:n_imps]
        (j0,) = noise._j_ghz(params, [(0.0, params.xi)], AssemblyMode.PAPER)[0].tolist()
        requests = [("tilt", j0), ("barrier", j0), ("barrier", 0.242)]
        stacks = eigen_stacks()
        controls, records = calibrated(requests, params, AssemblyMode.PAPER, imps)
        assert [len(H) for H in stacks] == stacked
        assert controls[:2] == [TILT_BRACKET[0], BARRIER_BRACKET[1]] == [0.0, params.xi]
        assert controls[2] == pytest.approx(XI_STAR_242MHZ, rel=1e-9)
        assert len(records) == n_imps
        for imp, recs in zip(imps, records):
            assert [repr(rec) for rec in recs] == [
                repr(delta_J(scheme, c, params, imp)) for (scheme, _), c in zip(requests, controls)]


class TestFirstFailure:
    """A batch call returns plain results, or raises the exception of its
    lowest failing row: the type and text that the same call raises on that
    row alone, whatever fails after it.  The first failure is at the first,
    a middle or the last of five rows, with another failure after it where
    there is room."""

    NAN_TILT = (CalibrationError, "calibrate_tilt: J - target is NaN at 0.0 meV for "
                                  "target nan GHz")
    FAR_TILT = (CalibrationError, "calibrate_tilt: target 1e+06 GHz outside [0.0328099, 173.752] "
                                  "GHz reachable on the bracket [0.0, 1.5] meV")
    LOW_BARRIER = (CalibrationError, "calibrate_barrier: target 0.0001 GHz outside [0.0328099, "
                                     "1.28415] GHz reachable on the bracket [0.3, 1.3] meV")
    HIGH_BARRIER = (CalibrationError, "calibrate_barrier: target 2 GHz outside [0.0328099, "
                                      "1.28415] GHz reachable on the bracket [0.3, 1.3] meV")
    OVERFLOW = (ValueError, "Impurity(x_c=-150.0, y_c=0.0, q=1e+308): its matrix elements "
                            "overflow")

    @staticmethod
    def call(name, rows):
        """The batch call name on rows, at the default device and impurity."""
        base = DeviceParams()
        imp = default_impurity(base)
        return {"calibrate_many": lambda: calibrate_many(rows, base),
                "noise_records": lambda: noise_records(rows, base, imp),
                "sweep": lambda: sweep("tilt", rows, base, imp),
                "improvement_factors": lambda: improvement_factors(rows, imp, base)}[name]()

    # (the call, a row that succeeds, the first failing row and what it
    # raises, a later failing row)
    CASES = [
        ("calibrate_many", ("barrier", 0.242), ("tilt", math.nan), NAN_TILT, ("barrier", 1e-4)),
        ("calibrate_many", ("tilt", 0.242), ("barrier", 1e-4), LOW_BARRIER, ("tilt", math.nan)),
        ("noise_records", ("tilt", 0.3), ("barrier", math.nan),
         (ValueError, "xi must be finite, got nan"), ("magnetic", 0.1)),
        ("noise_records", ("barrier", 0.9), ("magnetic", 0.1),
         (ValueError, "unknown scheme 'magnetic'"), ("tilt", math.nan)),
        ("sweep", 0.3, math.nan, (ValueError, "epsilon must be finite, got nan"), math.inf),
        ("improvement_factors", 0.242, 2.0, HIGH_BARRIER, 1e6),
        ("improvement_factors", 0.242, 1e6, FAR_TILT, math.nan),
    ]
    IDS = ["calibrate_many-nan", "calibrate_many-unreachable", "noise_records-control",
           "noise_records-scheme", "sweep", "improvement_factors-barrier",
           "improvement_factors-tilt"]

    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("name,good,bad,want,later", CASES, ids=IDS)
    def test_the_lowest_failing_row_is_raised(self, name, good, bad, want, later, at):
        rows = [good] * 5
        rows[at] = bad
        if at < 4:
            rows[-1] = later
        with pytest.raises(Exception) as err:
            self.call(name, rows)
        assert (type(err.value), str(err.value)) == want
        alone = raised_or(lambda: self.call(name, [bad]))
        assert (type(alone), str(alone)) == want

    @pytest.mark.parametrize("name,good", [case[:2] for case in CASES], ids=IDS)
    def test_no_returned_list_holds_an_exception(self, name, good):
        got = self.call(name, [good] * 3)
        assert type(got) is list and len(got) == 3
        assert all(type(r) in (float, NoiseRecord, ChiRecord) for r in got)

    # Within a target, the tilt calibration's exception comes first, then
    # the barrier calibration's, then the tilt record's and the barrier
    # record's (this impurity's elements overflow, so every record fails).
    @pytest.mark.parametrize("targets,want", [
        ([1e6, 0.05], FAR_TILT), ([2.0, 0.05], HIGH_BARRIER), ([0.05, 1e6], OVERFLOW)])
    def test_improvement_factors_raise_a_targets_first_exception(self, targets, want):
        with pytest.raises(Exception) as err:
            improvement_factors(targets, Impurity(-150.0, 0.0, 1e308))
        assert (type(err.value), str(err.value)) == want


class TestUnbuildableDevice:
    """A device that passes derive_constants but cannot be built (its
    overlap rounds to 1.0) fails every point, as a bad device field does."""

    DEVICE = DeviceParams(a=1e-200)
    MESSAGE = "overlap must be in [0, 1), got 1.0"

    @pytest.mark.parametrize("mode", [AssemblyMode.PAPER, AssemblyMode.FULL])
    def test_every_entry_of_a_batch_carries_its_error(self, impurity, mode):
        requests = [("tilt", 0.242), ("barrier", 0.242), ("tilt", math.nan)]
        controls = [("tilt", 0.3), ("barrier", math.nan), ("barrier", 1.0)]
        for batch in (calibrations(requests, self.DEVICE, mode),
                      records(controls, self.DEVICE, impurity, mode)):
            assert [(type(e), str(e)) for e in batch] == [(ValueError, self.MESSAGE)] * 3
        for call in (lambda: calibrate_many(requests, self.DEVICE, mode),
                     lambda: noise_records(controls, self.DEVICE, impurity, mode)):
            with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
                call()

    def test_a_lone_solve_raises_it(self):
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            hamiltonian.solve_stack(self.DEVICE, [0.0, math.nan], [1.3, 1.3])
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            solve(self.DEVICE)

    # J0 is kept only once solved: each matched-J grid on this device solves
    # it again, and fails again with the same message.
    def test_a_failed_j0_fails_again_on_the_next_call(self, monkeypatch):
        solves, real = [], noise.solve_stack
        monkeypatch.setattr(noise, "solve_stack", lambda *args: solves.append(args) or real(*args))
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                matched_j_grid(self.DEVICE)
            assert str(err.value) == self.MESSAGE
        assert len(solves) == 2

    # Only a ValueError is the device's own failure.  Any other error is a
    # fault of the program: it propagates from where it is raised, and is
    # neither spread over the rows nor kept and raised again for the first.
    @pytest.mark.parametrize("call", [
        lambda: cli.main(["exchange-tilt", "--eps-range", "0:0.02:0.01"]),
        lambda: calibrate_many([("tilt", 0.242), ("barrier", 0.242)]),
    ], ids=["exchange-tilt", "calibrate_many"])
    def test_an_error_that_is_not_the_devices_propagates(self, monkeypatch, call):
        def broken(hp, mode=AssemblyMode.PAPER):
            raise TypeError("injected")
        monkeypatch.setattr(hamiltonian, "assemble_matrix", broken)
        with pytest.raises(TypeError, match="injected") as raised:
            call()
        assert "_raise_first" not in {frame.name for frame in traceback.extract_tb(raised.tb)}


class TestJGhz:
    """noise._j_ghz: one stacked solve, J in GHz, and one failure map whose
    keys are the settings' own indices."""

    # A NaN control fails before any J; J = 1e307 meV is finite and
    # overflows in GHz.  Each is named by its own message at its own index.
    def test_a_failed_point_and_an_overflow_keep_their_own_messages(self):
        js, failed = noise._j_ghz(DeviceParams(), [(0.0, 1.3), (math.nan, 1.3), (1e307, 1.3),
                                                   (0.0, math.inf)], AssemblyMode.PAPER)
        assert {k: (type(exc), str(exc)) for k, exc in failed.items()} == {
            1: (ValueError, "epsilon must be finite, got nan"),
            2: (ValueError, "J = 1e+307 meV overflows in GHz"),
            3: (ValueError, "xi must be finite, got inf")}
        assert js[0] == exchange_J_ghz(DeviceParams()) and np.isnan(js[1:]).all()


class TestMatchedGrid:
    def test_geometric_from_common_origin(self, params):
        grid = matched_j_grid(params)
        assert grid.shape == (25,)
        assert grid[0] == pytest.approx(J0_GHZ, rel=1e-12)
        assert grid[-1] == pytest.approx(1.0, rel=1e-12)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert np.all(np.diff(grid) > 0)

    def test_custom_size_and_ceiling(self, params):
        grid = matched_j_grid(params, n=7, j_max_ghz=0.5)
        assert grid.shape == (7,)
        assert grid[-1] == pytest.approx(0.5, rel=1e-12)

    # A bad size or ceiling is named by its parameter, before any solve.
    @pytest.mark.parametrize("kwargs,message", [
        ({"n": 1}, "n must be at least 2, got 1"),
        ({"n": -3}, "n must be at least 2, got -3"),
        # Above the bound n is refused unallocated (2**40 points were 8 TiB).
        ({"n": noise.MAX_GRID_POINTS + 1},
         f"n must be at most {noise.MAX_GRID_POINTS}, got {noise.MAX_GRID_POINTS + 1}"),
        ({"n": 2**40}, f"n must be at most {noise.MAX_GRID_POINTS}, got {2**40}"),
        ({"j_max_ghz": 0.0}, "j_max_ghz must be positive and finite, got 0.0"),
        ({"j_max_ghz": math.nan}, "j_max_ghz must be positive and finite, got nan"),
        ({"j_max_ghz": math.inf}, "j_max_ghz must be positive and finite, got inf"),
        # A float n, integral or not, is not a point count (2.5 made 3
        # points past j_max).
        ({"n": 2.5}, "n must be an integer, got 2.5"),
        ({"n": 3.0}, "n must be an integer, got 3.0"),
        ({"n": np.float64(3.0)}, f"n must be an integer, got {np.float64(3.0)!r}"),
    ])
    def test_a_bad_grid_names_its_parameter(self, params, kwargs, message, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")
        monkeypatch.setattr(noise, "solve_stack", no_solve)
        with pytest.raises(ValueError) as err:
            matched_j_grid(params, **kwargs)
        assert str(err.value) == message

    # The grid runs up from J0: an upper end below J0, by far or by one ulp,
    # is refused with both values, and one at J0 gives a flat grid.
    def test_an_upper_end_below_j0_is_refused(self, params):
        j0 = float(matched_j_grid(params, n=2)[0])
        for j_max in (0.001, math.nextafter(j0, 0.0)):
            with pytest.raises(ValueError) as err:
                matched_j_grid(params, n=3, j_max_ghz=j_max)
            assert str(err.value) == (f"paper mode: the matched-J grid's upper end {j_max!r} GHz "
                                      f"is below its start J0 = J(epsilon = 0) = {j0!r} GHz")
        assert matched_j_grid(params, n=3, j_max_ghz=j0).tolist() == [j0] * 3

    # The CLI refuses such a grid with that one message, before any
    # calibration, and writes no CSV: --j-max 0.001 on the default device,
    # and the default 1 GHz at xi = 0.2 meV, where J0 is 1.507 GHz.
    @pytest.mark.parametrize("command", ["noise-compare", "near-impurity"])
    @pytest.mark.parametrize("xi,flags,j_max", [(1.3, ["--j-max", "0.001"], 0.001),
                                                (0.2, [], 1.0)])
    def test_a_cli_grid_below_j0_is_refused(self, command, xi, flags, j_max, monkeypatch,
                                            tmp_path, capsys):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated a grid that falls from J0")
        j0 = exchange_J_ghz(DeviceParams(xi=xi))
        monkeypatch.setattr(cli, "_chi_table", no_calibration)
        cfg, out = tmp_path / "device.cfg", tmp_path / "out.csv"
        cfg.write_text(f"control.xi_mev = {xi}\n")
        assert cli.main([command, *flags, "--points", "3", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "dqdsim: error: paper mode: the matched-J grid's "
                                       f"upper end {j_max!r} GHz is below its start "
                                       f"J0 = J(epsilon = 0) = {j0!r} GHz\n")
        assert not out.exists()

    # The bound is inclusive, and the CLI's --points and ranges share it.
    def test_the_largest_grid_is_taken(self, params):
        assert len(matched_j_grid(params, n=noise.MAX_GRID_POINTS)) == 100_000
        assert cli.MAX_GRID_POINTS is noise.MAX_GRID_POINTS

    def test_a_numpy_integer_n_is_a_size(self, params):
        grid = matched_j_grid(params, n=np.int64(3))
        assert grid.tolist() == matched_j_grid(params, n=3).tolist()
        assert len(grid) == 3 and grid[-1] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_a_negative_starting_point(self, params):
        # In full mode the default device has J0 < 0 at zero detuning.
        with pytest.raises(ValueError, match=r"full mode: .* J0 = J\(epsilon = 0\) = -19\.186"):
            matched_j_grid(params, mode=AssemblyMode.FULL)


class TestImprovementFactor:
    def test_equals_one_at_the_common_origin(self, params, impurity):
        # J0 computed, not pinned: the J0 branch needs this BLAS kernel's bits.
        rec = improvement_factor(float(matched_j_grid(params, n=2)[0]), impurity)
        assert rec.chi == pytest.approx(1.0, abs=1e-6)
        assert rec.rel_tilt == pytest.approx(rec.rel_barrier, rel=1e-6)

    def test_barrier_beats_tilt_away_from_origin(self, impurity):
        rec = improvement_factor(0.242, impurity)
        assert abs(rec.rel_tilt) > abs(rec.rel_barrier)
        assert rec.chi > 1.0
        assert rec.chi == pytest.approx(abs(rec.rel_tilt) / abs(rec.rel_barrier))

    def test_neutral_charge_signals_unity(self, params):
        rec = improvement_factor(0.242, Impurity(-600.0, 600.0, q=0.0))
        assert rec.chi == 1.0  # 0/0 is reported as parity, not an error
        assert rec.rel_tilt == rec.rel_barrier == 0.0

    # An impurity too far for its squared distance to be finite has elements
    # 0; one whose charge makes an element overflow fails its own records by
    # name.  Neither warns, so with warnings raised as errors the clean
    # calibrations, which share the stack, keep their outcome.
    @pytest.mark.parametrize("imp,failure", [
        (Impurity(1e200, 0.0), None),
        (Impurity(-150.0, 0.0, 1e308),
         "Impurity(x_c=-150.0, y_c=0.0, q=1e+308): its matrix elements overflow")],
        ids=["far", "charged"])
    def test_an_overflowing_impurity_fails_only_its_records(self, imp, failure):
        requests = [(scheme, j) for j in (0.05, 1e6) for scheme in ("tilt", "barrier")]
        clean = calibrations(requests)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            controls, (recs,) = calibrated(requests, DeviceParams(), AssemblyMode.PAPER, [imp])
            near, far = chis([0.05, 1e6], imp)
        assert list(map(repr, controls)) == list(map(repr, clean))
        assert isinstance(far, CalibrationError) and repr(far) == repr(clean[2])
        if failure is None:
            assert [r.rel_noise for r in recs[:2]] == [0.0, 0.0]
            assert (near.rel_tilt, near.rel_barrier, near.chi) == (0.0, 0.0, 1.0)
        else:
            assert [repr(r) for r in recs[:2]] == [repr(ValueError(failure))] * 2
            assert repr(near) == repr(ValueError(failure))


class TestHubbardNoiseEstimate:
    def test_tracks_exact_at_zero_detuning(self, params, impurity):
        est = hubbard_noise_estimate(params, impurity)
        exact = delta_J("tilt", 0.0, params, impurity).rel_noise
        assert abs(est - exact) / abs(exact) < 0.20

    def test_tracks_exact_at_moderate_detuning(self, params, impurity):
        p = DeviceParams(epsilon=0.3)
        est = hubbard_noise_estimate(p, impurity)
        exact = delta_J("tilt", 0.3, params, impurity).rel_noise
        assert abs(est - exact) / abs(exact) < 0.20

    def test_linear_in_impurity_charge(self, params):
        full = hubbard_noise_estimate(params, Impurity(-600.0, 600.0, q=-1.0))
        half = hubbard_noise_estimate(params, Impurity(-600.0, 600.0, q=-0.5))
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_raises_at_charge_transfer_pole(self, impurity):
        with pytest.raises(ZeroDivisionError, match="pole"):
            hubbard_noise_estimate(DeviceParams(epsilon=DELTA_U), impurity)


class TestSweetSpot:
    @pytest.mark.parametrize("xi", [0.6, 1.0, 1.3])
    def test_untilted_point_is_first_order_insensitive(self, xi):
        slope, err = sweet_spot_check(DeviceParams(xi=xi))
        j0 = exchange_J_ghz(DeviceParams(epsilon=0.0, xi=xi))
        assert abs(slope) <= 1e-6 * j0  # GHz per meV
        assert err <= 1e-6 * j0


class TestQualityModel:
    def test_sigma_total_combines_in_quadrature(self):
        m = QualityModel(sigma_rel=0.03, sigma_floor_ghz=0.004)
        assert sigma_total(0.5, m) == pytest.approx(math.hypot(0.015, 0.004), rel=1e-15)

    def test_quality_factor_formula(self):
        m = QualityModel(sigma_rel=0.02)
        q = quality_factor(0.3, m)
        assert q == pytest.approx(0.3 / (math.sqrt(2) * math.pi * 0.006), rel=1e-12)

    def test_pure_relative_noise_makes_q_flat_in_j(self):
        m = QualityModel(sigma_rel=0.05)
        qs = {quality_factor(j, m) for j in (0.05, 0.2, 0.8)}
        assert max(qs) - min(qs) < 1e-12 * max(qs)

    def test_pure_floor_noise_makes_q_linear_in_j(self):
        m = QualityModel(sigma_rel=0.0, sigma_floor_ghz=0.01)
        assert quality_factor(0.6, m) == pytest.approx(2 * quality_factor(0.3, m), rel=1e-12)

    def test_rejects_nonpositive_j(self):
        m = QualityModel(sigma_rel=0.05)
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="positive"):
                quality_factor(bad, m)

    def test_noiseless_model_signals_infinity(self):
        assert quality_factor(0.3, QualityModel(sigma_rel=0.0)) == math.inf

    @pytest.mark.parametrize("j,sigma,t", [(0.3, 0.01, 5.0), (0.8, 0.02, 10.0), (0.1, 0.005, 30.0)])
    def test_numeric_envelope_matches_closed_form(self, j, sigma, t):
        assert envelope_numeric(j, sigma, t) == pytest.approx(
            envelope_closed(sigma, t), abs=1e-12)

    def test_t_star_is_the_1_over_e_time(self):
        sigma = 0.015
        assert envelope_closed(sigma, t_star_ns(sigma)) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert t_star_ns(0.0) == math.inf

    # A non-finite J or t, and a sigma or model field that is not finite or
    # is negative, is rejected with a message that names it; a J <= 0 keeps
    # quality_factor's own message, which qfactor prints.
    @pytest.mark.parametrize("call,message", [
        (lambda: quality_factor(math.nan, QualityModel(0.1)), "J must be finite, got nan"),
        (lambda: quality_factor(math.inf, QualityModel(0.1)), "J must be finite, got inf"),
        (lambda: quality_factor(-math.inf, QualityModel(0.1)), "J must be positive, got -inf"),
        (lambda: quality_factor(1.0, QualityModel(math.nan)),
         "sigma_rel must be non-negative and finite, got nan"),
        (lambda: quality_factor(1.0, QualityModel(0.1, -0.01)),
         "sigma_floor_ghz must be non-negative and finite, got -0.01"),
        (lambda: sigma_total(1.0, QualityModel(-0.1)),
         "sigma_rel must be non-negative and finite, got -0.1"),
        (lambda: sigma_total(math.nan, QualityModel(0.1)), "J must be finite, got nan"),
        (lambda: sigma_total(1.0, QualityModel(0.1, math.inf)),
         "sigma_floor_ghz must be non-negative and finite, got inf"),
        (lambda: t_star_ns(-0.1), "sigma must be non-negative and finite, got -0.1"),
        (lambda: t_star_ns(math.nan), "sigma must be non-negative and finite, got nan"),
        (lambda: envelope_closed(-0.01, 5.0), "sigma must be non-negative and finite, got -0.01"),
        (lambda: envelope_closed(0.01, math.inf), "t must be finite, got inf"),
        (lambda: envelope_numeric(0.2, -0.01, 5.0),
         "sigma must be non-negative and finite, got -0.01"),
        (lambda: envelope_numeric(math.nan, 0.01, 5.0), "J must be finite, got nan"),
        (lambda: envelope_numeric(0.2, 0.01, -math.inf), "t must be finite, got -inf"),
    ])
    def test_a_bad_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    # The edges that stay valid: a negative J or t in an envelope, a zero sigma.
    def test_zero_sigma_and_negative_j_or_t_are_accepted(self):
        assert envelope_closed(0.0, -3.0) == 1.0
        assert envelope_numeric(-0.2, 0.01, -5.0) == pytest.approx(
            envelope_closed(0.01, 5.0), abs=1e-12)
        assert sigma_total(-1.0, QualityModel(0.1)) == 0.1


class TestSweep:
    def test_preserves_order_and_values(self, params, impurity):
        values = [0.4, 0.0, 0.2]
        recs = sweep("tilt", values, params, impurity)
        assert [r.control_mev for r in recs] == values
        assert recs[1].rel_noise == pytest.approx(REL_NOISE_AT_J0, rel=1e-12)

    def test_captures_per_point_errors(self, impurity):
        bad = DeviceParams(m_eff=-0.067)
        recs = records([("tilt", 0.0), ("tilt", 0.2)], bad, impurity)
        for r in recs:
            assert isinstance(r, ValueError)
            assert str(r) == "m_eff must be positive and finite, got -0.067"
        with pytest.raises(ValueError, match="m_eff must be positive and finite, got -0.067"):
            sweep("tilt", [0.0, 0.2], bad, impurity)

    def test_captures_nonfinite_controls_per_point(self, params, impurity):
        recs = records([("barrier", 0.9), ("barrier", math.nan)], params, impurity)
        assert isinstance(recs[0], NoiseRecord) and math.isfinite(recs[0].rel_noise)
        assert recs[0] == delta_J("barrier", 0.9, params, impurity)
        assert isinstance(recs[1], ValueError)
        assert str(recs[1]) == "xi must be finite, got nan"
        with pytest.raises(ValueError, match="xi must be finite, got nan"):
            sweep("barrier", [0.9, math.nan], params, impurity)

    @pytest.mark.parametrize("field,value", [
        ("a", math.nan), ("hbar_omega0", math.inf), ("eps_r", math.nan)])
    def test_captures_nonfinite_device_per_point(self, impurity, field, value):
        bad = dataclasses.replace(DeviceParams(), **{field: value})
        recs = records([("tilt", 0.0), ("tilt", 0.2)], bad, impurity)
        for r in recs:
            assert isinstance(r, ValueError)
            assert str(r).startswith(f"{field} must be positive and finite")
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            sweep("tilt", [0.0, 0.2], bad, impurity)
