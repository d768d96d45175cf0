"""Tests for charge-noise metrics, calibration, and the quality model."""
import dataclasses
import math

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
    sweep,
    sweet_spot_check,
    t_star_ns,
)
from dqdsim import hamiltonian, noise
from dqdsim.model import control_point
from dqdsim.noise import calibrate_many, improvement_factors

# Frozen reference values at the default device with the default
# impurity at (-600, 600) nm, charge -e.
J0_GHZ = 0.032809933155053005
REL_NOISE_AT_J0 = 0.09185829016258289
EPS_STAR_242MHZ = 0.727583279863922
XI_STAR_242MHZ = 0.9745470770110896
DELTA_U = 0.7814953236075299


# Synthetic f(x - r, c) with a root at x = r for c > 0.
SHAPES = (lambda x, c: x * (1.0 + c * x * x),
          lambda x, c: math.tanh(c * x) + 0.1 * x**3,
          lambda x, c: math.expm1(c * x),
          lambda x, c: math.atan(c * x) - 0.3 * math.sin(x))


def count_j_evaluations(monkeypatch) -> list:
    """The matrices that solves hand to the eigensolver from now on: one
    per J evaluation, whatever stack it is solved in."""
    calls = []
    real = hamiltonian.jacobi_eigh
    monkeypatch.setattr(hamiltonian, "jacobi_eigh",
                        lambda A, *a, **kw: calls.extend(A) or real(A, *a, **kw))
    return calls


def lone_calibration(j_of, lo, hi, target, label):
    """One calibration on its own, as before the lockstep: J at both ends,
    then noise._brentq.  Returns (the root, or the message of the error
    that ended it, and the controls evaluated between the ends)."""
    evaluated = []

    def miss(c):
        evaluated.append(c)
        return j_of(c) - target

    f_lo, f_hi = j_of(lo) - target, j_of(hi) - target
    assert (f_lo < 0) != (f_hi < 0)
    try:
        root, _ = noise._brentq(miss, lo, hi, f_lo, f_hi, 1e-13, 8.9e-16,
                                noise._CAL_MAXITER, label)
    except CalibrationError as exc:
        return str(exc), evaluated
    return root, evaluated


def outcome(result):
    return str(result) if isinstance(result, Exception) else result


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
        assert rec.impurity == impurity
        assert rec.error is None

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

    def test_csv_fields(self):
        assert NoiseRecord.CSV_FIELDS == (
            "scheme", "control_mev", "J_clean_ghz", "J_imp_ghz",
            "delta_J_ghz", "rel_noise")
        assert ChiRecord.CSV_FIELDS == ("J_ghz", "rel_tilt", "rel_barrier", "chi")


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
        monkeypatch.setattr(noise, "_CAL_MAXITER", 2)
        for calibrate in (calibrate_tilt, calibrate_barrier):
            with pytest.raises(CalibrationError,
                               match=f"{calibrate.__name__}: no root within 2 iterations"):
                calibrate(0.242)


class TestBrent:
    """noise._brentq takes the same steps as scipy.optimize.brentq, from
    the bracket values that the calibration has already computed."""

    def test_bit_equal_to_scipy_on_synthetic_brackets(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(11)
        shapes = SHAPES
        for k in range(2000):
            r, c = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0)
            a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
            if k % 2:
                a, b = b, a
            xtol = 10.0 ** rng.uniform(-15.0, -3.0)
            maxiter = int(rng.integers(5, 200))

            def f(x, shape=shapes[k % len(shapes)]):
                return shape(x - r, c)
            fa, fb = f(a), f(b)
            if fa == 0.0 or fb == 0.0 or (fa < 0) == (fb < 0):
                continue
            try:
                ref = brentq(f, a, b, xtol=xtol, rtol=8.9e-16, maxiter=maxiter)
            except RuntimeError:  # scipy ran out of steps
                with pytest.raises(CalibrationError, match=f"no root within {maxiter}"):
                    noise._brentq(f, a, b, fa, fb, xtol, 8.9e-16, maxiter, "synthetic")
                continue
            root, f_root = noise._brentq(f, a, b, fa, fb, xtol, 8.9e-16, maxiter, "synthetic")
            assert root == ref and f_root == f(root), (k, a, b)

    @pytest.mark.parametrize("target", [0.05, 0.242, 0.9])
    @pytest.mark.parametrize("scheme", ["tilt", "barrier"])
    def test_calibrations_match_scipy_with_three_fewer_j_evaluations(
            self, monkeypatch, scheme, target):
        from scipy.optimize import brentq
        base = DeviceParams()
        bracket = TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET
        ref, info = brentq(
            lambda c: exchange_J_ghz(control_point(scheme, base, c)) - target, *bracket,
            xtol=1e-13, rtol=8.9e-16, maxiter=noise._CAL_MAXITER, full_output=True)
        # Each J evaluation is one matrix of a stacked eigensolve.
        calls = count_j_evaluations(monkeypatch)
        got = calibrate_tilt(target) if scheme == "tilt" else calibrate_barrier(target)
        assert got == ref
        # The scipy path evaluated J at both ends, then scipy's own
        # function calls, then once more at the root.
        assert len(calls) == (2 + info.function_calls + 1) - 3


class TestLockstep:
    """calibrate_many advances every calibration in lockstep, one stacked
    solve per round; each calibration takes the steps it takes alone."""

    def test_synthetic_brackets_match_one_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(11)
        lo, hi = TILT_BRACKET
        for k in range(60):
            shape, r, c = SHAPES[k % len(SHAPES)], rng.uniform(lo, hi), rng.uniform(0.1, 5.0)

            def j_of(x, shape=shape, r=r, c=c):
                return 10.0 + shape(x - r, c)
            targets = [j_of(x) for x in rng.uniform(lo, hi, size=int(rng.integers(1, 8)))]
            refs = [lone_calibration(j_of, lo, hi, t, "calibrate_tilt") for t in targets]
            rounds = []

            def fake_j_ghz(points, mode, j_of=j_of):
                rounds.append([params.epsilon for params, _ in points])
                return [j_of(params.epsilon) for params, _ in points]
            monkeypatch.setattr(noise, "_j_ghz", fake_j_ghz)
            got = calibrate_many([("tilt", t) for t in targets])
            assert [outcome(g) for g in got] == [root for root, _ in refs], k
            # The ends once, then one round per step of the longest calibration,
            # holding the pending step of each calibration still running.
            assert rounds[0] == [lo, hi]
            assert len(rounds) == 1 + max(len(e) for _, e in refs)
            assert sorted(sum(rounds[1:], [])) == sorted(sum((e for _, e in refs), []))

    TARGETS = (0.05, 0.15, 0.242, 0.5, 0.9)

    def lone_references(self):
        base = DeviceParams()
        requests = [(scheme, t) for t in self.TARGETS for scheme in ("tilt", "barrier")]
        refs = [lone_calibration(lambda c, s=scheme: exchange_J_ghz(control_point(s, base, c)),
                                 *(TILT_BRACKET if scheme == "tilt" else BARRIER_BRACKET),
                                 t, f"calibrate_{scheme}")
                for scheme, t in requests]
        return requests, refs

    def test_real_targets_match_one_at_a_time(self, monkeypatch):
        requests, refs = self.lone_references()
        calls = count_j_evaluations(monkeypatch)
        got = calibrate_many(requests)
        assert got == [root for root, _ in refs]
        # J once at each bracket end, then the steps: the tilt bracket starts
        # where the barrier bracket ends (epsilon = 0, xi = 1.3), so 3 ends.
        assert len(calls) == 3 + sum(len(e) for _, e in refs)

    def test_running_out_of_steps_fails_only_that_calibration(self, monkeypatch):
        monkeypatch.setattr(noise, "_CAL_MAXITER", 13)
        requests, refs = self.lone_references()
        failed = [isinstance(root, str) for root, _ in refs]
        assert any(failed) and not all(failed)
        got = calibrate_many(requests)
        for g, (root, _) in zip(got, refs):
            if isinstance(root, str):
                assert isinstance(g, CalibrationError) and str(g) == root
                assert "no root within 13 iterations" in root
            else:
                assert g == root

    def test_improvement_factors_match_one_at_a_time(self, impurity):
        targets = [0.05, 0.242, 0.9]
        got = improvement_factors(targets, impurity)
        assert got == [improvement_factor(t, impurity) for t in targets]

    def test_failing_targets_fail_alone(self, impurity):
        got = improvement_factors([0.242, 1e6, 0.5], impurity)
        assert got[0] == improvement_factor(0.242, impurity)
        assert got[2] == improvement_factor(0.5, impurity)
        assert isinstance(got[1], CalibrationError)
        assert str(got[1]).startswith("calibrate_tilt: target 1e+06 GHz outside")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'magnetic'"):
            calibrate_many([("magnetic", 0.242)])


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

    def test_rejects_a_negative_starting_point(self, params):
        # In full mode the default device has J0 < 0 at zero detuning.
        with pytest.raises(ValueError, match=r"full mode: .* J0 = J\(epsilon = 0\) = -19\.186"):
            matched_j_grid(params, mode=AssemblyMode.FULL)


class TestImprovementFactor:
    def test_equals_one_at_the_common_origin(self, params, impurity):
        rec = improvement_factor(J0_GHZ, impurity)
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


class TestSweep:
    def test_preserves_order_and_values(self, params, impurity):
        values = [0.4, 0.0, 0.2]
        recs = sweep("tilt", values, params, impurity)
        assert [r.control_mev for r in recs] == values
        assert recs[1].rel_noise == pytest.approx(REL_NOISE_AT_J0, rel=1e-12)

    def test_captures_per_point_errors(self, impurity):
        bad = DeviceParams(m_eff=-0.067)
        recs = sweep("tilt", [0.0, 0.2], bad, impurity)
        for r in recs:
            assert math.isnan(r.J_clean_ghz) and math.isnan(r.rel_noise)
            assert "m_eff" in r.error

    def test_captures_nonfinite_controls_per_point(self, params, impurity):
        recs = sweep("barrier", [0.9, math.nan], params, impurity)
        assert recs[0].error is None and math.isfinite(recs[0].rel_noise)
        assert math.isnan(recs[1].rel_noise)
        assert "xi must be finite" in recs[1].error

    @pytest.mark.parametrize("field,value", [
        ("a", math.nan), ("hbar_omega0", math.inf), ("eps_r", math.nan)])
    def test_captures_nonfinite_device_per_point(self, impurity, field, value):
        bad = dataclasses.replace(DeviceParams(), **{field: value})
        recs = sweep("tilt", [0.0, 0.2], bad, impurity)
        for r in recs:
            assert math.isnan(r.rel_noise)
            assert r.error.startswith(f"ValueError: {field} must be positive and finite")
