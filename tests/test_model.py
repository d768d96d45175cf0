"""Device parameters, derived constants, controls, validation, config I/O."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from dqdsim import (
    COULOMB_VACUUM,
    DeviceParams,
    HBAR2_OVER_2ME,
    Impurity,
    MEV_TO_GHZ,
    config_to_objects,
    control_point,
    derive_constants,
    read_config,
    validate_params,
)


class TestConstants:
    def test_kinetic_prefactor(self):
        assert HBAR2_OVER_2ME == pytest.approx(38.09982, abs=1e-5)

    def test_coulomb_prefactor(self):
        assert COULOMB_VACUUM == pytest.approx(1439.964, abs=1e-3)

    def test_frequency_conversion(self):
        assert MEV_TO_GHZ == pytest.approx(241.799, abs=1e-3)


class TestDerivedConstants:
    def test_default_fock_darwin_radius(self, consts):
        # a_B = sqrt(hbar^2 / (m* hbar w0)) at m* = 0.067 m_e, 0.1 meV
        assert consts.fock_darwin_radius == pytest.approx(
            106.64464635890039, rel=1e-13)

    def test_default_barrier_height(self, consts):
        # C = a^2 m* w0^2 / 12
        assert consts.barrier_height == pytest.approx(
            0.007327243715762088, rel=1e-13)

    def test_default_coulomb_scale(self, consts):
        assert consts.coulomb_scale == pytest.approx(
            109.92091603053434, rel=1e-13)

    def test_m_omega2_consistent(self, params, consts):
        # m* w0^2 = (hbar w0)^2 / (hbar^2 / m*)
        assert consts.m_omega2 * consts.kinetic_scale * 2.0 == pytest.approx(
            params.hbar_omega0**2, rel=1e-13)

    @pytest.mark.parametrize("field", ["a", "hbar_omega0", "m_eff", "eps_r"])
    def test_rejects_nonpositive(self, field):
        bad = dataclasses.replace(DeviceParams(), **{field: 0.0})
        with pytest.raises(ValueError, match=field):
            derive_constants(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "hbar_omega0", "m_eff", "eps_r", "epsilon", "xi"])
    def test_rejects_nonfinite(self, field, value):
        bad = dataclasses.replace(DeviceParams(), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
            derive_constants(bad)

    @given(w0=st.floats(0.05, 5.0), m=st.floats(0.02, 1.0))
    def test_radius_scaling(self, w0, m):
        # a_B ~ 1/sqrt(m* w0): doubling both halves a_B^2 twice over
        c1 = derive_constants(DeviceParams(hbar_omega0=w0, m_eff=m))
        c2 = derive_constants(DeviceParams(hbar_omega0=2 * w0, m_eff=2 * m))
        assert c2.fock_darwin_radius == pytest.approx(
            c1.fock_darwin_radius / 2.0, rel=1e-12)


class TestDetuningConvention:
    def test_detuning_is_mu_difference(self):
        p = DeviceParams(epsilon=0.37)
        assert p.mu2 - p.mu1 == pytest.approx(0.37, abs=1e-15)

    def test_positive_detuning_deepens_right_dot(self):
        # V(+a) = -mu2 < V(-a) = -mu1 for epsilon > 0
        p = DeviceParams(epsilon=0.5)
        assert -p.mu2 < -p.mu1

    def test_symmetric_at_zero(self):
        p = DeviceParams()
        assert p.mu1 == 0.0 and p.mu2 == 0.0


class TestImpurity:
    @pytest.mark.parametrize("field", ["x_c", "y_c", "q"])
    def test_rejects_nonfinite(self, field):
        kwargs = {"x_c": -600.0, "y_c": 600.0, "q": -1.0, field: math.nan}
        with pytest.raises(ValueError, match=f"impurity {field} must be finite"):
            Impurity(**kwargs)


class TestControls:
    def test_tilt_sets_epsilon_and_fixes_barrier(self):
        p = control_point("tilt", DeviceParams(xi=0.7), 0.42)
        assert p.epsilon == 0.42 and p.xi == 0.7

    def test_barrier_sets_xi_and_zeroes_detuning(self):
        p = control_point("barrier", DeviceParams(epsilon=0.9), 0.8)
        assert p.xi == 0.8 and p.epsilon == 0.0

    def test_names(self):
        # A scheme is its name: "tilt" and "barrier" above, nothing else.
        with pytest.raises(ValueError, match="unknown scheme 'magnetic'"):
            control_point("magnetic", DeviceParams(), 0.1)


class TestValidateParams:
    def test_defaults_ok(self):
        assert validate_params(DeviceParams()).ok

    def test_figure_ranges_ok(self):
        for eps, xi in [(0.0, 1.3), (1.0, 1.3), (0.0, 0.5), (0.3, 0.5)]:
            assert validate_params(DeviceParams(epsilon=eps, xi=xi)).ok

    def test_deep_tilt_with_weak_barrier_flagged(self):
        # one-sided curvature at the origin: (a^2 m*w0^2 - 12 mu_i - 12 C
        # - 16 xi)/a^2 <= 0.  At the defaults a^2 m*w0^2 = 12 C, so the
        # shallow side needs 6 eps <= 16 xi.
        assert not validate_params(DeviceParams(epsilon=1.0, xi=0.3)).ok
        assert validate_params(DeviceParams(epsilon=1.0, xi=0.4)).ok

    @pytest.mark.parametrize("field", ["a", "hbar_omega0", "eps_r", "epsilon", "xi"])
    def test_nonfinite_input_fails_its_check(self, field):
        report = validate_params(dataclasses.replace(DeviceParams(), **{field: math.nan}))
        failed = [c.name for c in report.checks if not c.passed]
        assert len(failed) == 1 and field in failed[0].split()

    def test_report_lists_named_checks(self):
        report = validate_params(DeviceParams())
        assert len(report.checks) >= 5
        assert all(r.passed for r in report.checks)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "dev.cfg"
        cfg.write_text(
            "# comment line\n"
            "device.a_nm = 80\n"
            "device.hbar_omega0_mev = 0.15  # trailing comment\n"
            "control.xi_mev = 1.1\n"
            "impurity.x_nm = -480\n"
            "impurity.y_nm = 480\n"
            "impurity.charge_e = -0.5\n",
            encoding="utf-8")
        params, imp = config_to_objects(read_config(str(cfg)))
        assert params.a == 80.0
        assert params.hbar_omega0 == 0.15
        assert params.xi == 1.1
        assert imp == Impurity(-480.0, 480.0, -0.5)

    def test_defaults_when_empty(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing\n", encoding="utf-8")
        params, imp = config_to_objects(read_config(str(cfg)))
        assert params == DeviceParams()
        assert imp is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_to_objects({"device.bogus": "1"})

    def test_charge_without_a_position_rejected(self):
        with pytest.raises(ValueError, match=r"^impurity\.charge_e given without "
                                             r"impurity\.x_nm or impurity\.y_nm"):
            config_to_objects({"impurity.charge_e": "-0.5"})
        _, imp = config_to_objects({"impurity.y_nm": "300", "impurity.charge_e": "-0.5"})
        assert imp == Impurity(0.0, 300.0, -0.5)

    # Each step mends the fault named before it.  A device value comes
    # first, then an impurity value, then a charge without a position, whose
    # value is not read, and unknown keys last.
    @pytest.mark.parametrize("cfg,steps", [
        ({"device.bogus": "2", "impurity.x_nm": "abc", "device.a_nm": "-1",
          "device.m_eff": "zz"}, [
            ({}, "device.m_eff: could not convert string to float: 'zz'"),
            ({"device.m_eff": "0.07"}, "device.a_nm must be positive and finite, got -1"),
            ({"device.a_nm": "90"}, "impurity.x_nm: could not convert string to float: 'abc'"),
            ({"impurity.x_nm": "inf"}, "impurity.x_nm must be finite, got inf"),
            ({"impurity.x_nm": "-450"}, "unknown config keys: ['device.bogus']")]),
        ({"device.bogus": "2", "impurity.charge_e": "abc", "device.a_nm": "-1"}, [
            ({}, "device.a_nm must be positive and finite, got -1"),
            ({"device.a_nm": "90"}, "impurity.charge_e given without impurity.x_nm or "
                                    "impurity.y_nm: there is no impurity to charge"),
            ({"impurity.y_nm": "300"},
             "impurity.charge_e: could not convert string to float: 'abc'"),
            ({"impurity.charge_e": "-0.5"}, "unknown config keys: ['device.bogus']")]),
    ])
    def test_faults_are_named_in_a_fixed_order(self, cfg, steps):
        for mend, message in steps:
            cfg.update(mend)
            with pytest.raises(ValueError) as err:
                config_to_objects(cfg)
            assert str(err.value) == message

    # A value out of range is named by its key: every value must be finite,
    # and a device.* value positive too.
    @pytest.mark.parametrize("key,value,message", [
        ("device.a_nm", "nan", "device.a_nm must be positive and finite, got nan"),
        ("device.eps_r", "0", "device.eps_r must be positive and finite, got 0"),
        ("control.epsilon_mev", "inf", "control.epsilon_mev must be finite, got inf"),
        ("control.xi_mev", "-nan", "control.xi_mev must be finite, got nan"),
        ("impurity.y_nm", "-inf", "impurity.y_nm must be finite, got -inf"),
    ])
    def test_a_value_out_of_range_names_its_key(self, key, value, message):
        with pytest.raises(ValueError) as err:
            config_to_objects({key: value})
        assert str(err.value) == message

    def test_the_records_name_their_fields(self):
        with pytest.raises(ValueError, match=r"^a must be positive and finite, got nan$"):
            derive_constants(DeviceParams(a=math.nan))
        with pytest.raises(ValueError, match=r"^impurity x_c must be finite, got inf$"):
            Impurity(math.inf, 0.0)

    # A record's field words a bad value as its config key does, with %.12g.
    def test_a_field_words_a_bad_value_as_its_key_does(self):
        with pytest.raises(ValueError) as err:
            derive_constants(DeviceParams(a=0.0))
        assert str(err.value) == "a must be positive and finite, got 0"
        with pytest.raises(ValueError) as err:
            config_to_objects({"device.a_nm": "0"})
        assert str(err.value) == "device.a_nm must be positive and finite, got 0"

    def test_bad_scheme_rejected(self):
        # No subcommand reads a scheme from a config, so the key is unknown.
        for value in ("diagonal", "barrier"):
            with pytest.raises(ValueError, match=r"unknown config keys: \['control.scheme'\]"):
                config_to_objects({"control.scheme": value})

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("device.a_nm 80\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            read_config(str(cfg))
