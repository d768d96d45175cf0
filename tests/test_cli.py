"""End-to-end tests for the command-line interface (run as subprocesses)."""
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dqdsim import (CalibrationError, DeviceParams, calibrate_barrier, calibrate_tilt, cli,
                    default_impurity, eval_potential, improvement_factors, matched_j_grid,
                    noise, __version__)
from dqdsim.cli import MAX_GRID_POINTS, main

CLI = [sys.executable, "-m", "dqdsim.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300)
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


def data_rows(text):
    """CSV rows with provenance/comment lines stripped."""
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def test_version():
    proc = run_cli("--version")
    assert __version__ in proc.stdout


def test_no_subcommand_is_an_error():
    run_cli(expect=2)


def test_cli_does_not_import_scipy():
    code = "import sys, dqdsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestValidate:
    def test_quick_suite_passes(self):
        proc = run_cli("validate", "--quick")
        assert "0 failed" in proc.stdout
        assert "PASS derived-constants" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_corrupted_bessel_is_caught(self):
        proc = subprocess.run(
            CLI + ["validate", "--quick", "--corrupt-bessel"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


HEADERS = {
    ("spectrum", "--eps-range", "0:0.2:0.1"):
        "epsilon_mev,xi_mev,E0_mev,E1_mev,J_mev,J_ghz",
    ("exchange-tilt", "--eps-range", "0:0.4:0.2"):
        "scheme,control_mev,J_clean_ghz,J_imp_ghz,delta_J_ghz,rel_noise",
    ("exchange-barrier", "--xi-range", "1.0:1.3:0.15"):
        "scheme,control_mev,J_clean_ghz,J_imp_ghz,delta_J_ghz,rel_noise",
    ("noise-compare", "--points", "3", "--j-max", "0.1"):
        "J_ghz,rel_tilt,rel_barrier,chi",
    ("qfactor", "--j-range", "0.2:0.4:0.1"):
        "J_ghz,Q_tilt,Q_barrier,Q_constmodel",
    ("impurity-scan", "--radii", "6,8"):
        "direction,Rc_over_a,rel_tilt,rel_barrier",
    ("near-impurity", "--points", "3", "--j-max", "0.1"):
        "J_ghz,rel_tilt,rel_barrier,chi",
    ("potential-profile", "--x-range=-100:100:100"):
        "x_nm,y_nm,V_meV",
}


@pytest.mark.parametrize("invocation,header", HEADERS.items(),
                         ids=[inv[0] for inv in HEADERS])
def test_csv_header_and_provenance(invocation, header, tmp_path):
    out = tmp_path / "out.csv"
    run_cli(*invocation, "--out", str(out))
    text = out.read_text()
    rows = data_rows(text)
    assert rows[0] == header
    assert len(rows) > 1
    assert f"# dqdsim {__version__}" in text
    assert f"# subcommand = {invocation[0]}" in text
    assert "# seed = 0" in text


def test_writes_to_stdout_without_out_flag():
    proc = run_cli("potential-profile", "--x-range", "0:100:50")
    rows = data_rows(proc.stdout)
    assert rows[0] == "x_nm,y_nm,V_meV"
    assert len(rows) == 4  # header + 3 grid points


# Impurity provenance (x_nm, y_nm, charge_e) of the matched-J commands.
IMPURITY_RESOLUTION = {
    ("near-impurity",): ("-150", "50", "-0.01"),
    ("near-impurity", "--impurity=-450,300"): ("-450", "300", "-1"),
    ("near-impurity", "--charge-e", "-0.2"): ("-150", "50", "-0.2"),
    ("noise-compare",): ("-600", "600", "-1"),
}


@pytest.mark.parametrize("invocation,expected", IMPURITY_RESOLUTION.items(),
                         ids=[" ".join(inv) for inv in IMPURITY_RESOLUTION])
def test_matched_j_commands_resolve_their_impurity(invocation, expected, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*invocation, "--points", "2", "--j-max", "0.1", "--out", str(out)]) == 0
    text = out.read_text()
    x, y, q = expected
    assert f"# subcommand = {invocation[0]}\n" in text
    assert (f"# impurity.x_nm = {x}\n# impurity.y_nm = {y}\n"
            f"# impurity.charge_e = {q}\n") in text


def test_reruns_are_byte_identical(tmp_path):
    cases = [
        ("spectrum", "--eps-range", "0:0.3:0.1"),
        ("noise-compare", "--points", "4", "--j-max", "0.2"),
        ("qfactor", "--j-range", "0.2:0.5:0.1"),
    ]
    for k, case in enumerate(cases):
        a, b = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
        run_cli(*case, "--out", str(a))
        run_cli(*case, "--out", str(b))
        assert a.read_bytes() == b.read_bytes(), case[0]


class TestConfig:
    def test_config_file_feeds_the_device(self, tmp_path):
        cfg = tmp_path / "device.cfg"
        cfg.write_text(
            "# test device\n"
            "device.a_nm = 90\n"
            "device.hbar_omega0_mev = 0.12\n"
            "control.xi_mev = 1.1\n")
        out = tmp_path / "out.csv"
        run_cli("potential-profile", "--config", str(cfg),
                "--x-range", "0:90:45", "--out", str(out))
        text = out.read_text()
        assert "# device.a_nm = 90" in text
        assert "# device.hbar_omega0_mev = 0.12" in text
        assert "# control.xi_mev = 1.1" in text

    def test_unknown_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("device.radius = 5\n")
        proc = subprocess.run(
            CLI + ["spectrum", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "unknown config keys" in proc.stderr

    def test_nonfinite_device_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "device.cfg"
        cfg.write_text("device.hbar_omega0_mev = inf\n")
        assert main(["spectrum", "--config", str(cfg), "--eps-range", "0:0.1:0.1"]) == 2
        assert "hbar_omega0 must be positive and finite" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "device.cfg"
        cfg.write_text("impurity.x_nm = -600\nimpurity.y_nm = 600\n"
                       "impurity.charge_e = -1\n")
        out = tmp_path / "out.csv"
        run_cli("exchange-tilt", "--config", str(cfg),
                "--eps-range", "0:0.2:0.2", "--charge-e", "-0.5",
                "--out", str(out))
        text = out.read_text()
        assert "# impurity.charge_e = -0.5" in text
        assert "# impurity.x_nm = -600" in text


class TestFlags:
    def test_impurity_flag_lands_in_header(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("exchange-tilt", "--eps-range", "0:0.2:0.2",
                "--impurity=-450,300", "--charge-e", "-0.25",
                "--out", str(out))
        text = out.read_text()
        assert "# impurity.x_nm = -450" in text
        assert "# impurity.y_nm = 300" in text
        assert "# impurity.charge_e = -0.25" in text

    def test_nonfinite_impurity_is_rejected(self, capsys):
        assert main(["exchange-tilt", "--eps-range", "0:0.2:0.2",
                     "--impurity=nan,300"]) == 2
        assert "impurity x_c must be finite" in capsys.readouterr().err

    def test_seed_lands_in_header(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("spectrum", "--eps-range", "0:0.1:0.1", "--seed", "7",
                "--out", str(out))
        assert "# seed = 7" in out.read_text()

    def test_mode_changes_the_numbers(self, tmp_path):
        paper, full = tmp_path / "p.csv", tmp_path / "f.csv"
        run_cli("spectrum", "--eps-range", "0:0.1:0.1", "--out", str(paper))
        run_cli("spectrum", "--eps-range", "0:0.1:0.1", "--mode", "full",
                "--out", str(full))
        assert data_rows(paper.read_text()) != data_rows(full.read_text())

    # Non-finite and oversized grids are rejected before they are built,
    # so none is ever allocated.
    @pytest.mark.parametrize("bad", [
        "1:0:0.1", "0:1:-0.1", "0:1", "a:b:c",
        "0:inf:0.5", "nan:nan:1", "0:1:inf", "-inf:0:1",
        "0:1e9:1", "-1e308:1e308:1e-300", f"0:{MAX_GRID_POINTS}:1"])
    def test_malformed_range_is_rejected(self, bad):
        proc = subprocess.run(
            CLI + ["spectrum", f"--eps-range={bad}"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert repr(bad) in proc.stderr

    # A matched-J grid needs two points and a finite, positive upper end;
    # a bad one is rejected before any row is written or any J evaluated.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["noise-compare", "near-impurity"])
    @pytest.mark.parametrize("flags", [
        ("--points", "1"), ("--points", "0"), ("--points", "-3"),
        ("--j-max", "nan"), ("--j-max", "inf"), ("--j-max", "0"), ("--j-max", "-1"),
        ("--mode", "full")])  # the default device has J0 = -19.19 GHz in full mode
    def test_bad_matched_j_grid_is_rejected(self, command, flags, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, *flags, "--out", str(out)]) == 2
        message = {"--mode": "full mode: the matched-J grid starts at J0 = "}.get(
            flags[0], f"{flags[0]} must be")
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_calibration_is_reported(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(noise, "_CAL_MAXITER", 2)
        out = tmp_path / "out.csv"
        assert main(["noise-compare", "--points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "calibrate_tilt: no root within 2 iterations" in err
        assert len(data_rows(out.read_text())) == 1 + 2


    def test_calibrations_that_run_out_fail_only_their_rows(self, monkeypatch, tmp_path, capsys):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        assert main(["noise-compare", "--points", "8", "--out", str(full)]) == 0
        monkeypatch.setattr(noise, "_CAL_MAXITER", 12)
        # Each calibration on its own: the first failure of each J, tilt first.
        expected = []
        for j in map(float, matched_j_grid(DeviceParams(), n=8)):
            try:
                calibrate_tilt(j)
                calibrate_barrier(j)
            except CalibrationError as exc:
                expected.append(f"dqdsim: error: J = {cli._fmt(j)} GHz: {exc}")
        assert 0 < len(expected) < 8
        capsys.readouterr()
        assert main(["noise-compare", "--points", "8", "--out", str(cut)]) == 2
        assert capsys.readouterr().err.splitlines() == expected
        failed = 0
        for whole, part in zip(data_rows(full.read_text()), data_rows(cut.read_text()),
                               strict=True):
            if part != whole:
                assert part == whole.split(",")[0] + ",nan,nan,nan"
                failed += 1
        assert failed == len(expected)

    # impurity-scan checks its target and its radii before any calibration.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags,message", [
        (("--J-mhz", "inf"), "--J-mhz must be positive and finite, got inf"),
        (("--J-mhz", "nan"), "--J-mhz must be positive and finite, got nan"),
        (("--J-mhz", "0"), "--J-mhz must be positive and finite, got 0"),
        (("--J-mhz", "-5"), "--J-mhz must be positive and finite, got -5"),
        (("--radii", "nan"), "--radii must be positive and finite, got nan"),
        (("--radii", "6,inf"), "--radii must be positive and finite, got inf"),
        (("--radii", "0"), "--radii must be positive and finite, got 0"),
        (("--radii=-2,6",), "--radii must be positive and finite, got -2"),
        (("--radii", "6,abc"), "--radii expects comma-separated numbers, got '6,abc'"),
    ])
    def test_bad_impurity_scan_input_is_rejected(self, flags, message, monkeypatch,
                                                 tmp_path, capsys):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before the flags were checked")
        monkeypatch.setattr(cli, "calibrate_many", no_calibration)
        out = tmp_path / "out.csv"
        assert main(["impurity-scan", *flags, "--out", str(out)]) == 2
        assert f"dqdsim: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    # Flags a subcommand does not read are not registered: argparse rejects
    # them before anything runs, so no output file appears.
    @pytest.mark.parametrize("argv", [
        ("validate", "--quick", "--config", "device.cfg"),
        ("validate", "--quick", "--out", "out.csv"),
        ("validate", "--quick", "--mode", "full"),
        ("validate", "--quick", "--impurity=-450,300"),
        ("validate", "--quick", "--charge-e", "-0.5"),
        ("impurity-scan", "--radii", "6", "--impurity=-450,300", "--out", "out.csv"),
        ("potential-profile", "--impurity=-450,300", "--out", "out.csv"),
        ("potential-profile", "--charge-e", "-0.5", "--out", "out.csv"),
    ], ids=["validate --config", "validate --out", "validate --mode", "validate --impurity",
            "validate --charge-e", "impurity-scan --impurity", "potential-profile --impurity",
            "potential-profile --charge-e"])
    def test_unread_flags_are_rejected(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestContent:
    def test_potential_profile_matches_library(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("potential-profile", "--x-range=-200:200:100",
                "--y-nm", "25", "--out", str(out))
        rows = data_rows(out.read_text())[1:]
        params = DeviceParams()
        for row in rows:
            x, y, v = map(float, row.split(","))
            assert y == 25.0
            assert v == pytest.approx(
                float(eval_potential(x, y, params)), rel=1e-10)

    def test_exchange_barrier_appends_zoom_block(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("exchange-barrier", "--out", str(out))
        text = out.read_text()
        assert "# zoom xi_range = 0.5:0.6:0.002" in text
        main_rows = data_rows(text)
        # zoom block re-lists finer barrier values after the marker
        zoom_part = text.split("# zoom xi_range = 0.5:0.6:0.002\n")[1]
        assert len([ln for ln in zoom_part.splitlines()
                    if ln and not ln.startswith("#")]) == 51
        assert main_rows[0].startswith("scheme,")

    def test_noise_compare_matches_library_at_a_non_default_barrier(self, tmp_path):
        # Tilt control detunes at the device's own barrier, in the CLI and
        # in the library alike.
        cfg, out = tmp_path / "device.cfg", tmp_path / "out.csv"
        cfg.write_text("control.xi_mev = 1.1\n")
        assert main(["noise-compare", "--config", str(cfg), "--points", "3",
                     "--j-max", "0.5", "--out", str(out)]) == 0
        base = DeviceParams(xi=1.1)
        grid = [float(j) for j in matched_j_grid(base, n=3, j_max_ghz=0.5)]
        expected = [",".join(f"{v:.12g}" for v in (r.J_ghz, r.rel_tilt, r.rel_barrier, r.chi))
                    for r in improvement_factors(grid, default_impurity(base), base)]
        assert data_rows(out.read_text())[1:] == expected

    def test_impurity_scan_header_reports_operating_point(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("impurity-scan", "--radii", "6", "--J-mhz", "242",
                "--out", str(out))
        text = out.read_text()
        assert "eps_star" in text and "xi_star" in text
        rows = data_rows(text)
        assert len(rows) == 1 + 3  # header + one radius in three directions


@pytest.mark.skipif(shutil.which("dqdsim") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["dqdsim", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
