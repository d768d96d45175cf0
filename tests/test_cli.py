"""End-to-end tests for the command-line interface (run as subprocesses)."""
import contextlib
import csv
import dataclasses
import io
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim import (CalibrationError, DeviceParams, Impurity, QualityModel, calibrate_barrier,
                    calibrate_tilt, cli, crosscheck, default_impurity, delta_J, eval_potential,
                    hamiltonian, improvement_factors, matched_j_grid, noise, quality_factor,
                    __version__)
from dqdsim.cli import MAX_GRID_POINTS, main
from dqdsim.model import _SETTINGS, config_to_objects, read_config

CLI = [sys.executable, "-m", "dqdsim.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300)
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


def j0_mhz() -> str:
    """The default device's J0 as a --J-mhz value that reads back as J0 to
    the bit: computed here, so it is the J0 of whichever BLAS kernel runs."""
    j0 = float(matched_j_grid(DeviceParams(), n=2)[0])
    arg = repr(j0 * 1e3)
    assert float(arg) / 1e3 == j0
    return arg


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


def test_cli_does_not_import_the_oracle():
    # Only validate runs the quadrature oracle and the cross-checks of
    # dqdsim.crosscheck, only envelope_numeric needs numpy.polynomial, and
    # _emit writes CSV without the csv module, so a cold CLI start imports
    # none of them: of dqdsim, just the modules that the other commands run.
    code = ("import sys, dqdsim.cli; print(sorted(m for m in sys.modules if m in ('csv', '_csv') "
            "or m.startswith(('numpy.polynomial', 'dqdsim'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "'csv'" not in loaded and "'dqdsim.crosscheck'" not in loaded
    assert loaded == str([
        "dqdsim", "dqdsim.cli", "dqdsim.hamiltonian", "dqdsim.integrals", "dqdsim.model",
        "dqdsim.noise", "dqdsim.orbitals", "dqdsim.potential"])


class TestParser:
    """main parses a valid call with the invoked subcommand's own parser,
    built once per process and reused, and runs the command of its
    _SUBCOMMANDS entry; -h, --version, a missing or unknown command and
    arguments left over go to the top-level parser, which adds no
    subcommand's flags.  tests/test_cli_text.py pins their text."""

    ARGV = {
        "spectrum": ["--eps-range", "0:0.1:0.1", "--mode", "full", "--impurity=-450,300"],
        "exchange-tilt": ["--charge-e", "-0.5", "--seed", "3"],
        "exchange-barrier": ["--xi-range", "0.9:1.1:0.1", "--out", "x.csv"],
        "noise-compare": ["--points", "3", "--j-max", "0.1"],
        "qfactor": ["--j-range", "0.2:0.4:0.1", "--config", "d.cfg"],
        "impurity-scan": ["--radii", "6,8", "--J-mhz", "100", "--charge-e", "-2"],
        "near-impurity": ["--points", "2"],
        "potential-profile": ["--x-range=-100:100:100", "--y-nm", "25"],
        "validate": ["--quick", "--corrupt-bessel"],
    }

    @pytest.fixture
    def built(self, monkeypatch):
        """The subcommands whose flags are added, in order, from a cold cache;
        each command only returns the parsed arguments' subcommand."""
        built = []
        for n, (help_text, add_flags, _) in list(cli._SUBCOMMANDS.items()):
            monkeypatch.setitem(cli._SUBCOMMANDS, n, (
                help_text, lambda p, n=n, add=add_flags: built.append(n) or add(p),
                lambda args: args.subcommand))
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()  # drop the parsers built from the wrappers

    def test_every_subcommand_is_covered(self):
        assert list(self.ARGV) == list(cli._SUBCOMMANDS)

    # A subcommand's -h and its leftover arguments add its flags alone, once.
    @pytest.mark.parametrize("name", list(ARGV))
    def test_help_and_leftovers_add_only_their_own_flags(self, name, built, capsys):
        for argv, code, text in (([name, "-h"], 0, f"usage: dqdsim {name} "),
                                 ([name, "--bogus"], 2, "unrecognized arguments: --bogus")):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            got = capsys.readouterr()
            assert exit_.value.code == code and text in got.out + got.err
        assert built == [name]

    # A valid call parses with its subcommand's cached parser, built on the
    # first call alone, and builds no top-level parser.
    @pytest.mark.parametrize("name", list(ARGV))
    def test_a_valid_call_builds_only_its_own_parser_once(self, name, built):
        for _ in range(3):
            assert main([name, *self.ARGV[name]]) == name
        assert built == [name]
        assert cli._parser.cache_info().currsize == 1

    # Across every kind of call in one process, each subcommand's flags are
    # added at most once, and the top-level parser adds none.
    def test_each_subcommand_adds_its_flags_at_most_once_per_process(self, built, capsys):
        calls = [["-h"], ["--version"], [], ["bogus"]] + [
            argv for name in self.ARGV
            for argv in ([name, "-h"], [name, "--bogus"], [name, *self.ARGV[name]])]
        for argv in calls + calls:
            with contextlib.suppress(SystemExit):
                main(argv)
            assert built == list(self.ARGV)[:len(built)]
        capsys.readouterr()
        assert built == list(self.ARGV)
        assert cli._parser.cache_info().currsize == 1 + len(self.ARGV)

    # Errors of the subcommand's own parser name it; arguments left over
    # are reported by the top-level parser, under its usage.
    @pytest.mark.parametrize("argv,prog,text", [
        (["noise-compare", "--points", "abc"], "dqdsim noise-compare",
         "argument --points: invalid int value: 'abc'"),
        (["spectrum", "--eps-range"], "dqdsim spectrum",
         "argument --eps-range: expected one argument"),
        (["spectrum", "--version"], "dqdsim", "unrecognized arguments: --version"),
        (["exchange-tilt", "--bogus", "--bad=1"], "dqdsim",
         "unrecognized arguments: --bogus --bad=1"),
    ])
    def test_an_error_names_its_parser(self, argv, prog, text, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        got = capsys.readouterr()
        assert exit_.value.code == 2 and got.out == ""
        assert got.err.startswith(f"usage: {prog} [-h]")
        assert got.err.endswith(f"\n{prog}: error: {text}\n")

    # An argument before the command is reported with all that follows it,
    # and a command's -h there prints no flagless help page.
    @pytest.mark.parametrize("argv,text", [
        (["-x", "spectrum"], "unrecognized arguments: -x\n"),
        (["-x", "spectrum", "--eps-range", "0:1:0.5"],
         "unrecognized arguments: -x --eps-range 0:1:0.5\n"),
        (["-x", "spectrum", "-h"], "unrecognized arguments: -x -h\n"),
        (["--out", "x.csv", "spectrum"], "argument subcommand: invalid choice: 'x.csv'"),
    ])
    def test_an_argument_before_the_command_is_an_error(self, argv, text, built, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        got = capsys.readouterr()
        assert exit_.value.code == 2 and got.out == ""
        assert f"\ndqdsim: error: {text}" in got.err
        assert built == []

    @pytest.mark.parametrize("argv,code,stream,text", [
        (["-h"], 0, "out", "{spectrum,exchange-tilt,exchange-barrier,noise-compare,qfactor,"
                           "impurity-scan,near-impurity,potential-profile,validate}"),
        (["--version"], 0, "out", f"dqdsim {__version__}"),
        (["bogus"], 2, "err", "argument subcommand: invalid choice: 'bogus'"),
        ([], 2, "err", "the following arguments are required: subcommand"),
    ])
    def test_top_level_calls_add_no_subcommands_flags(self, argv, code, stream, text,
                                                      built, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        got = capsys.readouterr()
        assert exit_.value.code == code and text in getattr(got, stream)
        assert built == []
        if argv == ["-h"]:
            for name, (help_text, _, _) in cli._SUBCOMMANDS.items():
                assert f"    {name}" in got.out and help_text in got.out

    # A reused parser keeps nothing of an earlier call: the second call,
    # without the first one's flags, writes what a fresh process writes.
    def test_a_reused_parser_forgets_the_last_call(self, tmp_path):
        cfg = tmp_path / "device.cfg"
        cfg.write_text("device.a_nm = 90\ncontrol.xi_mev = 1.1\n")
        first = ["exchange-tilt", "--eps-range", "0:0.2:0.1", "--impurity=-450,300",
                 "--charge-e", "-0.5", "--mode", "full", "--config", str(cfg)]
        second = ["exchange-tilt", "--eps-range", "0:0.2:0.1"]
        for k, argv in enumerate((first, second, first)):
            here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
            assert main([*argv, "--out", str(here)]) == 0
            run_cli(*argv, "--out", str(fresh))
            assert here.read_bytes() == fresh.read_bytes()

    # A command is looked up in its table entry when it runs, after its
    # parser was built: validate -h fills the cache before the entry changes.
    def test_a_replaced_command_runs_after_its_parser_is_reused(self, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "-h"])
        capsys.readouterr()
        help_text, add_flags, _ = cli._SUBCOMMANDS["validate"]
        monkeypatch.setitem(cli._SUBCOMMANDS, "validate",
                            (help_text, add_flags, lambda args: 7 if args.quick else 8))
        assert main(["validate", "--quick"]) == 7

    def test_an_oracle_refusal_is_reported(self, monkeypatch, capsys):
        from dqdsim.quadrature import OracleRefusal

        def refusing(args):
            raise OracleRefusal("error estimate 1e-3 exceeds rtol 1e-7")
        help_text, add_flags, _ = cli._SUBCOMMANDS["validate"]
        monkeypatch.setitem(cli._SUBCOMMANDS, "validate", (help_text, add_flags, refusing))
        assert main(["validate", "--quick"]) == 2
        assert capsys.readouterr().err == (
            "dqdsim: error: error estimate 1e-3 exceeds rtol 1e-7\n")


class TestValidate:
    def test_quick_suite_passes(self):
        proc = run_cli("validate", "--quick")
        assert "0 failed" in proc.stdout
        assert "PASS derived-constants" in proc.stdout
        assert "FAIL" not in proc.stdout

    # The library names its parameter, before any check is run.
    def test_a_negative_seed_is_named(self, capsys):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            crosscheck.validate(-1, quick=True)
        assert capsys.readouterr() == ("", "")

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
    # The potential does not depend on the 4x4 assembly.
    assert ("# mode = paper" in text) == (invocation[0] != "potential-profile")


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


# A small grid of each CSV subcommand.
SMALL_GRIDS = {
    "spectrum": ("--eps-range", "0:0.1:0.1"),
    "exchange-tilt": ("--eps-range", "0:0.1:0.1"),
    "exchange-barrier": ("--xi-range", "1.0:1.1:0.1"),
    "noise-compare": ("--points", "2", "--j-max", "0.5"),
    "qfactor": ("--j-range", "0.2:0.3:0.1"),
    "impurity-scan": ("--radii", "6"),
    "near-impurity": ("--points", "2", "--j-max", "0.5"),
    "potential-profile": ("--x-range=-100:100:100",),
}

# The impurity each subcommand that takes one places when given none.
DEFAULT_IMPURITY = {
    "spectrum": None,
    "exchange-tilt": Impurity(-600, 600),
    "exchange-barrier": Impurity(-600, 600),
    "noise-compare": Impurity(-600, 600),
    "qfactor": Impurity(-600, 600),
    "near-impurity": Impurity(-150, 50, -0.01),
}


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
        assert capsys.readouterr().err == (
            "dqdsim: error: device.hbar_omega0_mev must be positive and finite, got inf\n")

    # On tightly confined dots J is exactly 0 in float, so every point fails
    # alone, named: a NaN row, a stderr line, and exit 2 (not 1, which is
    # validate's code for a failing check).
    def test_a_zero_clean_j_fails_only_its_rows(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("device.hbar_omega0_mev = 5.0\n")
        out = tmp_path / "out.csv"
        assert main(["exchange-tilt", "--config", str(cfg), "--eps-range", "0:0.1:0.05",
                     "--out", str(out)]) == 2
        eps = ("0", "0.05", "0.1")
        assert capsys.readouterr().err.splitlines() == [
            f"dqdsim: error at tilt control {e} meV: ValueError: J_clean = 0 at tilt control "
            f"{e} meV, so rel_noise = delta_J / J_clean is undefined" for e in eps]
        assert data_rows(out.read_text())[1:] == [f"tilt,{e},nan,nan,nan,nan" for e in eps]

    # The subcommands that place no impurity reject one from a config file
    # before any solve, and write nothing.  Every model, that of a closed-form
    # root included, is built on hamiltonian._device.
    @pytest.mark.parametrize("argv", [("potential-profile",), ("impurity-scan", "--radii", "6")])
    def test_config_impurity_is_rejected_where_unread(self, argv, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "imp.cfg"
        cfg.write_text("impurity.x_nm = -450\nimpurity.y_nm = 300\nimpurity.charge_e = -0.5\n")

        def no_work(*args, **kwargs):
            raise AssertionError("computed before the config was checked")
        monkeypatch.setattr(hamiltonian, "_device", no_work)
        monkeypatch.setattr(cli, "eval_potential", no_work)
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"dqdsim: error: {cfg}: {argv[0]} takes no impurity from a config file, "
            "but it sets impurity.charge_e, impurity.x_nm, impurity.y_nm\n")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["spectrum", "exchange-tilt"])
    def test_config_charge_without_a_position_is_rejected(self, subcommand, monkeypatch,
                                                          tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("impurity.charge_e = -0.5\n")

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was checked")
        monkeypatch.setattr(cli, "solve_stack", no_solve)
        monkeypatch.setattr(noise, "solve_stack", no_solve)
        out = tmp_path / "out.csv"
        assert main([subcommand, "--eps-range", "0:0.1:0.1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "dqdsim: error: impurity.charge_e given without impurity.x_nm or "
            "impurity.y_nm: there is no impurity to charge\n")
        assert not out.exists()

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

    # A value that is not a float is named by its key.
    @pytest.mark.parametrize("text,message", [
        ("device.a_nm = 0x10\n", "device.a_nm: could not convert string to float: '0x10'"),
        ("device.a_nm =\n", "device.a_nm: could not convert string to float: ''"),
        ("impurity.x_nm = -450\nimpurity.y_nm = north\n",
         "impurity.y_nm: could not convert string to float: 'north'"),
    ], ids=["hex", "empty", "impurity"])
    def test_a_value_that_is_not_a_float_names_its_key(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["spectrum", "--config", str(cfg), "--eps-range", "0:0.1:0.1"]) == 2
        assert capsys.readouterr() == ("", f"dqdsim: error: {message}\n")

    def test_a_key_set_twice_is_named_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("# device\ndevice.a_nm = 90\ncontrol.xi_mev = 1.1\n"
                       "device.a_nm = 80  # again\n")
        out = tmp_path / "out.csv"
        assert main(["potential-profile", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"dqdsim: error: {cfg}:4: device.a_nm is set twice\n")
        assert not out.exists()

    # The faults of one config are named in the documented order: a device
    # value (one that is not a float included), an impurity value, a charge
    # without a position (whose value is not read), unknown keys.
    @pytest.mark.parametrize("text,message", [
        ("device.bogus = 1\nimpurity.charge_e = -1\nimpurity.x_nm = west\ndevice.a_nm = -1\n",
         "device.a_nm must be positive and finite, got -1"),
        ("device.bogus = 1\nimpurity.charge_e = -1\nimpurity.x_nm = west\ndevice.m_eff = x\n",
         "device.m_eff: could not convert string to float: 'x'"),
        ("device.bogus = 1\nimpurity.charge_e = -1\nimpurity.x_nm = west\n",
         "impurity.x_nm: could not convert string to float: 'west'"),
        ("device.bogus = 1\nimpurity.y_nm = 1\nimpurity.charge_e = q\n",
         "impurity.charge_e: could not convert string to float: 'q'"),
        ("device.bogus = 1\nimpurity.charge_e = q\n",
         "impurity.charge_e given without impurity.x_nm or impurity.y_nm: "
         "there is no impurity to charge"),
        ("device.bogus = 1\n", "unknown config keys: ['device.bogus']"),
    ], ids=["device-value", "device-float", "impurity-float", "charge-float", "charge",
            "unknown"])
    def test_config_faults_are_named_in_order(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "faults.cfg"
        cfg.write_text(text)
        assert main(["exchange-tilt", "--config", str(cfg), "--eps-range", "0:0.1:0.1"]) == 2
        assert capsys.readouterr() == ("", f"dqdsim: error: {message}\n")

    def test_a_bad_device_value_is_named_before_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("device.a_nm = -1\ndevice.bogus = 2\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "dqdsim: error: device.a_nm must be positive and "
                                           "finite, got -1\n")

    # A CSV's device and impurity header lines, with the '# ' removed, are a
    # --config of its run: they give back the run's device and impurity to
    # the 12 digits written, and a run from them alone writes the same bytes.
    # The impurity comes from a config, from the flags, or is the default.
    @pytest.mark.parametrize("case", ["config", "flags", "default"])
    @pytest.mark.parametrize("sub", list(SMALL_GRIDS))
    def test_the_setting_lines_are_a_config_of_the_run(self, sub, case, tmp_path, capsys):
        takes_impurity = sub in DEFAULT_IMPURITY
        device, imp, placing, argv = DeviceParams(), None, [], [sub, *SMALL_GRIDS[sub]]
        if case == "config":
            device = DeviceParams(eps_r=12.5, epsilon=0.05, xi=1.2)
            text = "device.eps_r = 12.5\ncontrol.epsilon_mev = 0.05\ncontrol.xi_mev = 1.2\n"
            if takes_impurity:
                imp = Impurity(-450, 300, -0.5)
                text += "impurity.x_nm = -450\nimpurity.y_nm = 300\nimpurity.charge_e = -0.5\n"
            given = tmp_path / "given.cfg"
            given.write_text(text)
            placing = ["--config", str(given)]
        elif case == "flags" and takes_impurity:
            imp, placing = Impurity(-300, 200, -0.3), ["--impurity=-300,200", "--charge-e", "-0.3"]
        elif case == "flags" and sub == "impurity-scan":
            argv += ["--charge-e", "-0.3"]  # the charge of every scanned impurity: no setting
        elif case == "default":
            imp = DEFAULT_IMPURITY.get(sub)
        assert main(argv + placing) == 0
        first = capsys.readouterr()
        lines = [line[2:] for line in first.out.splitlines()
                 if line.startswith("# ") and line[2:].partition(" = ")[0] in _SETTINGS]
        assert [line.partition(" = ")[0] for line in lines] == list(_SETTINGS)[
            :6 if imp is None else 9]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{line}\n" for line in lines))

        def digits(record):
            return record and [f"{v:.12g}" for v in dataclasses.astuple(record)]
        assert list(map(digits, config_to_objects(read_config(str(cfg))))) == [
            digits(device), digits(imp)]
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr() == first


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
        assert capsys.readouterr().err == "dqdsim: error: --impurity must be finite, got nan\n"

    # A non-finite --charge-e or --impurity coordinate, and a negative
    # validate --seed, are named by their flag before any work is done.
    CHARGED = ["spectrum --impurity=-450,300", "exchange-tilt", "exchange-barrier",
               "noise-compare", "qfactor", "impurity-scan", "near-impurity"]
    PLACED = ["spectrum", "exchange-tilt", "exchange-barrier", "noise-compare", "qfactor",
              "near-impurity"]

    BAD_FLAGS = [
        *(([*command.split(), f"--charge-e={q}"], f"--charge-e must be finite, got {q}")
          for command in CHARGED for q in ("inf", "-inf", "nan")),
        *(([name, f"--impurity={xy}"], f"--impurity must be finite, got {bad}")
          for name in PLACED for xy, bad in (("inf,0", "inf"), ("0,-inf", "-inf"))),
        (["validate", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["validate", "--quick", "--seed=-7"], "--seed must be non-negative, got -7"),
    ]

    @pytest.mark.parametrize("argv,message", BAD_FLAGS,
                             ids=[" ".join(argv) for argv, _ in BAD_FLAGS])
    def test_a_bad_flag_value_is_named(self, argv, message, monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the flag was checked")
        monkeypatch.setattr(hamiltonian, "_device", no_work)
        monkeypatch.setattr(crosscheck, "validate", no_work)
        out = tmp_path / "out.csv"
        assert main(argv if argv[0] == "validate" else [*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"dqdsim: error: {message}\n")
        assert not out.exists()

    # A CSV subcommand only labels its header with --seed, so any is taken.
    def test_a_csv_subcommand_takes_any_seed(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["potential-profile", "--x-range=0:100:100", "--seed", "-3",
                     "--out", str(out)]) == 0
        assert "\n# seed = -3\n" in out.read_text()

    def test_charge_without_an_impurity_is_rejected(self, monkeypatch, tmp_path, capsys):
        charged = tmp_path / "charged.csv"
        assert main(["spectrum", "--eps-range", "0:0.1:0.1", "--impurity=-450,300",
                     "--charge-e", "-0.5", "--out", str(charged)]) == 0
        assert "# impurity.charge_e = -0.5" in charged.read_text()

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the flags were checked")
        monkeypatch.setattr(cli, "solve_stack", no_solve)
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--eps-range", "0:0.1:0.1", "--charge-e", "-0.5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--charge-e" in err and "no impurity to charge" in err
        assert not out.exists()

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
    # so none is ever allocated; an empty one is malformed, not the default.
    @pytest.mark.parametrize("bad", [
        "", "1:0:0.1", "0:1:-0.1", "0:1", "a:b:c",
        "0:inf:0.5", "nan:nan:1", "0:1:inf", "-inf:0:1",
        "0:1e9:1", "-1e308:1e308:1e-300", f"0:{MAX_GRID_POINTS}:1"])
    def test_malformed_range_is_rejected(self, bad):
        proc = subprocess.run(
            CLI + ["spectrum", f"--eps-range={bad}"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert repr(bad) in proc.stderr

    # Every grid flag given empty is malformed too: it exits 2 with the
    # message of its spec, before any device is built, and writes nothing,
    # where an absent flag runs the default grid.
    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--xi-range="], "expected 'lo:hi:step', got ''"),
        (["exchange-barrier", "--xi-range="], "expected 'lo:hi:step', got ''"),
        (["potential-profile", "--x-range="], "expected 'lo:hi:step', got ''"),
        (["impurity-scan", "--radii="], "--radii expects comma-separated numbers, got ''"),
    ], ids=["spectrum", "exchange-barrier", "potential-profile", "impurity-scan"])
    def test_an_empty_grid_flag_is_malformed(self, argv, message, monkeypatch, tmp_path,
                                              capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the grid was checked")
        monkeypatch.setattr(hamiltonian, "_device", no_work)
        monkeypatch.setattr(cli, "eval_potential", no_work)
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"dqdsim: error: {message}\n")
        assert not out.exists()

    # An empty --impurity= is a malformed position, not the default impurity,
    # and an empty --config= a path that cannot be opened, not no config.
    @pytest.mark.parametrize("argv", [
        *([name, "--impurity="] for name in ("spectrum", "exchange-tilt", "exchange-barrier",
                                             "noise-compare", "qfactor", "near-impurity")),
        *([name, "--config="] for name in ("spectrum", "exchange-tilt", "exchange-barrier",
                                           "noise-compare", "qfactor", "impurity-scan",
                                           "near-impurity", "potential-profile")),
    ], ids=" ".join)
    def test_an_empty_impurity_or_config_flag_is_an_error(self, argv, monkeypatch, tmp_path,
                                                          capsys):
        message = {"--impurity=": "expected 'X_nm,Y_nm', got ''",
                   "--config=": "[Errno 2] No such file or directory: ''"}[argv[1]]

        def no_work(*args, **kwargs):
            raise AssertionError("computed before the flag was checked")
        monkeypatch.setattr(hamiltonian, "_device", no_work)
        monkeypatch.setattr(cli, "eval_potential", no_work)
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"dqdsim: error: {message}\n")
        assert not out.exists()

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

    # The flags are checked, side by side, before any device is built, with
    # the words of the flags rather than of matched_j_grid's parameters.
    @pytest.mark.parametrize("command", ["noise-compare", "near-impurity"])
    @pytest.mark.parametrize("flags,message", [
        (("--points", "1"), "--points must be at least 2, got 1"),
        (("--points", "-3"), "--points must be at least 2, got -3"),
        (("--points", str(MAX_GRID_POINTS + 1)),
         f"--points must be at most {MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}"),
        (("--j-max", "0"), "--j-max must be positive and finite, got 0"),
        (("--j-max", "-1"), "--j-max must be positive and finite, got -1"),
        (("--j-max", "nan"), "--j-max must be positive and finite, got nan"),
        (("--j-max", "inf"), "--j-max must be positive and finite, got inf"),
    ])
    def test_a_bad_matched_j_flag_is_named_before_any_device(self, command, flags, message,
                                                             monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a device or a grid was built")
        monkeypatch.setattr(hamiltonian, "_device", no_work)
        monkeypatch.setattr(cli, "matched_j_grid", no_work)
        out = tmp_path / "out.csv"
        assert main([command, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"dqdsim: error: {message}\n"
        assert not out.exists()

    # A grid of more points than MAX_GRID_POINTS is rejected by its flag
    # before any grid is built or any J solved.
    @pytest.mark.parametrize("command", ["noise-compare", "near-impurity"])
    def test_too_many_matched_j_points_are_rejected_unsolved(self, command, monkeypatch,
                                                            tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a grid was built or a J solved")
        monkeypatch.setattr(cli, "matched_j_grid", no_work)
        monkeypatch.setattr(noise, "solve_stack", no_work)
        out = tmp_path / "out.csv"
        points = 1000 * MAX_GRID_POINTS
        assert main([command, "--points", str(points), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"dqdsim: error: --points must be at most {MAX_GRID_POINTS}, got {points}\n")
        assert not out.exists()

    def test_unconverged_calibration_is_reported(self, monkeypatch, tmp_path, capsys):
        # Every tilt root lands off its target; J0, at the bracket end, has none.
        real = noise._roots
        monkeypatch.setattr(noise, "_roots", lambda tilt, *args: np.where(
            tilt, real(tilt, *args) + 0.01, real(tilt, *args)))
        out = tmp_path / "out.csv"
        assert main(["noise-compare", "--points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "J = 1 GHz: calibrate_tilt: root-finder landed at J = " in err
        assert len(data_rows(out.read_text())) == 1 + 2

    def test_calibrations_that_run_out_fail_only_their_rows(self, monkeypatch, tmp_path, capsys):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        assert main(["noise-compare", "--points", "8", "--out", str(full)]) == 0
        grid = [float(j) for j in matched_j_grid(DeviceParams(), n=8)]
        wrong = {("tilt", grid[2]), ("barrier", grid[2]), ("barrier", grid[5])}
        real = noise._roots
        monkeypatch.setattr(noise, "_roots", lambda tilt, targets, *args: np.where(
            [req in wrong for req in zip(np.where(tilt, "tilt", "barrier").tolist(),
                                         targets.tolist())],
            real(tilt, targets, *args) + 0.01, real(tilt, targets, *args)))
        # Each calibration on its own: the first failure of each J, tilt first.
        expected = []
        for j in grid:
            try:
                calibrate_tilt(j)
                calibrate_barrier(j)
            except CalibrationError as exc:
                expected.append(f"dqdsim: error: J = {cli._fmt(j)} GHz: {exc}")
        assert len(expected) == 2
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

    # A control value that fails writes a NaN row and one stderr line; every
    # other row is that of a run without the failure.
    @pytest.mark.parametrize("command,flag,spec,scheme", [
        ("exchange-tilt", "--eps-range", "0:0.2:0.1", "tilt"),
        ("exchange-barrier", "--xi-range", "0.9:1.1:0.1", "barrier"),
    ])
    def test_a_failing_control_fails_only_its_row(self, command, flag, spec, scheme,
                                                  monkeypatch, tmp_path, capsys):
        whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
        assert main([command, flag, spec, "--out", str(whole)]) == 0
        bad = cli._parse_range(spec)[1]
        real = noise.control_values

        def failing(scheme_, params, value):
            if value == bad:
                raise ValueError("no device at this control")
            return real(scheme_, params, value)
        monkeypatch.setattr(noise, "control_values", failing)
        capsys.readouterr()
        assert main([command, flag, spec, "--out", str(cut)]) == 2
        assert capsys.readouterr().err == (
            f"dqdsim: error at {scheme} control {cli._fmt(bad)} meV: "
            "ValueError: no device at this control\n")
        rows = data_rows(whole.read_text())
        assert rows[2].startswith(f"{scheme},{cli._fmt(bad)},")
        rows[2] = f"{scheme},{cli._fmt(bad)},nan,nan,nan,nan"
        assert data_rows(cut.read_text()) == rows

    # The barrier's default main (81 values) and zoom (51) grids share 11
    # values.  Each distinct value is solved once, clean and with the
    # impurity, and a shared value writes the same row, bit for bit, in both.
    def test_a_shared_barrier_value_is_solved_once_and_written_alike(self, eigen_stacks,
                                                                     tmp_path):
        stacks = eigen_stacks()
        out = tmp_path / "out.csv"
        assert main(["exchange-barrier", "--out", str(out)]) == 0
        main_grid, zoom = cli._parse_range("0.5:1.3:0.01"), cli._parse_range("0.5:0.6:0.002")
        shared = sorted(set(main_grid) & set(zoom))
        assert len(main_grid) == 81 and len(zoom) == 51 and len(shared) == 11
        (stack,) = stacks
        assert len(stack) == 2 * len(set(main_grid + zoom)) == 242
        assert len(np.unique(stack.reshape(len(stack), -1), axis=0)) == len(stack)
        rows = data_rows(out.read_text())[1:]
        assert len(rows) == 132
        recs = noise.sweep("barrier", main_grid + zoom, DeviceParams(),
                           default_impurity(DeviceParams()))
        for value in shared:
            i, j = main_grid.index(value), 81 + zoom.index(value)
            assert rows[i] == rows[j]
            assert repr(recs[i]) == repr(recs[j])

    # Failing points write NaN cells, and their errors go to stderr in row
    # order, wherever they fail: at the first row and the last (the control
    # raises), and at a middle row (its setting is not finite, so its solve
    # fails).  The zoom comment stays right after the main grid's last row.
    def test_failing_points_anywhere_write_nan_rows_in_row_order(self, monkeypatch, tmp_path,
                                                                 capsys):
        whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
        assert main(["exchange-barrier", "--out", str(whole)]) == 0
        values = cli._parse_range("0.5:1.3:0.01") + cli._parse_range("0.5:0.6:0.002")
        first, middle, last = values[0], values[100], values[-1]
        assert len({first, middle, last}) == 3
        real = noise.control_values

        def failing(scheme, params, value):
            if value in (first, last):
                raise ValueError(f"no device at {value}")
            return (0.0, math.inf) if value == middle else real(scheme, params, value)
        monkeypatch.setattr(noise, "control_values", failing)
        capsys.readouterr()
        assert main(["exchange-barrier", "--out", str(cut)]) == 2
        failed = [i for i, v in enumerate(values) if v in (first, middle, last)]
        assert capsys.readouterr().err.splitlines() == [
            f"dqdsim: error at barrier control {cli._fmt(values[i])} meV: ValueError: " + (
                "xi must be finite, got inf" if values[i] == middle
                else f"no device at {values[i]}") for i in failed]
        lines = whole.read_text().splitlines()
        start = lines.index(",".join(noise.NoiseRecord._fields)) + 1
        assert lines[start + 81] == "# zoom xi_range = 0.5:0.6:0.002"
        for i in failed:
            lines[start + i + (i >= 81)] = f"barrier,{cli._fmt(values[i])},nan,nan,nan,nan"
        assert cut.read_text().splitlines() == lines

    # A sweep whose every point fails writes a NaN row and a stderr line for
    # each, in row order, whether its controls raise or its solves fail.
    @pytest.mark.parametrize("how", ["control", "solve"])
    def test_a_sweep_where_every_point_fails(self, how, monkeypatch, tmp_path, capsys):
        def failing(scheme, params, value):
            if how == "control":
                raise ValueError(f"no device at {value}")
            return (math.nan, params.xi)
        monkeypatch.setattr(noise, "control_values", failing)
        out = tmp_path / "out.csv"
        assert main(["exchange-tilt", "--eps-range", "0:0.2:0.1", "--out", str(out)]) == 2
        eps = ("0", "0.1", "0.2")
        assert capsys.readouterr().err.splitlines() == [
            f"dqdsim: error at tilt control {e} meV: ValueError: " + (
                f"no device at {float(e)}" if how == "control" else "epsilon must be finite, "
                "got nan") for e in eps]
        assert data_rows(out.read_text())[1:] == [f"tilt,{e},nan,nan,nan,nan" for e in eps]

    # A default sweep, the barrier's zoom block included, hands the eigensolver
    # one stack: each distinct control value clean and with the impurity (the
    # barrier's main and zoom grids share 11 values).  Every row is the one a
    # lone delta_J gives.
    STACKED = {"exchange-tilt": 2 * 101, "exchange-barrier": 2 * 121}

    @pytest.mark.parametrize("command,values", [("exchange-tilt", 101),
                                                ("exchange-barrier", 81 + 51)])
    def test_a_default_sweep_is_one_stacked_solve(self, command, values, monkeypatch,
                                                  eigen_stacks):
        stacks, emitted = eigen_stacks(), []
        monkeypatch.setattr(cli, "_emit", lambda path, header, fields, blocks: emitted.extend(
            row for block in blocks if not isinstance(block, str) for row in zip(*block)))
        assert main([command]) == 0
        assert len(emitted) == values
        assert [len(H) for H in stacks] == [self.STACKED[command]]
        scheme, imp = command.split("-")[1], default_impurity(DeviceParams())
        rows = [(cells[0], *map(float, cells[1:])) for cells in emitted]
        assert [repr(row) for row in rows] == [
            repr(tuple(delta_J(scheme, row[1], DeviceParams(), imp))) for row in rows]

    # A matched-J command hands the eigensolver a few stacks however many J
    # it calibrates: noise-compare J0, then the 3 bracket ends and its 50
    # roots, each clean and with the impurity; qfactor only the latter (3
    # ends, 33 roots); and impurity-scan the ends and both roots clean with
    # the roots at each of its 33 impurities.  At J0 both of its
    # calibrations settle on the same end, which a second stack holds with
    # each impurity.
    MATRICES = {"noise-compare": [1, 106], "qfactor": [72], "impurity-scan": [71],
                "impurity-scan --J-mhz J0": [71, 33]}

    @pytest.mark.parametrize("argv,count", [(["noise-compare"], 2), (["qfactor"], 1),
                                            (["impurity-scan"], 1),
                                            (["impurity-scan", "--J-mhz", "J0"], 2)])
    def test_a_matched_j_command_makes_few_stacked_solves(self, argv, count, eigen_stacks,
                                                          tmp_path):
        call = [j0_mhz() if a == "J0" else a for a in argv]
        stacks = eigen_stacks()
        assert main([*call, "--out", str(tmp_path / "out.csv")]) == 0
        assert len(stacks) == count
        assert [len(H) for H in stacks] == self.MATRICES[" ".join(argv)]

    # impurity-scan checks its target, its radii and the impurities they
    # place before any model is built (so before a calibration can fail);
    # potential-profile checks its cut before it evaluates the potential.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags,message", [
        (("impurity-scan", "--J-mhz", "inf"), "--J-mhz must be positive and finite, got inf"),
        (("impurity-scan", "--J-mhz", "nan"), "--J-mhz must be positive and finite, got nan"),
        (("impurity-scan", "--J-mhz", "0"), "--J-mhz must be positive and finite, got 0"),
        (("impurity-scan", "--J-mhz", "-5"), "--J-mhz must be positive and finite, got -5"),
        (("impurity-scan", "--radii", "nan"), "--radii must be positive and finite, got nan"),
        (("impurity-scan", "--radii", "6,inf"), "--radii must be positive and finite, got inf"),
        (("impurity-scan", "--radii", "0"), "--radii must be positive and finite, got 0"),
        (("impurity-scan", "--radii=-2,6"), "--radii must be positive and finite, got -2"),
        (("impurity-scan", "--radii", "6,abc"),
         "--radii expects comma-separated numbers, got '6,abc'"),
        (("impurity-scan", "--J-mhz", "10", "--charge-e", "nan"),
         "--charge-e must be finite, got nan"),
        (("impurity-scan", "--radii", "6,1e307"), "--radii 1e+307 times a = 100 nm overflows"),
        (("potential-profile", "--y-nm", "nan"), "--y-nm must be finite, got nan"),
        (("potential-profile", "--y-nm", "inf"), "--y-nm must be finite, got inf"),
    ])
    def test_bad_impurity_scan_input_is_rejected(self, flags, message, monkeypatch,
                                                 tmp_path, capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("computed before the flags were checked")
        monkeypatch.setattr(hamiltonian, "_device", no_model)
        monkeypatch.setattr(cli, "eval_potential", no_model)
        out = tmp_path / "out.csv"
        assert main([*flags, "--out", str(out)]) == 2
        assert f"dqdsim: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    # A matrix whose off-diagonal norm overflows fails by name, unwarned,
    # and an impurity-scan error names the impurity; a huge detuning sits
    # only on the diagonal, and is solved.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,code,err,last_row", [
        (("impurity-scan", "--charge-e", "1e300", "--radii", "1e6,1.5"), 2,
         "".join(f"dqdsim: error at impurity direction {d}, Rc_over_a {r}: "
                 "ValueError: matrix off-diagonal norm overflows\n"
                 for d in ("x", "y", "xy") for r in ("1000000", "1.5")), "xy,1.5,nan,nan"),
        (("exchange-barrier", "--xi-range", "1e300:1e300:1"), 2,
         "dqdsim: error at barrier control 1e+300 meV: "
         "ValueError: matrix off-diagonal norm overflows\n", "barrier,1e+300,nan,nan,nan,nan"),
        (("exchange-tilt", "--eps-range", "1e160:1e160:1"), 0, "",
         "tilt,1e+160,2.41799e+162,2.41799e+162,0,0"),
        # A J that is finite in meV but overflows in GHz fails its point, even
        # at 1e308, where the diagonal is too large to add to itself.
        (("exchange-tilt", "--eps-range", "1e307:1e307:1"), 2,
         "dqdsim: error at tilt control 1e+307 meV: "
         "ValueError: J = 1e+307 meV overflows in GHz\n", "tilt,1e+307,nan,nan,nan,nan"),
        (("exchange-tilt", "--eps-range", "1e308:1e308:1"), 2,
         "dqdsim: error at tilt control 1e+308 meV: "
         "ValueError: J = 1e+308 meV overflows in GHz\n", "tilt,1e+308,nan,nan,nan,nan"),
        # spectrum converts J to GHz as the sweeps do, and names its first
        # failing point in grid order (xi outermost), whichever way it
        # fails, so it writes no CSV (and no inf).
        (("spectrum", "--eps-range", "1e307:1e307:1"), 2,
         "dqdsim: error at epsilon 1e+307 meV, xi 1.3 meV: "
         "ValueError: J = 1e+307 meV overflows in GHz\n", None),
        (("spectrum", "--eps-range", "1e307:1e307:1", "--xi-range", "1.3:1e300:1e300"), 2,
         "dqdsim: error at epsilon 1e+307 meV, xi 1.3 meV: "
         "ValueError: J = 1e+307 meV overflows in GHz\n", None),
        (("spectrum", "--eps-range", "0:1e307:1e307", "--xi-range", "1e300:1e300:1"), 2,
         "dqdsim: error at epsilon 0 meV, xi 1e+300 meV: "
         "ValueError: matrix off-diagonal norm overflows\n", None),
    ], ids=["impurity-scan", "exchange-barrier", "exchange-tilt", "exchange-tilt-ghz-overflow",
            "exchange-tilt-ghz-overflow-at-1e308", "spectrum-ghz-overflow",
            "spectrum-first-failure-in-grid-order", "spectrum-matrix-overflow"])
    def test_an_overflowing_matrix_is_a_named_error(self, argv, code, err, last_row, tmp_path,
                                                    capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert (data_rows(out.read_text())[-1] if out.exists() else None) == last_row

    # A far impurity acts on nothing, a near one with a huge charge fails its
    # own row, named; the command writes every row and exits 2.
    @pytest.mark.filterwarnings("error")
    def test_an_impurity_scan_names_the_impurity_whose_record_fails(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["impurity-scan", "--charge-e", "1e300", "--radii", "1e200,1.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "".join(
            f"dqdsim: error at impurity direction {d}, Rc_over_a 1.5: "
            "ValueError: matrix off-diagonal norm overflows\n" for d in ("x", "y", "xy"))
        assert data_rows(out.read_text())[1:] == [
            f"{d},{r}" for d in ("x", "y", "xy") for r in ("1e+200,0,0", "1.5,nan,nan")]

    # A target out of reach names the J reachable at the bracket ends, which
    # the target, however large, does not cancel.
    @pytest.mark.parametrize("j_mhz,target", [("10", "0.01"), ("1e6", "1000"),
                                              ("1e300", "1e+297")])
    def test_an_impurity_scan_target_out_of_reach_names_the_reachable_j(self, j_mhz, target,
                                                                        tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["impurity-scan", "--J-mhz", j_mhz, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"dqdsim: error: calibrate_tilt: target {target} GHz outside [0.0328099, 173.752] "
            "GHz reachable on the bracket [0.0, 1.5] meV\n")
        assert not out.exists()

    # At J0 both calibrations settle on a bracket end (epsilon = 0, xi = 1.3),
    # not on their roots, which lie about 1e-6 meV and 2e-13 meV off it; the
    # rows are those of the end, from a second stack.
    def test_an_impurity_scan_at_j0_takes_its_rows_at_the_bracket_end(self, monkeypatch,
                                                                      eigen_stacks):
        j_mhz = j0_mhz()
        stacks, emitted = eigen_stacks(), []
        monkeypatch.setattr(cli, "_emit", lambda path, header, fields, blocks: emitted.append(
            (header, blocks)))
        assert main(["impurity-scan", "--J-mhz", j_mhz, "--radii", "1.5,6,20"]) == 0
        assert len(stacks) == 2
        ((header, (columns,)),) = emitted
        rows = list(zip(*columns))
        assert len(rows) == 9
        assert header[-2:] == ["eps_star_mev = 0", "xi_star_mev = 1.3"]
        roots = noise._roots(np.array([True, False]), np.full(2, float(j_mhz) / 1e3),
                             np.array([0.0, 0.3]), np.array([1.5, 1.3]), DeviceParams(), "paper")
        assert roots.tolist() != [0.0, 1.3]
        for name, r_over_a, rel_t, rel_b in rows:
            ux, uy = cli._SCAN_DIRECTIONS[name]
            imp = Impurity(r_over_a * 100.0 * ux, r_over_a * 100.0 * uy)
            assert rel_t == delta_J("tilt", 0.0, DeviceParams(), imp).rel_noise
            assert rel_b == delta_J("barrier", 1.3, DeviceParams(), imp).rel_noise

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
        ("potential-profile", "--mode", "full", "--out", "out.csv"),
    ], ids=["validate --config", "validate --out", "validate --mode", "validate --impurity",
            "validate --charge-e", "impurity-scan --impurity", "potential-profile --impurity",
            "potential-profile --charge-e", "potential-profile --mode"])
    def test_unread_flags_are_rejected(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMatchedJBranches:
    """Each way a calibration settles or fails, through the matched-J
    commands: the CSV rows, the stderr lines and the exit code."""

    BASE = DeviceParams()
    IMP = default_impurity(BASE)

    @classmethod
    def j_at(cls, scheme, control):
        return hamiltonian.exchange_J_ghz(noise.control_point(scheme, cls.BASE, control))

    @classmethod
    def out_of_reach(cls, target):
        """The message of a barrier target above J at the bracket's low end."""
        return (f"calibrate_barrier: target {target:.6g} GHz outside "
                f"[{cls.j_at('barrier', 1.3):.6g}, {cls.j_at('barrier', 0.3):.6g}] GHz "
                "reachable on the bracket [0.3, 1.3] meV")

    @staticmethod
    def refuse_the_tilt_top(monkeypatch):
        """Fail every solve at the tilt bracket's top, epsilon = 1.5 meV."""
        real = noise.solve_stack
        monkeypatch.setattr(noise, "solve_stack", lambda device, eps, xi, *args: real(
            device, np.where(np.asarray(eps) == 1.5, math.nan, eps), xi, *args))

    @classmethod
    def chi_row(cls, j, eps, xi):
        rel_t = delta_J("tilt", eps, cls.BASE, cls.IMP).rel_noise
        rel_b = delta_J("barrier", xi, cls.BASE, cls.IMP).rel_noise
        return ",".join(f"{v:.12g}" for v in (j, rel_t, rel_b, abs(rel_t) / abs(rel_b)))

    # Row 0 meets J0 exactly, row 1 takes both roots, and row 2 is out of the
    # barrier's reach; with the tilt top's solve failing, only row 0 is left.
    @pytest.mark.parametrize("refused", [False, True])
    def test_noise_compare(self, refused, monkeypatch, tmp_path, capsys):
        grid = matched_j_grid(self.BASE, n=3, j_max_ghz=2.0).tolist()
        roots = [calibrate_tilt(grid[1]), calibrate_barrier(grid[1])]
        if refused:
            self.refuse_the_tilt_top(monkeypatch)
        out = tmp_path / "out.csv"
        assert main(["noise-compare", "--points", "3", "--j-max", "2", "--out", str(out)]) == 2
        failed = [(j, "epsilon must be finite, got nan") for j in grid[1:]] if refused else [
            (grid[2], self.out_of_reach(grid[2]))]
        assert capsys.readouterr().err.splitlines() == [
            f"dqdsim: error: J = {cli._fmt(j)} GHz: {msg}" for j, msg in failed]
        assert data_rows(out.read_text()) == [
            "J_ghz,rel_tilt,rel_barrier,chi", self.chi_row(grid[0], 0.0, 1.3),
            *([] if refused else [self.chi_row(grid[1], *roots)]),
            *(f"{cli._fmt(j)},nan,nan,nan" for j, _ in failed)]

    # J0 settles on the J0 point; J at the barrier's low end settles there,
    # and the tilt calibration on its root.
    @pytest.mark.parametrize("control", [1.3, 0.3], ids=["J0", "low end"])
    def test_qfactor_settles_on_an_end(self, control, tmp_path):
        j = self.j_at("barrier", control)
        eps = 0.0 if control == 1.3 else calibrate_tilt(j)
        out = tmp_path / "out.csv"
        assert main(["qfactor", "--j-range", f"{j!r}:{j!r}:1", "--out", str(out)]) == 0
        rel_ref = abs(delta_J("tilt", calibrate_tilt(0.242), self.BASE, self.IMP).rel_noise)
        q = [quality_factor(j, QualityModel(rel)) for rel in (
            abs(delta_J("tilt", eps, self.BASE, self.IMP).rel_noise),
            abs(delta_J("barrier", control, self.BASE, self.IMP).rel_noise), rel_ref)]
        assert data_rows(out.read_text())[1:] == [",".join(f"{v:.12g}" for v in (j, *q))]

    @pytest.mark.parametrize("refused", [False, True], ids=["out of reach", "failing end"])
    def test_qfactor_fails_on_the_first_failure(self, refused, monkeypatch, tmp_path, capsys):
        if refused:
            self.refuse_the_tilt_top(monkeypatch)
        out = tmp_path / "out.csv"
        assert main(["qfactor", "--j-range", "0.15:2.05:0.95", "--out", str(out)]) == 2
        message = "epsilon must be finite, got nan" if refused else self.out_of_reach(
            0.15 + 2 * 0.95)
        assert capsys.readouterr().err == f"dqdsim: error: {message}\n"
        assert not out.exists()

    def test_impurity_scan_settles_on_the_barriers_low_end(self, tmp_path):
        j = self.j_at("barrier", 0.3)
        out = tmp_path / "out.csv"
        assert main(["impurity-scan", "--J-mhz", repr(j * 1e3), "--radii", "6",
                     "--out", str(out)]) == 0
        eps = calibrate_tilt(j)
        text = out.read_text()
        assert f"# eps_star_mev = {cli._fmt(eps)}\n# xi_star_mev = 0.3\n" in text
        rows = []
        for name, (ux, uy) in cli._SCAN_DIRECTIONS.items():
            imp = Impurity(600.0 * ux, 600.0 * uy)
            rows.append(f"{name},6,{delta_J('tilt', eps, self.BASE, imp).rel_noise:.12g},"
                        f"{delta_J('barrier', 0.3, self.BASE, imp).rel_noise:.12g}")
        assert data_rows(text)[1:] == rows

    # At J on the tilt top the tilt calibration settles there, so the first
    # failure is the barrier's; with the top's solve failing, the tilt's.
    @pytest.mark.parametrize("refused", [False, True], ids=["top end", "failing end"])
    def test_impurity_scan_fails_on_the_first_failure(self, refused, monkeypatch, tmp_path,
                                                       capsys):
        j = self.j_at("tilt", 1.5)
        if refused:
            self.refuse_the_tilt_top(monkeypatch)
        out = tmp_path / "out.csv"
        assert main(["impurity-scan", "--J-mhz", repr(j * 1e3), "--radii", "6",
                     "--out", str(out)]) == 2
        message = "epsilon must be finite, got nan" if refused else self.out_of_reach(j)
        assert capsys.readouterr().err == f"dqdsim: error: {message}\n"
        assert not out.exists()


def csv_writer_bytes(header_lines, fieldnames, blocks) -> str:
    """What csv.writer makes of the comment lines, the header and every row
    of every block of columns, its float cells as %.12g and its text cells as
    they are, except a lone empty cell, which csv.writer quotes and _emit
    writes as an empty line."""
    buf = io.StringIO()
    buf.write("".join(f"# {line}\n" for line in header_lines))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for block in blocks:
        if isinstance(block, str):
            buf.write(f"# {block}\n")
            continue
        for row in zip(*block):
            if row == ("",):
                buf.write("\n")
            else:
                writer.writerow([v if isinstance(v, str) else cli._fmt(v) for v in row])
    return buf.getvalue()


@st.composite
def column_blocks(draw):
    """Blocks of 1-5 columns of 0-6 rows between comment lines; a column
    holds floats (maybe as an array) or text that csv.writer would not quote."""
    text = st.text(st.characters(exclude_characters=',"\r\n'), max_size=4)
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 6))
        block = [draw(st.lists(draw(st.sampled_from([st.floats(), text])), min_size=n,
                               max_size=n)) for _ in range(draw(st.integers(1, 5)))]
        blocks += [[np.array(col) if col and all(type(c) is float for c in col)
                    and draw(st.booleans()) else col for col in block], "a comment"]
    return blocks


class TestEmit:
    """_emit writes each block of columns with one '%' template, byte for
    byte what csv.writer makes of its rows: %.12g for a float column (a list
    or an array), the cell itself for a text column."""

    BLOCKS = [
        [[np.float64(0.1), math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e16, 123456789012.5],
         ["tilt", "", "x", "tilt", "", "barrier", "y", "tilt"],
         np.array([0.1, -0.0, math.nan, math.inf, -math.inf, 2.5, 1e-7, 3.0]),
         [np.float64(-0.0), np.float64(math.nan), 0.5, -1.5, np.float64(math.inf), 0.0, 1.0, 2.0]],
        "an interior comment",
        [[""], [""]],
        [[""]],
        [[], []],
        "a second comment",
        ([1.5], ["x"]),
    ]

    def test_rows_are_the_bytes_csv_writer_makes(self, capsys):
        cli._emit(None, ["dqdsim test"], ("a", "b"), self.BLOCKS)
        assert capsys.readouterr().out == csv_writer_bytes(["dqdsim test"], ("a", "b"),
                                                           self.BLOCKS)

    @settings(max_examples=200, deadline=None)
    @given(column_blocks())
    def test_any_rows_are_the_bytes_csv_writer_makes(self, blocks):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(None, [], ("a",), blocks)
        assert out.getvalue() == csv_writer_bytes([], ("a",), blocks)


# Each CSV subcommand at its defaults, and each range flag on a small grid.
WELL_FORMED = [(name,) for name in SMALL_GRIDS] + [
    ("spectrum", "--eps-range", "0:0.1:0.1"),
    ("spectrum", "--xi-range", "1.0:1.1:0.1"),
    ("exchange-tilt", "--eps-range", "0:0.1:0.1"),
    ("exchange-barrier", "--xi-range", "1.0:1.1:0.1"),
    ("qfactor", "--j-range", "0.2:0.3:0.1"),
    ("potential-profile", "--x-range=-100:100:100"),
]
FIELDS = {invocation[0]: header.split(",") for invocation, header in HEADERS.items()}

# The grid flags whose spec a provenance line echoes, each on a small grid.
RANGE_FLAGS = [argv for argv in WELL_FORMED if len(argv) > 1]


def is_plain(text: str) -> bool:
    """A CSV field or cell that needs no quoting and holds no line break."""
    return text.splitlines() == [text] and not set(',"') & set(text)


class TestWellFormed:
    """Every CSV a subcommand writes is its '# ' comment lines, one header
    row of its fields and rows of the header's width; the only interior
    comment is exchange-barrier's '# zoom' line."""

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_every_csv_is_well_formed(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert text == "".join(f"{line}\n" for line in lines)  # only '\n' ends a line
        n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert n > 0 and all(line.startswith("# ") for line in lines[:n])
        assert lines[n].split(",") == FIELDS[argv[0]]
        interior = [line for line in lines[n + 1:] if line.startswith("#")]
        assert interior == (["# zoom xi_range = 0.5:0.6:0.002"]
                            if argv == ("exchange-barrier",) else [])
        rows = [line for line in lines[n + 1:] if not line.startswith("#")]
        assert rows and all(len(row.split(",")) == len(FIELDS[argv[0]]) for row in rows)
        assert '"' not in text

    # The invariant that lets _emit quote nothing: no text cell the program
    # writes, and no header field, holds a comma, a double quote or a line
    # break.
    def test_no_text_cell_or_field_needs_quoting(self, monkeypatch, tmp_path):
        written, real = [], cli._emit

        def spy(path, header_lines, fieldnames, blocks):
            written.extend(fieldnames)
            written.extend(cell for block in blocks if not isinstance(block, str)
                           for col in block if isinstance(col, list)
                           for cell in col if isinstance(cell, str))
            real(path, header_lines, fieldnames, blocks)
        monkeypatch.setattr(cli, "_emit", spy)
        for argv in WELL_FORMED:
            assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert {"tilt", "barrier", *cli._SCAN_DIRECTIONS} <= set(written)
        assert set(FIELDS["spectrum"]) <= set(written)
        names = ["tilt", "barrier", *cli._SCAN_DIRECTIONS, *noise.NoiseRecord._fields,
                 *noise.ChiRecord._fields, *written]
        assert [name for name in names if not is_plain(name)] == []

    # A range spec with whitespace, which float() would strip, is malformed:
    # its provenance line would carry the whitespace, and a line break there
    # splits the header.  It exits 2 before any work and writes no file.
    @pytest.mark.parametrize("space", ["\n", "\r", "\v", "\u2028", " "],
                             ids=["lf", "cr", "vt", "ls", "space"])
    @pytest.mark.parametrize("argv", RANGE_FLAGS, ids=" ".join)
    def test_a_range_with_whitespace_is_rejected(self, argv, space, monkeypatch, tmp_path,
                                                 capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the range was checked")
        monkeypatch.setattr(hamiltonian, "_device", no_work)
        monkeypatch.setattr(cli, "eval_potential", no_work)
        flag, spec = argv[1].split("=") if "=" in argv[1] else argv[1:]
        spec = spec + space if space != " " else spec.replace(":", ": ", 1)
        out = tmp_path / "out.csv"
        assert main([argv[0], f"{flag}={spec}", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"dqdsim: error: expected 'lo:hi:step', got {spec!r}\n")
        assert not out.exists()


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

    # J0 is met at the device's own barrier, inside BARRIER_BRACKET or
    # outside it, so the first row compares both schemes at one device:
    # chi = 1.  (At xi = 0.2 meV J0 lies above the grid's upper end, and
    # the grid is refused: see TestMatchedGrid in test_noise.py.)
    @pytest.mark.parametrize("xi", ["1.5", "1.1"])
    def test_noise_compare_starts_at_the_devices_own_barrier(self, xi, tmp_path, capsys):
        cfg = tmp_path / "device.cfg"
        cfg.write_text(f"control.xi_mev = {xi}\n")
        assert main(["noise-compare", "--config", str(cfg), "--points", "3"]) == 0
        out, err = capsys.readouterr()
        first = data_rows(out)[1].split(",")
        assert first[1] == first[2] and first[3] == "1"
        assert err == "" and "nan" not in out

    # J0 is met at the device's own barrier also where J is not monotone in
    # xi over the bracket (minimum near xi = 1.15 meV on this device); 1 GHz
    # lies beyond the barrier's reach there, so only the last row fails.
    def test_noise_compare_meets_j0_where_j_is_not_monotone_in_xi(self, tmp_path, capsys):
        cfg = tmp_path / "device.cfg"
        cfg.write_text("device.a_nm = 110\ndevice.m_eff = 0.07\ncontrol.xi_mev = 1.2\n")
        assert main(["noise-compare", "--config", str(cfg), "--points", "3"]) == 2
        out, err = capsys.readouterr()
        rows = [row.split(",") for row in data_rows(out)[1:]]
        assert rows[0][1] == rows[0][2] and rows[0][3] == "1"
        assert [row[0] for row in rows if row[3] == "nan"] == ["1"]
        assert err.startswith("dqdsim: error: J = 1 GHz: calibrate_barrier: target 1 GHz outside")
        assert len(err.splitlines()) == 1

    def test_impurity_scan_header_reports_operating_point(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli("impurity-scan", "--radii", "6", "--J-mhz", "242",
                "--out", str(out))
        text = out.read_text()
        assert "eps_star" in text and "xi_star" in text
        rows = data_rows(text)
        assert len(rows) == 1 + 3  # header + one radius in three directions


def test_console_script_entry_point():
    # The console script calls dqdsim.cli:main, as `python -m dqdsim.cli`
    # does; where the package is installed, the script is on PATH too.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"dqdsim": "dqdsim.cli:main"}
    for command in [CLI, ["dqdsim"]] if shutil.which("dqdsim") else [CLI]:
        proc = subprocess.run(command + ["--version"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert __version__ in proc.stdout
