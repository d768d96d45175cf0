"""Command-line interface.

Subcommands reproduce the package's standard experiments -- two-electron
spectra, exchange-vs-control curves, impurity noise sweeps for the tilt and
barrier schemes, quality factors, and impurity-position scans -- and emit
deterministic CSV (stable column order, ``%.12g`` floats, provenance in
``#`` comment lines, no timestamps), so reruns with equal inputs are
byte-identical; a table goes out as columns, with nan cells at a failed
point.  ``dqdsim validate`` runs the built-in cross-check suite.

Exit codes: 0 on success, 1 when ``validate`` finds a failing check, 2 on
bad arguments or any per-point fatal error during a sweep.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import math
import sys

import numpy as np

from . import __version__
from .hamiltonian import AssemblyMode, _raise_first, in_ghz, solve_stack
from .model import _SETTINGS, DeviceParams, Impurity, _finite, config_to_objects, read_config
from .noise import (
    MAX_GRID_POINTS,
    CalibrationError,
    ChiRecord,
    NoiseRecord,
    QualityModel,
    _calibrated,
    _chi_table,
    _grid_size,
    _noise_table,
    default_impurity,
    matched_j_grid,
    quality_factor,
)
from .potential import eval_potential

# ---------------------------------------------------------------------------
# formatting / output helpers
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    """A float as the CSV writes it: %.12g (nan, inf, -inf included)."""
    return f"{v:.12g}"


def _emit(path: str | None, header_lines: list[str], fieldnames, blocks) -> None:
    """Write provenance comments, a header row, and blocks as CSV.

    A block is an interior comment line (str) or rows given as columns, each
    written with one '%' template: %.12g for a float column (a float array or
    a list of floats), %s for a text column (a list of str; its first cell
    says which).  No cell is quoted: text cells are scheme and direction names."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(fieldnames) + "\n")
    for block in blocks:
        if isinstance(block, str):          # interior comment line
            buf.write(f"# {block}\n")
            continue
        columns = [col.tolist() if isinstance(col, np.ndarray) else col for col in block]
        template = ",".join("%s" if col and isinstance(col[0], str) else "%.12g"
                            for col in columns) + "\n"
        rows = list(zip(*columns))
        buf.write(template * len(rows) % tuple(itertools.chain(*rows)))
    text = buf.getvalue()
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _provenance(args, base: DeviceParams, mode: AssemblyMode | None,
                imp: Impurity | None = None, extra: tuple[str, ...] = ()) -> list[str]:
    lines = [f"dqdsim {__version__}", f"subcommand = {args.subcommand}"]
    if mode is not None:
        lines.append(f"mode = {mode.value}")
    # The setting lines of the device and the impurity, a --config of both.
    lines += [f"{key} = {_fmt(getattr(base if record is DeviceParams else imp, name))}"
              for key, (record, name) in _SETTINGS.items()
              if record is DeviceParams or imp is not None]
    return lines + [f"seed = {args.seed}", *extra]


def _parse_range(spec: str) -> list[float]:
    """'lo:hi:step' -> inclusive grid lo, lo+step, ... up to hi plus 1e-9 of
    the step (0:0.3:0.1 ends at 0.30000000000000004, one ulp above 0.3).
    Grids of more than MAX_GRID_POINTS points are rejected unbuilt, and so
    is a spec with whitespace, which its provenance line would carry."""
    try:
        if any(map(str.isspace, spec)):
            raise ValueError
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise ValueError(f"expected 'lo:hi:step', got {spec!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"range {spec!r}: lo, hi and step must be finite")
    if step <= 0:
        raise ValueError(f"range {spec!r}: step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"range {spec!r}: upper bound {hi} below lower bound {lo}")
    span = (hi - lo) / step  # grid intervals, before rounding
    if span + 0.5 >= MAX_GRID_POINTS:
        raise ValueError(f"range {spec!r}: more than {MAX_GRID_POINTS} points")
    n = int(math.floor(span + 0.5)) + 1
    vals = [lo + k * step for k in range(n)]
    guard = step * 1e-9
    return [v for v in vals if v <= hi + guard]


def _parse_xy(spec: str) -> tuple[float, float]:
    try:
        x_s, y_s = spec.split(",")
        xy = float(x_s), float(y_s)
    except ValueError:
        raise ValueError(f"expected 'X_nm,Y_nm', got {spec!r}") from None
    _finite("--impurity", xy)
    return xy


def _resolve(args, *, default_impurity_wanted: bool = False):
    """Combine defaults, --config, and flags into (params, impurity, mode);
    mode is None for a subcommand without --mode."""
    if "charge_e" in args and args.charge_e is not None:
        _finite("--charge-e", [args.charge_e])
    base = DeviceParams()
    imp: Impurity | None = None
    if args.config is not None:
        cfg = read_config(args.config)
        base, imp = config_to_objects(cfg)
        ignored = sorted(key for key in cfg if _SETTINGS[key][0] is Impurity)
        if ignored and "impurity" not in args:  # the subcommand places no impurity
            raise ValueError(f"{args.config}: {args.subcommand} takes no impurity from "
                             f"a config file, but it sets {', '.join(ignored)}")
    if imp is None and default_impurity_wanted:
        imp = default_impurity(base)
    if "impurity" in args:  # the subcommand takes --impurity and --charge-e
        if args.impurity is not None:
            imp = Impurity(*_parse_xy(args.impurity), imp.q if imp else -1.0)
        if args.charge_e is not None and imp is not None:
            imp = Impurity(imp.x_c, imp.y_c, args.charge_e)
    return base, imp, AssemblyMode(args.mode) if "mode" in args else None


def _sweep(args, scheme: str, key: str, spec: str, zoom: str | None = None) -> int:
    """Write the NoiseRecord columns of a sweep over one scheme's control
    values, the grid spec names (key = spec in the header), NaN in a row
    whose value failed, with its error on stderr in row order; a zoom grid's
    rows follow those of spec after an interior comment line."""
    base, imp, mode = _resolve(args, default_impurity_wanted=True)
    values = _parse_range(spec)
    n_main = len(values)
    values += _parse_range(zoom) if zoom else []
    table, failed = _noise_table([(scheme, v) for v in values], base, imp, mode)
    columns = [[scheme] * len(values), values, *table]
    blocks = [columns] if zoom is None else [
        [c[:n_main] for c in columns], f"zoom {key} = {zoom}", [c[n_main:] for c in columns]]
    header = _provenance(args, base, mode, imp, (f"{key} = {spec}",))
    _emit(args.out, header, NoiseRecord._fields, blocks)
    return _report([f"dqdsim: error at {scheme} control {_fmt(values[i])} meV: "
                    f"{type(exc).__name__}: {exc}" for i, exc in sorted(failed.items())])


def _report(failures: list[str]) -> int:
    """Print the per-point failure lines to stderr; 2 if any, else 0."""
    for msg in failures:
        print(msg, file=sys.stderr)
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    """Lowest two-electron levels and their splitting along a detuning sweep."""
    base, imp, mode = _resolve(args)
    if args.charge_e is not None and imp is None:
        raise ValueError("--charge-e given without --impurity or a config impurity: "
                         "there is no impurity to charge")
    eps_values = _parse_range(args.eps_range)
    xi_values = [1.3, 1.0] if args.xi_range is None else _parse_range(args.xi_range)
    points = len(eps_values) * len(xi_values)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"--eps-range and --xi-range make {points} points, more than "
                         f"{MAX_GRID_POINTS}")
    epsilon, xi = (a.ravel() for a in np.meshgrid(eps_values, xi_values))  # xi outermost
    imp_rows, imps = (None, []) if imp is None else (np.ones(len(xi), int), [imp])
    J, evals, _, failed = solve_stack(base, epsilon, xi, imp_rows, imps, mode)
    ghz, over = in_ghz(J)
    failed.update(over)
    if failed:  # the first failing point in grid order, xi outermost; no CSV
        i = min(failed)
        return _report([f"dqdsim: error at epsilon {_fmt(epsilon[i])} meV, xi {_fmt(xi[i])} "
                        f"meV: {type(failed[i]).__name__}: {failed[i]}"])
    header = _provenance(args, base, mode, imp, (
        f"eps_range = {args.eps_range}",
        f"xi_values = {','.join(_fmt(x) for x in xi_values)}",
    ))
    _emit(args.out, header, ("epsilon_mev", "xi_mev", "E0_mev", "E1_mev", "J_mev", "J_ghz"),
          [(epsilon, xi, evals[:, 0], evals[:, 1], J, ghz)])
    return 0


def cmd_exchange_tilt(args) -> int:
    """J and impurity-induced dJ versus detuning at fixed barrier."""
    return _sweep(args, "tilt", "eps_range", args.eps_range)


def cmd_exchange_barrier(args) -> int:
    """J and impurity-induced dJ versus barrier amplitude at zero detuning.

    With the default range a finer zoom block over the low-barrier end is
    appended after an interior comment line.
    """
    if args.xi_range is None:
        return _sweep(args, "barrier", "xi_range", "0.5:1.3:0.01", "0.5:0.6:0.002")
    return _sweep(args, "barrier", "xi_range", args.xi_range)


def cmd_noise_compare(args) -> int:
    """Relative noise of both schemes, and their ratio chi, at matched J.

    ``near-impurity`` runs the same comparison; without an impurity it
    places a weak charge close to the dots: q = -0.01 e at (-1.5 a, 0.5 a)."""
    _grid_size("--points", args.points)
    _finite("--j-max", [args.j_max], positive=True)
    near = args.subcommand == "near-impurity"
    base, imp, mode = _resolve(args, default_impurity_wanted=not near)
    if imp is None:  # near-impurity given no impurity
        q = args.charge_e if args.charge_e is not None else -0.01
        imp = Impurity(-1.5 * base.a, 0.5 * base.a, q)
    grid = matched_j_grid(base, n=args.points, j_max_ghz=args.j_max, mode=mode).tolist()
    table, failed = _chi_table(grid, imp, base, mode)
    header = _provenance(args, base, mode, imp, (
        f"points = {args.points}",
        f"j_max_ghz = {_fmt(args.j_max)}",
    ))
    _emit(args.out, header, ChiRecord._fields, [(grid, *table)])
    return _report([f"dqdsim: error: J = {_fmt(grid[k])} GHz: {exc}" for k, exc in failed.items()])


def cmd_qfactor(args) -> int:
    """Oscillation quality factor versus J for three noise models:
    the calibrated tilt scheme, the calibrated barrier scheme, and a
    constant relative-noise model frozen at the tilt value at 0.242 GHz."""
    base, imp, mode = _resolve(args, default_impurity_wanted=True)
    j_values = _parse_range(args.j_range)
    ref_j = 0.242  # GHz (1 ueV)
    # One stacked solve calibrates the reference and both schemes at every J
    # and takes the noise record of each.
    _, calibration_failed, table, out = _calibrated([("tilt", ref_j)] + [
        (scheme, j_ghz) for j_ghz in j_values for scheme in ("tilt", "barrier")],
        base, mode, [imp])
    # The first failure is raised in the order of the steps: the reference,
    # then at each J both calibrations, both records and quality_factor.
    j = np.array(j_values)
    bad = {(i - 1) // 2 for i in out} | set(np.flatnonzero(j <= 0).tolist())
    if bad:
        t = 1 + 2 * min(bad)  # -1 where the reference fails
        _raise_first({k: exc for k, exc in enumerate([
            out.get(0), calibration_failed.get(t), calibration_failed.get(t + 1),
            out.get(t), out.get(t + 1)]) if exc is not None})
        quality_factor(j_values[t // 2], QualityModel(0.0))  # a J <= 0 raises
    # quality_factor in columns: sigma_total = hypot(|rel| J, 0) = |rel| J.
    rel = np.abs(table[3])
    with np.errstate(divide="ignore"):
        q = j / (math.sqrt(2.0) * math.pi * (
            np.array([rel[1::2], rel[2::2], np.full(len(j), rel[0])]) * j))
    header = _provenance(args, base, mode, imp, (
        f"j_range_ghz = {args.j_range}",
        f"const_model_ref_ghz = {_fmt(ref_j)}",
    ))
    _emit(args.out, header, ("J_ghz", "Q_tilt", "Q_barrier", "Q_constmodel"), [(j_values, *q)])
    return 0


_SCAN_DIRECTIONS = {
    "x": (-1.0, 0.0),
    "y": (0.0, 1.0),
    "xy": (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}


def cmd_impurity_scan(args) -> int:
    """Relative noise of both schemes versus impurity distance, for an
    impurity moved outward along three directions at matched clean J.

    Both calibrations and every impurity's records come from _calibrated:
    one stack, and a second where a calibration settles on a bracket end.
    A failed calibration (tilt first) fails the command; a row whose record
    fails is NaN, and its error names the impurity."""
    base, _imp, mode = _resolve(args)
    try:
        radii = ([1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0]
                 if args.radii is None else [float(r) for r in args.radii.split(",")])
    except ValueError:
        raise ValueError(f"--radii expects comma-separated numbers, got {args.radii!r}") from None
    impurities = len(_SCAN_DIRECTIONS) * len(radii)
    if impurities > MAX_GRID_POINTS:
        raise ValueError(f"--radii places {impurities} impurities, {len(_SCAN_DIRECTIONS)} per "
                         f"radius, more than {MAX_GRID_POINTS}")
    _finite("--J-mhz", [args.J_mhz], positive=True)
    _finite("--radii", radii, positive=True)
    for r in radii:  # each impurity sits at r * a nm
        if math.isinf(r * base.a):
            raise ValueError(f"--radii {_fmt(r)} times a = {_fmt(base.a)} nm overflows")
    j_target_ghz = args.J_mhz / 1e3
    q = args.charge_e if args.charge_e is not None else -1.0
    names = [name for name in _SCAN_DIRECTIONS for _ in radii]
    controls, calibration_failed, table, out = _calibrated(
        [("tilt", j_target_ghz), ("barrier", j_target_ghz)], base, mode,
        [Impurity(r_over_a * base.a * ux, r_over_a * base.a * uy, q)
         for ux, uy in _SCAN_DIRECTIONS.values() for r_over_a in radii])
    _raise_first(calibration_failed)  # tilt first
    eps_star, xi_star = controls.tolist()
    # A row fails with its tilt record's exception, else its barrier one's.
    rel = table[3].reshape(-1, 2)
    bad = sorted({i // 2 for i in out})
    rel[bad] = math.nan
    failures = [f"dqdsim: error at impurity direction {names[k]}, Rc_over_a "
                f"{_fmt(radii[k % len(radii)])}: {type(exc).__name__}: {exc}"
                for k in bad for exc in [out.get(2 * k, out.get(2 * k + 1))]]
    header = _provenance(args, base, mode, None, (
        f"J_target_mhz = {_fmt(args.J_mhz)}",
        f"charge_e = {_fmt(q)}",
        f"radii_over_a = {','.join(_fmt(r) for r in radii)}",
        f"eps_star_mev = {_fmt(eps_star)}",
        f"xi_star_mev = {_fmt(xi_star)}",
    ))
    _emit(args.out, header, ("direction", "Rc_over_a", "rel_tilt", "rel_barrier"),
          [(names, radii * len(_SCAN_DIRECTIONS), *rel.T)])
    return _report(failures)


def cmd_potential_profile(args) -> int:
    """Confinement potential along a horizontal cut (default y = 0,
    x in [-3a, 3a])."""
    base, _imp, _mode = _resolve(args)
    _finite("--y-nm", [args.y_nm])
    x_spec = (f"{_fmt(-3 * base.a)}:{_fmt(3 * base.a)}:{_fmt(base.a / 50)}"
              if args.x_range is None else args.x_range)
    xs = _parse_range(x_spec)
    with np.errstate(over="ignore", invalid="ignore"):
        values = eval_potential(np.asarray(xs), args.y_nm, base)
    for i in np.flatnonzero(~np.isfinite(values))[:1].tolist():  # the first, in grid order
        return _report([f"dqdsim: error at x {_fmt(xs[i])} nm, y {_fmt(args.y_nm)} nm: "
                        f"V = {_fmt(values[i])} meV is not finite"])
    header = _provenance(args, base, None, None, (
        f"x_range_nm = {x_spec}",
        f"y_nm = {_fmt(args.y_nm)}",
    ))
    _emit(args.out, header, ("x_nm", "y_nm", "V_meV"), [(xs, [args.y_nm] * len(xs), values)])
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    """Run the built-in cross-check suite; exit 1 if any check fails."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    from .crosscheck import validate  # with the oracle, which is slow to import

    return validate(args.seed, args.quick, args.corrupt_bessel)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, impurity: bool = True, mode: bool = True) -> None:
    """The flags of a CSV subcommand; --impurity and --charge-e only with
    impurity, --mode only with mode."""
    p.add_argument("--config", metavar="PATH",
                   help="'key = value' settings file ('#' comments)")
    p.add_argument("--out", metavar="PATH",
                   help="output CSV path (default: stdout)")
    if mode:
        p.add_argument("--mode", choices=("paper", "full"), default="paper",
                       help="4x4 assembly: nearest-neighbor hopping only (paper) "
                            "or all two-body terms (full)")
    if impurity:
        p.add_argument("--impurity", metavar="X_NM,Y_NM",
                       help="impurity position in nm")
        p.add_argument("--charge-e", type=float, default=None, metavar="Q",
                       help="impurity charge in units of e")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the header as 'seed = N'; only validate "
                        "draws random numbers")


def _exchange_tilt_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--eps-range", default="0:1:0.01", metavar="LO:HI:STEP",
                   help="detuning grid [meV]")


def _spectrum_flags(p: argparse.ArgumentParser) -> None:
    _exchange_tilt_flags(p)  # and a barrier grid
    p.add_argument("--xi-range", metavar="LO:HI:STEP",
                   help="barrier amplitudes [meV] (default: 1.3 and 1.0)")


def _exchange_barrier_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--xi-range", metavar="LO:HI:STEP", help="barrier grid [meV]")


def _matched_j_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--points", type=int, default=25, help="matched-J grid size")
    p.add_argument("--j-max", type=float, default=1.0, metavar="GHZ",
                   help="upper end of the matched-J grid")


def _qfactor_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--j-range", default="0.15:0.9:0.05", metavar="LO:HI:STEP",
                   help="J grid [GHz]")


def _impurity_scan_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, impurity=False)
    p.add_argument("--charge-e", type=float, default=None, metavar="Q",
                   help="charge of each scanned impurity in units of e (default: -1)")
    p.add_argument("--J-mhz", type=float, default=242.0, metavar="MHZ",
                   help="clean J both schemes are calibrated to")
    p.add_argument("--radii", metavar="R1,R2,...",
                   help="impurity distances in units of a")


def _potential_profile_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, impurity=False, mode=False)
    p.add_argument("--x-range", metavar="LO:HI:STEP", help="x grid [nm]")
    p.add_argument("--y-nm", type=float, default=0.0, help="cut height [nm]")


def _validate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized self-checks")
    p.add_argument("--quick", action="store_true",
                   help="reduced sampling (finishes in a few seconds)")
    p.add_argument("--corrupt-bessel", action="store_true",
                   help="negative control: corrupt the Bessel routine and "
                        "confirm the element cross-check fails")


# Each subcommand's help line, the function that adds its flags and the
# command it runs, in the order of the help listing.
_SUBCOMMANDS = {
    "spectrum": ("lowest singlet/triplet levels vs detuning", _spectrum_flags, cmd_spectrum),
    "exchange-tilt": ("J and impurity noise vs detuning", _exchange_tilt_flags,
                      cmd_exchange_tilt),
    "exchange-barrier": ("J and impurity noise vs barrier amplitude", _exchange_barrier_flags,
                         cmd_exchange_barrier),
    "noise-compare": ("tilt vs barrier noise at matched J, with chi", _matched_j_flags,
                      cmd_noise_compare),
    "qfactor": ("oscillation quality factor vs J", _qfactor_flags, cmd_qfactor),
    "impurity-scan": ("noise vs impurity distance along three directions",
                      _impurity_scan_flags, cmd_impurity_scan),
    "near-impurity": ("matched-J comparison for a weak nearby charge", _matched_j_flags,
                      cmd_noise_compare),
    "potential-profile": ("confinement potential along a horizontal cut",
                          _potential_profile_flags, cmd_potential_profile),
    "validate": ("run the built-in cross-check suite", _validate_flags, cmd_validate),
}


@functools.cache
def _parser(name: str | None = None) -> argparse.ArgumentParser:
    """The named subcommand's parser, built once per process; without a name,
    the top-level one: --version and each subcommand's name and help line."""
    if name is not None:
        parser = argparse.ArgumentParser(prog=f"dqdsim {name}")
        _SUBCOMMANDS[name][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description="Exchange interaction and charge-noise simulator for a "
                    "two-electron double quantum dot.")
    parser.add_argument("--version", action="version", version=f"dqdsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, add_help=False)  # -h is _parser(name)'s
    return parser


def main(argv=None) -> int:
    """Run one command line, returning its exit code.  Its subcommand's own
    parser parses it; the top-level parser takes -h, --version and a missing
    or unknown command, and reports arguments left over as argparse would."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _SUBCOMMANDS:
        _parser().parse_args(argv)  # prints the help, the version or an error, and exits
        _parser().error("the command must come first")  # if argparse skipped what came first
    args, extras = _parser(argv[0]).parse_known_args(
        argv[1:], argparse.Namespace(subcommand=argv[0]))
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return _SUBCOMMANDS[args.subcommand][2](args)
    except Exception as exc:
        from .quadrature import OracleRefusal  # only validate runs the oracle
        if not isinstance(exc, (CalibrationError, OracleRefusal, ValueError, OSError)):
            raise
        print(f"dqdsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
