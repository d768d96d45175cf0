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
import io
import itertools
import math
import sys

import numpy as np

from . import __version__
from .hamiltonian import AssemblyMode, in_ghz, solve_stack, unwrap
from .model import _SETTINGS, DeviceParams, Impurity, config_to_objects, read_config
from .noise import (
    CalibrationError,
    ChiRecord,
    NoiseRecord,
    QualityModel,
    _calibrated,
    _noise_table,
    default_impurity,
    improvement_factors,
    matched_j_grid,
    quality_factor,
)
from .potential import eval_potential

# ---------------------------------------------------------------------------
# formatting / output helpers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    """Stable scalar formatting: floats as %.12g (nan, inf, -inf included),
    everything else via str."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


_QUOTED = frozenset(',"\r\n')  # a text cell with one of these would need CSV quoting


def _emit(path: str | None, header_lines: list[str], fieldnames, blocks) -> None:
    """Write provenance comments, a header row, and blocks as CSV.

    A block is an interior comment line (str) or rows given as columns (an
    array's cells are its tolist() values), written with one '%' template:
    %.12g for a column of floats, and _fmt's text for any other.  No cell is
    quoted, so a text cell that would need quoting raises ValueError, naming
    the first in row order, before anything is written."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(fieldnames) + "\n")
    for block in blocks:
        if isinstance(block, str):          # interior comment line
            buf.write(f"# {block}\n")
            continue
        columns, formats = [], []
        for col in block:
            col = col.tolist() if isinstance(col, np.ndarray) else list(col)
            types = set(map(type, col))
            floats = all(issubclass(t, float) for t in types)
            columns.append(col if floats or types <= {str} else list(map(_fmt, col)))
            formats.append("%.12g" if floats else "%s")
        # Each distinct text cell is checked once.
        quoted = {c for col, f in zip(columns, formats) if f == "%s"
                  for c in set(col) if not _QUOTED.isdisjoint(c)}
        rows = list(zip(*columns))
        if quoted:
            cell = next(c for row in rows for c in row if c in quoted)
            raise ValueError(f"CSV cell {cell!r} would need quoting")
        buf.write((",".join(formats) + "\n") * len(rows) % tuple(itertools.chain(*rows)))
    text = buf.getvalue()
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _provenance(sub: str, args, base: DeviceParams, mode: AssemblyMode | None,
                imp: Impurity | None = None, extra: tuple[str, ...] = ()) -> list[str]:
    lines = [f"dqdsim {__version__}", f"subcommand = {sub}"]
    if mode is not None:
        lines.append(f"mode = {mode.value}")
    # The setting lines of the device and the impurity, a --config of both.
    lines += [f"{key} = {_fmt(getattr(base if record is DeviceParams else imp, name))}"
              for key, (record, name) in _SETTINGS.items()
              if record is DeviceParams or imp is not None]
    return lines + [f"seed = {args.seed}", *extra]


MAX_GRID_POINTS = 100_000


def _parse_range(spec: str) -> list[float]:
    """'lo:hi:step' -> inclusive grid lo, lo+step, ... (hi included
    whenever it sits on the grid to within a relative half-ulp guard).
    Grids of more than MAX_GRID_POINTS points are rejected unbuilt."""
    try:
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
        return float(x_s), float(y_s)
    except ValueError:
        raise ValueError(f"expected 'X_nm,Y_nm', got {spec!r}") from None


def _resolve(args, *, default_impurity_wanted: bool = False):
    """Combine defaults, --config, and flags into (params, impurity, mode);
    mode is None for a subcommand without --mode."""
    base = DeviceParams()
    imp: Impurity | None = None
    if args.config:
        cfg = read_config(args.config)
        base, imp = config_to_objects(cfg)
        ignored = sorted(key for key in cfg if _SETTINGS[key][0] is Impurity)
        if ignored and "impurity" not in args:  # the subcommand places no impurity
            raise ValueError(f"{args.config}: {args.subcommand} takes no impurity from "
                             f"a config file, but it sets {', '.join(ignored)}")
    if imp is None and default_impurity_wanted:
        imp = default_impurity(base)
    if "impurity" in args:  # the subcommand takes --impurity and --charge-e
        if args.impurity:
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
    header = _provenance(f"exchange-{scheme}", args, base, mode, imp, (f"{key} = {spec}",))
    _emit(args.out, header, NoiseRecord.CSV_FIELDS, blocks)
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
    xi_values = _parse_range(args.xi_range) if args.xi_range else [1.3, 1.0]
    epsilon, xi = (a.ravel() for a in np.meshgrid(eps_values, xi_values))  # xi outermost
    imp_rows, imps = (None, []) if imp is None else (np.ones(len(xi), int), [imp])
    failed, _, evals, _, J = solve_stack(base, epsilon, xi, imp_rows, imps, mode)
    ghz, over = in_ghz(J)
    for errors in (failed, over):
        if errors:
            raise errors[min(errors)]
    header = _provenance("spectrum", args, base, mode, imp, (
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
    return _sweep(args, "barrier", "xi_range", args.xi_range or "0.5:1.3:0.01",
                  None if args.xi_range else "0.5:0.6:0.002")


def cmd_noise_compare(args) -> int:
    """Relative noise of both schemes, and their ratio chi, at matched J.

    ``near-impurity`` runs the same comparison; without an impurity it
    places a weak charge close to the dots: q = -0.01 e at (-1.5 a, 0.5 a)."""
    if not 2 <= args.points <= MAX_GRID_POINTS:
        bound = "at least 2" if args.points < 2 else f"at most {MAX_GRID_POINTS}"
        raise ValueError(f"--points must be {bound}, got {args.points}")
    if not 0 < args.j_max < math.inf:
        raise ValueError(f"--j-max must be positive and finite, got {args.j_max}")
    near = args.subcommand == "near-impurity"
    base, imp, mode = _resolve(args, default_impurity_wanted=not near)
    if imp is None:  # near-impurity given no impurity
        q = args.charge_e if args.charge_e is not None else -0.01
        imp = Impurity(-1.5 * base.a, 0.5 * base.a, q)
    grid = [float(j) for j in matched_j_grid(base, n=args.points, j_max_ghz=args.j_max, mode=mode)]
    rows, failures = [], []
    for j_ghz, rec in zip(grid, improvement_factors(grid, imp, base, mode)):
        if isinstance(rec, ChiRecord):
            rows.append(rec)
        elif isinstance(rec, ValueError):  # CalibrationError included
            rows.append((j_ghz, math.nan, math.nan, math.nan))
            failures.append(f"dqdsim: error: J = {_fmt(j_ghz)} GHz: {rec}")
        else:
            raise rec
    header = _provenance(args.subcommand, args, base, mode, imp, (
        f"points = {args.points}",
        f"j_max_ghz = {_fmt(args.j_max)}",
    ))
    _emit(args.out, header, ChiRecord.CSV_FIELDS, [list(zip(*rows))])
    return _report(failures)


def cmd_qfactor(args) -> int:
    """Oscillation quality factor versus J for three noise models:
    the calibrated tilt scheme, the calibrated barrier scheme, and a
    constant relative-noise model frozen at the tilt value at 0.242 GHz."""
    base, imp, mode = _resolve(args, default_impurity_wanted=True)
    j_values = _parse_range(args.j_range)
    ref_j = 0.242  # GHz (1 ueV)
    # One stacked solve calibrates the reference and both schemes at every J
    # and takes the noise record of each.
    controls, (records,) = _calibrated([("tilt", ref_j)] + [
        (scheme, j_ghz) for j_ghz in j_values for scheme in ("tilt", "barrier")],
        base, mode, [imp])
    # The first failure is reported in the order of the steps: the
    # reference, then at each J both calibrations before both records.
    (ref,) = unwrap(records[:1])
    rel_ref = abs(ref.rel_noise)
    rows = []
    for k, j_ghz in enumerate(j_values):
        t, b = 1 + 2 * k, 2 + 2 * k
        rec_t, rec_b = unwrap([controls[t], controls[b], records[t], records[b]])[2:]
        rows.append((
            j_ghz,
            quality_factor(j_ghz, QualityModel(abs(rec_t.rel_noise))),
            quality_factor(j_ghz, QualityModel(abs(rec_b.rel_noise))),
            quality_factor(j_ghz, QualityModel(rel_ref)),
        ))
    header = _provenance("qfactor", args, base, mode, imp, (
        f"j_range_ghz = {args.j_range}",
        f"const_model_ref_ghz = {_fmt(ref_j)}",
    ))
    _emit(args.out, header, ("J_ghz", "Q_tilt", "Q_barrier", "Q_constmodel"), [list(zip(*rows))])
    return 0


_SCAN_DIRECTIONS = {
    "x": (-1.0, 0.0),
    "y": (0.0, 1.0),
    "xy": (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}


def _positive_finite(flag: str, values: list[float]) -> None:
    for v in values:
        if not 0 < v < math.inf:
            raise ValueError(f"{flag} must be positive and finite, got {_fmt(v)}")


def cmd_impurity_scan(args) -> int:
    """Relative noise of both schemes versus impurity distance, for an
    impurity moved outward along three directions at matched clean J.

    Both calibrations and every impurity's records come from _calibrated:
    one stack, and a second where a calibration settles on a bracket end.
    A failed calibration (tilt first) fails the command; a row whose record
    fails is NaN, and its error names the impurity."""
    base, _imp, mode = _resolve(args)
    try:
        radii = ([float(r) for r in args.radii.split(",")] if args.radii
                 else [1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0])
    except ValueError:
        raise ValueError(f"--radii expects comma-separated numbers, got {args.radii!r}") from None
    _positive_finite("--J-mhz", [args.J_mhz])
    _positive_finite("--radii", radii)
    j_target_ghz = args.J_mhz / 1e3
    q = args.charge_e if args.charge_e is not None else -1.0
    impurities = [(name, r_over_a, Impurity(r_over_a * base.a * ux, r_over_a * base.a * uy, q))
                  for name, (ux, uy) in _SCAN_DIRECTIONS.items() for r_over_a in radii]
    controls, records = _calibrated([("tilt", j_target_ghz), ("barrier", j_target_ghz)],
                                    base, mode, [imp for _, _, imp in impurities])
    eps_star, xi_star = unwrap(controls)
    rows, failures = [], []
    for (name, r_over_a, _), recs in zip(impurities, records):
        failed = [rec for rec in recs if not isinstance(rec, NoiseRecord)]
        if failed:
            rows.append((name, r_over_a, math.nan, math.nan))
            failures.append(f"dqdsim: error at impurity direction {name}, Rc_over_a "
                            f"{_fmt(r_over_a)}: {type(failed[0]).__name__}: {failed[0]}")
        else:
            rows.append((name, r_over_a, recs[0].rel_noise, recs[1].rel_noise))
    header = _provenance("impurity-scan", args, base, mode, None, (
        f"J_target_mhz = {_fmt(args.J_mhz)}",
        f"charge_e = {_fmt(q)}",
        f"radii_over_a = {','.join(_fmt(r) for r in radii)}",
        f"eps_star_mev = {_fmt(eps_star)}",
        f"xi_star_mev = {_fmt(xi_star)}",
    ))
    _emit(args.out, header, ("direction", "Rc_over_a", "rel_tilt", "rel_barrier"),
          [list(zip(*rows))])
    return _report(failures)


def cmd_potential_profile(args) -> int:
    """Confinement potential along a horizontal cut (default y = 0,
    x in [-3a, 3a])."""
    base, _imp, _mode = _resolve(args)
    if not math.isfinite(args.y_nm):
        raise ValueError(f"--y-nm must be finite, got {_fmt(args.y_nm)}")
    x_spec = args.x_range or f"{_fmt(-3 * base.a)}:{_fmt(3 * base.a)}:{_fmt(base.a / 50)}"
    xs = _parse_range(x_spec)
    y = args.y_nm
    values = eval_potential(np.asarray(xs), y, base)
    header = _provenance("potential-profile", args, base, None, None, (
        f"x_range_nm = {x_spec}",
        f"y_nm = {_fmt(y)}",
    ))
    _emit(args.out, header, ("x_nm", "y_nm", "V_meV"), [(xs, [y] * len(xs), values)])
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    """Run the built-in cross-check suite; exit 1 if any check fails."""
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
    p.set_defaults(func=cmd_exchange_tilt)


def _spectrum_flags(p: argparse.ArgumentParser) -> None:
    _exchange_tilt_flags(p)  # and a barrier grid
    p.add_argument("--xi-range", metavar="LO:HI:STEP",
                   help="barrier amplitudes [meV] (default: 1.3 and 1.0)")
    p.set_defaults(func=cmd_spectrum)


def _exchange_barrier_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--xi-range", metavar="LO:HI:STEP", help="barrier grid [meV]")
    p.set_defaults(func=cmd_exchange_barrier)


def _matched_j_flags(p: argparse.ArgumentParser) -> None:
    """A subcommand run by cmd_noise_compare."""
    _add_common(p)
    p.add_argument("--points", type=int, default=25, help="matched-J grid size")
    p.add_argument("--j-max", type=float, default=1.0, metavar="GHZ",
                   help="upper end of the matched-J grid")
    p.set_defaults(func=cmd_noise_compare)


def _qfactor_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--j-range", default="0.15:0.9:0.05", metavar="LO:HI:STEP",
                   help="J grid [GHz]")
    p.set_defaults(func=cmd_qfactor)


def _impurity_scan_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, impurity=False)
    p.add_argument("--charge-e", type=float, default=None, metavar="Q",
                   help="charge of each scanned impurity in units of e (default: -1)")
    p.add_argument("--J-mhz", type=float, default=242.0, metavar="MHZ",
                   help="clean J both schemes are calibrated to")
    p.add_argument("--radii", metavar="R1,R2,...",
                   help="impurity distances in units of a")
    p.set_defaults(func=cmd_impurity_scan)


def _potential_profile_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, impurity=False, mode=False)
    p.add_argument("--x-range", metavar="LO:HI:STEP", help="x grid [nm]")
    p.add_argument("--y-nm", type=float, default=0.0, help="cut height [nm]")
    p.set_defaults(func=cmd_potential_profile)


def _validate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized self-checks")
    p.add_argument("--quick", action="store_true",
                   help="reduced sampling (finishes in a few seconds)")
    p.add_argument("--corrupt-bessel", action="store_true",
                   help="negative control: corrupt the Bessel routine and "
                        "confirm the element cross-check fails")
    p.set_defaults(func=cmd_validate)


# Each subcommand's help line and the function that adds its flags, in the
# order of the help listing.
_SUBCOMMANDS = {
    "spectrum": ("lowest singlet/triplet levels vs detuning", _spectrum_flags),
    "exchange-tilt": ("J and impurity noise vs detuning", _exchange_tilt_flags),
    "exchange-barrier": ("J and impurity noise vs barrier amplitude", _exchange_barrier_flags),
    "noise-compare": ("tilt vs barrier noise at matched J, with chi", _matched_j_flags),
    "qfactor": ("oscillation quality factor vs J", _qfactor_flags),
    "impurity-scan": ("noise vs impurity distance along three directions",
                      _impurity_scan_flags),
    "near-impurity": ("matched-J comparison for a weak nearby charge", _matched_j_flags),
    "potential-profile": ("confinement potential along a horizontal cut",
                          _potential_profile_flags),
    "validate": ("run the built-in cross-check suite", _validate_flags),
}


def _parser(names) -> argparse.ArgumentParser:
    """The parser with the subparsers of the named subcommands.  Its usage
    line, which an unrecognized-arguments error prints, lists every
    subcommand either way (the full parser lists them by itself; a metavar
    on it would rename the argument in its own error messages), so
    _parser([]) words that error as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description="Exchange interaction and charge-noise simulator for a "
                    "two-electron double quantum dot.")
    parser.add_argument("--version", action="version",
                        version=f"dqdsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in names:
        help_text, add_flags = _SUBCOMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    if len(names) < len(_SUBCOMMANDS):
        sub.metavar = "{" + ",".join(_SUBCOMMANDS) + "}"
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(list(_SUBCOMMANDS))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        # Only the invoked subcommand's parser is built, as the full parser
        # builds it; -h, --version and an unknown command need the full one.
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"dqdsim {name}")
        _SUBCOMMANDS[name][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            _parser([]).error("unrecognized arguments: " + " ".join(extras))
        args.subcommand = name
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from .quadrature import OracleRefusal  # only validate runs the oracle
        if not isinstance(exc, (CalibrationError, OracleRefusal, ValueError, OSError)):
            raise
        print(f"dqdsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
