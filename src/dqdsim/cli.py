"""Command-line interface.

Subcommands reproduce the package's standard experiments -- two-electron
spectra, exchange-vs-control curves, impurity noise sweeps for the tilt and
barrier schemes, quality factors, and impurity-position scans -- and emit
deterministic CSV (stable column order, ``%.12g`` floats, provenance in
``#`` comment lines, no timestamps), so reruns with equal inputs are
byte-identical.  ``dqdsim validate`` runs the built-in cross-check suite.

Exit codes: 0 on success, 1 when ``validate`` finds a failing check, 2 on
bad arguments or any per-point fatal error during a sweep.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import sys

import numpy as np

from . import __version__
from . import integrals as integrals_module
from .hamiltonian import (
    AssemblyMode,
    T0_VECTOR,
    assemble_matrix,
    exchange_J,
    hubbard_exchange_estimate,
    hubbard_from_tables,
    hubbard_parameters,
    solve,
    solve_stack,
    unwrap,
)
from .integrals import build_tables, i0e
from .model import (
    MEV_TO_GHZ,
    DeviceParams,
    Impurity,
    config_to_objects,
    control_point,
    derive_constants,
    read_config,
    validate_params,
)
from .noise import (
    CalibrationError,
    ChiRecord,
    NoiseRecord,
    QualityModel,
    _calibrated,
    calibrate_many,
    default_impurity,
    envelope_closed,
    envelope_numeric,
    improvement_factors,
    matched_j_grid,
    quality_factor,
    sweep,
    sweet_spot_check,
)
from .orbitals import build_basis, overlap_matrix
from .potential import constraint_report, eval_potential

# ---------------------------------------------------------------------------
# formatting / output helpers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    """Stable scalar formatting: floats as %.12g (nan, inf, -inf included),
    everything else via str."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


@functools.cache
def _row_format(types: tuple) -> tuple[str, tuple[int, ...]]:
    """The '%' template of a data row whose cells have these types, %.12g
    for a float and %s for anything else (as _fmt writes them), and the
    positions of the cells that are not floats."""
    floats = [issubclass(t, float) for t in types]
    return (",".join("%.12g" if f else "%s" for f in floats) + "\n",
            tuple(i for i, f in enumerate(floats) if not f))


_QUOTED = frozenset(',"\r\n')  # a text cell with one of these goes through csv


def _emit(path: str | None, header_lines: list[str], fieldnames, rows) -> None:
    """Write provenance comments, a header row, and data rows as CSV.

    A data row is written with one '%' template per row of cell types, the
    bytes csv.writer makes of its _fmt cells; a row whose text csv.writer
    would quote goes through csv.writer."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        if isinstance(row, str):          # interior comment line
            buf.write(f"# {row}\n")
            continue
        row = tuple(row)
        template, text_cells = _row_format(tuple(map(type, row)))
        if text_cells:
            texts = [str(row[i]) for i in text_cells]
            if (len(row) == 1 and texts == [""]) or not _QUOTED.isdisjoint("".join(texts)):
                writer.writerow([_fmt(v) for v in row])
                continue
        buf.write(template % row)
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
    lines += [
        f"device.a_nm = {_fmt(base.a)}",
        f"device.hbar_omega0_mev = {_fmt(base.hbar_omega0)}",
        f"device.m_eff = {_fmt(base.m_eff)}",
        f"device.eps_r = {_fmt(base.eps_r)}",
        f"control.epsilon_mev = {_fmt(base.epsilon)}",
        f"control.xi_mev = {_fmt(base.xi)}",
    ]
    if imp is not None:
        lines += [
            f"impurity.x_nm = {_fmt(imp.x_c)}",
            f"impurity.y_nm = {_fmt(imp.y_c)}",
            f"impurity.charge_e = {_fmt(imp.q)}",
        ]
    lines.append(f"seed = {args.seed}")
    lines.extend(extra)
    return lines


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
        ignored = sorted(key for key in cfg if key.startswith("impurity."))
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


def _sweep_rows(scheme: str, values: list[float], base: DeviceParams, imp: Impurity,
                mode: AssemblyMode, failures: list[str]) -> list[tuple]:
    """The CSV row of each control value of a sweep: its NoiseRecord, or
    NaN where the value failed, whose message is appended to failures."""
    rows = []
    for value, rec in zip(values, sweep(scheme, values, base, imp, mode)):
        if isinstance(rec, NoiseRecord):
            rows.append(rec)
        else:
            rows.append((scheme, value) + (math.nan,) * 4)
            failures.append(f"dqdsim: error at {scheme} control {_fmt(value)} meV: "
                            f"{type(rec).__name__}: {rec}")
    return rows


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
    grid = [(eps, xi) for xi in xi_values for eps in eps_values]
    epsilon, xi = np.array(grid).T
    imp_rows, imps = (None, []) if imp is None else (np.ones(len(grid), int), [imp])
    failed, _, evals, _, J = solve_stack(base, epsilon, xi, imp_rows, imps, mode)
    if failed:
        raise failed[min(failed)]
    rows = [(eps, xi, e0, e1, j, j * MEV_TO_GHZ)
            for (eps, xi), (e0, e1), j in zip(grid, evals[:, :2].tolist(), J.tolist())]
    header = _provenance("spectrum", args, base, mode, imp, (
        f"eps_range = {args.eps_range}",
        f"xi_values = {','.join(_fmt(x) for x in xi_values)}",
    ))
    _emit(args.out, header,
          ("epsilon_mev", "xi_mev", "E0_mev", "E1_mev", "J_mev", "J_ghz"), rows)
    return 0


def cmd_exchange_tilt(args) -> int:
    """J and impurity-induced dJ versus detuning at fixed barrier."""
    base, imp, mode = _resolve(args, default_impurity_wanted=True)
    eps_values = _parse_range(args.eps_range)
    failures: list[str] = []
    rows = _sweep_rows("tilt", eps_values, base, imp, mode, failures)
    header = _provenance("exchange-tilt", args, base, mode, imp, (
        f"eps_range = {args.eps_range}",
    ))
    _emit(args.out, header, NoiseRecord.CSV_FIELDS, rows)
    return _report(failures)


def cmd_exchange_barrier(args) -> int:
    """J and impurity-induced dJ versus barrier amplitude at zero detuning.

    With the default range a finer zoom block over the low-barrier end is
    appended after an interior comment line.
    """
    base, imp, mode = _resolve(args, default_impurity_wanted=True)
    main_spec = args.xi_range or "0.5:1.3:0.01"
    zoom_spec = "0.5:0.6:0.002"
    values = _parse_range(main_spec)
    n_main = len(values)
    if not args.xi_range:
        values += _parse_range(zoom_spec)
    failures: list[str] = []
    rows: list = _sweep_rows("barrier", values, base, imp, mode, failures)
    if not args.xi_range:
        rows.insert(n_main, f"zoom xi_range = {zoom_spec}")
    header = _provenance("exchange-barrier", args, base, mode, imp, (
        f"xi_range = {main_spec}",
    ))
    _emit(args.out, header, NoiseRecord.CSV_FIELDS, rows)
    return _report(failures)


def cmd_noise_compare(args) -> int:
    """Relative noise of both schemes, and their ratio chi, at matched J.

    ``near-impurity`` runs the same comparison; without an impurity it
    places a weak charge close to the dots: q = -0.01 e at (-1.5 a, 0.5 a)."""
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
    _emit(args.out, header, ChiRecord.CSV_FIELDS, rows)
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
    _emit(args.out, header, ("J_ghz", "Q_tilt", "Q_barrier", "Q_constmodel"), rows)
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
    _emit(args.out, header, ("direction", "Rc_over_a", "rel_tilt", "rel_barrier"), rows)
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
    rows = [(x, y, float(v)) for x, v in zip(xs, values)]
    header = _provenance("potential-profile", args, base, None, None, (
        f"x_range_nm = {x_spec}",
        f"y_nm = {_fmt(y)}",
    ))
    _emit(args.out, header, ("x_nm", "y_nm", "V_meV"), rows)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check_elements_vs_oracle(rng: np.random.Generator, n_sets: int):
    """Worst relative disagreement between closed forms and quadrature."""
    from .crosscheck import oracle_comparisons

    params, kind, idx, _closed, _oracle, rel = max(oracle_comparisons(rng, n_sets),
                                                   key=lambda c: c[-1])
    a_over_aB = params.a / derive_constants(params).fock_darwin_radius
    return rel, f"{kind}{idx} at a/a_B = {_fmt(a_over_aB)}"


def cmd_validate(args) -> int:
    """Run the built-in cross-check suite; exit 1 if any check fails."""
    # Only validate needs the oracle's modules, which are slow to import.
    from .crosscheck import sample_device
    from .quadrature import OracleRefusal

    quick = args.quick
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    if args.corrupt_bessel:
        # Negative control: scale the Bessel routine used by the closed-form
        # Coulomb/impurity elements and confirm the quadrature cross-check
        # actually catches it.
        real_i0e = integrals_module.i0e
        integrals_module.i0e = lambda x: real_i0e(x) * 1.001
        print("# negative control: i0e scaled by 1.001; the element "
              "cross-check below must FAIL")
        try:
            worst, label = _check_elements_vs_oracle(rng, 2)
        finally:
            integrals_module.i0e = real_i0e
        add("elements-vs-quadrature", worst <= 1e-6,
            f"worst rel diff {_fmt(worst)} ({label})")
    else:
        # 1. derived constants at the default device
        c = derive_constants(DeviceParams())
        add("derived-constants",
            abs(c.fock_darwin_radius - 106.64464635890039) < 1e-9
            and abs(c.barrier_height - 0.007327243715762088) < 1e-15
            and abs(c.coulomb_scale - 109.92091603053434) < 1e-9,
            f"a_B = {_fmt(c.fock_darwin_radius)} nm, C = {_fmt(c.barrier_height)} meV")

        # 2. potential junction constraints on random controls
        n_pot = 5 if quick else 20
        worst_pot = 0.0
        for _ in range(n_pot):
            p = dataclasses.replace(DeviceParams(),
                                    epsilon=float(rng.uniform(0.0, 1.0)),
                                    xi=float(rng.uniform(0.0, 1.5)))
            worst_pot = max(worst_pot,
                            max(abs(row[3]) for row in constraint_report(p)))
        add("potential-constraints", worst_pot <= 1e-12,
            f"worst junction residual {_fmt(worst_pot)} over {n_pot} control points")

        report = validate_params(DeviceParams())
        add("barrier-existence", report.ok,
            "default device keeps a barrier top at the origin")

        # 3. orthonormalized basis
        worst_orth = 0.0
        for _ in range(4):
            basis = build_basis(sample_device(rng))
            g = basis.M @ overlap_matrix(basis) @ basis.M
            worst_orth = max(worst_orth, float(np.max(np.abs(g - np.eye(2)))))
        add("orthonormalization", worst_orth <= 1e-12,
            f"max |M S M - 1| = {_fmt(worst_orth)}")

        # 4. scaled Bessel routine: frozen references plus the integral
        # identity i0e(x) = (1/pi) int_0^pi exp(x (cos th - 1)) dth,
        # evaluated by midpoint rule (spectrally accurate for this
        # periodic, even integrand) on both sides of the branch switch.
        d1 = abs(float(i0e(1.0)) - 0.4657596075936404)
        d700 = abs(float(i0e(700.0)) - 0.015081295651531358)
        theta = (np.arange(4096) + 0.5) * (math.pi / 4096)
        worst_id = max(
            abs(float(np.mean(np.exp(x * (np.cos(theta) - 1.0)))) / float(i0e(x)) - 1.0)
            for x in (0.5, 5.0, 19.9, 20.1, 50.0, 700.0))
        add("bessel-i0e", d1 < 1e-14 and d700 < 1e-14 and worst_id < 5e-13,
            f"|d(1)| = {_fmt(d1)}, |d(700)| = {_fmt(d700)}, "
            f"integral-identity defect {_fmt(worst_id)}")

        # 5. closed-form elements vs independent quadrature
        n_sets = 2 if quick else 12
        try:
            worst, label = _check_elements_vs_oracle(rng, n_sets)
            add("elements-vs-quadrature", worst <= 1e-6,
                f"worst rel diff {_fmt(worst)} over {n_sets} devices ({label})")
        except OracleRefusal as exc:
            add("elements-vs-quadrature", False, f"oracle refused: {exc}")

        # 6. spectral identities at a detuned, impurity-perturbed point
        params = DeviceParams(epsilon=0.37, xi=1.1)
        imp = default_impurity(params)
        res = solve(params, imp)
        mirrored = solve(dataclasses.replace(params, epsilon=-params.epsilon),
                         Impurity(-imp.x_c, imp.y_c, imp.q))
        H = assemble_matrix(hubbard_parameters(params, imp))
        scale = float(np.max(np.abs(H)))
        d_t0 = float(np.max(np.abs(H @ T0_VECTOR - res.t0_energy * T0_VECTOR))) / scale
        resid = float(np.max(np.abs(H @ res.eigenvectors
                                    - res.eigenvectors * res.eigenvalues))) / scale
        d_mirror = abs(res.J - mirrored.J) / res.J
        add("spectral-identities",
            d_t0 <= 1e-12 and resid <= 1e-10 and d_mirror <= 1e-10,
            f"T0 defect {_fmt(d_t0)}, eigenresidual {_fmt(resid)}, "
            f"mirror defect {_fmt(d_mirror)}")

        # a gauge shift of the confinement energy moves only the common level
        basis = build_basis(params)
        tables = build_tables(dataclasses.replace(params, epsilon=0.0), imp=imp)
        shift = 3.7
        shifted = dataclasses.replace(
            tables, confinement=tables.confinement + shift * overlap_matrix(basis))
        ref = dataclasses.asdict(hubbard_from_tables(params, basis, tables))
        moved = dataclasses.asdict(hubbard_from_tables(params, basis, shifted))
        d_offset = abs(moved.pop("offset") - ref.pop("offset") - shift)
        d_rest = max(abs(moved[k] - ref[k]) for k in ref)
        add("gauge-invariance", d_offset <= 1e-12 and d_rest <= 1e-12,
            f"offset off the {shift} meV shift by {_fmt(d_offset)} meV, "
            f"other fields moved by {_fmt(d_rest)} meV")

        # 7. monotonic trends
        base = DeviceParams()
        eps_grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        xi_grid = [0.5, 0.7, 0.9, 1.1, 1.3]
        j_eps = [exchange_J(control_point("tilt", base, e)) for e in eps_grid]
        j_xi = [exchange_J(control_point("barrier", base, x)) for x in xi_grid]
        add("exchange-monotonic",
            all(b > a for a, b in zip(j_eps, j_eps[1:]))
            and all(b < a for a, b in zip(j_xi, j_xi[1:])),
            "J increasing in detuning, decreasing in barrier amplitude")

        imp0 = default_impurity(base)
        n_match = 4 if quick else 8
        grid = matched_j_grid(base, n=n_match, j_max_ghz=1.0)
        try:
            recs = unwrap(improvement_factors([float(j) for j in grid], imp0, base))
            rel_t = [abs(r.rel_tilt) for r in recs]
            rel_b = [abs(r.rel_barrier) for r in recs]
            chi = [r.chi for r in recs]
            add("matched-noise-trends",
                all(b > a for a, b in zip(rel_t, rel_t[1:]))
                and all(b < a for a, b in zip(rel_b, rel_b[1:]))
                and all(b > a for a, b in zip(chi, chi[1:]))
                and abs(chi[0] - 1.0) <= 1e-6,
                f"chi spans {_fmt(chi[0])} .. {_fmt(chi[-1])} over "
                f"J in [{_fmt(float(grid[0]))}, {_fmt(float(grid[-1]))}] GHz")
        except CalibrationError as exc:
            add("matched-noise-trends", False, str(exc))

        # 8. detuning sweet spot at zero tilt
        slope, err = sweet_spot_check(base)
        add("sweet-spot", abs(slope) <= max(1e-8, 10.0 * err),
            f"dJ/deps = {_fmt(slope)} GHz/meV (err est {_fmt(err)})")

        # 9. dephasing model identities
        sig = 0.05 * 0.242
        worst_env = max(abs(envelope_closed(sig, t) - envelope_numeric(0.242, sig, t))
                        for t in (5.0, 20.0, 80.0))
        q_flat = [quality_factor(j, QualityModel(0.02)) for j in (0.15, 0.5, 0.9)]
        q_lin = [quality_factor(j, QualityModel(0.0, 0.003)) for j in (0.15, 0.9)]
        add("dephasing-model",
            worst_env <= 1e-9
            and max(q_flat) - min(q_flat) <= 1e-9 * q_flat[0]
            and abs(q_lin[1] / q_lin[0] - 0.9 / 0.15) <= 1e-12,
            f"envelope defect {_fmt(worst_env)}; "
            f"Q flat for relative noise, linear for a constant floor")

        # 10. calibration round trips
        targets = (0.242,) if quick else (0.15, 0.242, 0.5)
        requests = [(scheme, tgt) for tgt in targets for scheme in ("tilt", "barrier")]
        try:
            controls = unwrap(calibrate_many(requests, base))
            achieved = [exchange_J(control_point(scheme, base, c))
                        for (scheme, _), c in zip(requests, controls)]
            worst_cal = max(abs(j * MEV_TO_GHZ - tgt) / tgt
                            for (_, tgt), j in zip(requests, achieved))
            add("calibration", worst_cal <= 1e-6,
                f"worst |J(c*) - target|/target = {_fmt(worst_cal)}")
        except CalibrationError as exc:
            add("calibration", False, str(exc))

        # 11. perturbative exchange estimate near zero detuning
        hp = hubbard_parameters(DeviceParams())
        est = hubbard_exchange_estimate(hp)
        exact = exchange_J(DeviceParams())
        add("hubbard-estimate", abs(est / exact - 1.0) <= 0.05,
            f"2t^2 estimate off by {_fmt(abs(est / exact - 1.0))} relative")

    failed = sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    mode_note = " (quick)" if quick else ""
    print(f"validate{mode_note}: {len(checks) - failed} passed, "
          f"{failed} failed, {len(checks)} total")
    return 1 if failed else 0


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
