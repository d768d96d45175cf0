"""The self-check suite: closed-form elements against the quadrature
oracle on sampled devices, shared by `dqdsim validate` and the acceptance
tests, and `validate`, which runs it with the model's identities and
trends.  (`quadrature` itself never imports `integrals`, which keeps the
oracle independent.)  The CLI imports this module, and with it the
oracle, only when `validate` runs."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import integrals
from .hamiltonian import (T0_VECTOR, HubbardParams, _device, _model, _unstack, assemble_matrix,
                          hubbard_exchange_estimate, hubbard_parameters, solve)
from .integrals import (coulomb_element, i0e, impurity_element, kinetic_element,
                        potential_element)
from .model import (HBAR2_OVER_2ME, MEV_TO_GHZ, DeviceParams, Impurity, control_point,
                    derive_constants, validate_params)
from .noise import (CalibrationError, QualityModel, calibrate_many, default_impurity,
                    envelope_closed, envelope_numeric, improvement_factors, matched_j_grid,
                    quality_factor, sweet_spot_check)
from .orbitals import build_basis, overlap_matrix
from .potential import constraint_report
from .quadrature import OracleRefusal, quadrature_oracle

# One representative element of every closed-form family.
ELEMENT_KINDS = (
    ("kinetic", (0, 0)), ("kinetic", (0, 1)),
    ("potential", (0, 0)), ("potential", (0, 1)), ("potential", (1, 1)),
    ("coulomb", (0, 0, 0, 0)), ("coulomb", (0, 1, 0, 1)),
    ("coulomb", (0, 1, 1, 0)), ("coulomb", (1, 0, 0, 0)),
    ("impurity", (0, 0)), ("impurity", (0, 1)), ("impurity", (1, 1)),
)

CLOSED_FORMS = {
    "kinetic": kinetic_element,
    "potential": potential_element,
    "coulomb": coulomb_element,
    "impurity": impurity_element,
}


def sample_device(rng: np.random.Generator) -> DeviceParams:
    """Random device on the supported grid: a/a_B in [0.5, 3],
    eps in [0, 1] meV, xi in [0, 1.5] meV (a fixed at 100 nm)."""
    a_B = 100.0 / rng.uniform(0.5, 3.0)
    kin = HBAR2_OVER_2ME / 0.067
    return DeviceParams(a=100.0, hbar_omega0=2.0 * kin / a_B**2,
                        epsilon=float(rng.uniform(0.0, 1.0)),
                        xi=float(rng.uniform(0.0, 1.5)))


def sample_impurity(rng: np.random.Generator, a: float) -> Impurity:
    """Charge -e at a uniform distance in [1.5a, 20a] and a uniform angle."""
    radius = float(rng.uniform(1.5, 20.0)) * a
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return Impurity(radius * math.cos(angle), radius * math.sin(angle), -1.0)


def fresh_model(point: DeviceParams, imp: Impurity | None = None,
                shift: float = 0.0) -> HubbardParams:
    """The model at one point from an uncached build of its device, the
    kinetic table raised by shift times the overlap matrix (a gauge shift):
    what hubbard_parameters gives, at shift = 0, from its cached build."""
    device = dataclasses.replace(point, epsilon=0.0, xi=0.0)
    M, kinetic, *rest = _device.__wrapped__(device)
    kinetic = kinetic + shift * overlap_matrix(build_basis(device))
    tables = () if imp is None else integrals.impurity_table([imp], device)
    (hp,) = _unstack(_model((M, kinetic, *rest), np.array([point.epsilon]),
                            np.array([point.xi]), np.array([0 if imp is None else 1]), tables))
    return hp


def oracle_comparisons(rng: np.random.Generator, n_sets: int):
    """For n_sets sampled devices, each with a sampled impurity, yield
    (params, kind, idx, closed, oracle, rel) for every entry of
    ELEMENT_KINDS, where rel = |closed - oracle| / max(|oracle|, 1e-9)."""
    for _ in range(n_sets):
        params = sample_device(rng)
        imp = sample_impurity(rng, params.a)
        for kind, idx in ELEMENT_KINDS:
            extra = (imp,) if kind == "impurity" else ()
            closed = CLOSED_FORMS[kind](*idx, *extra, params)
            oracle = quadrature_oracle((kind, *idx, *extra), params).value
            yield params, kind, idx, closed, oracle, abs(closed - oracle) / max(abs(oracle), 1e-9)


def _worst_element(rng: np.random.Generator, n_sets: int) -> tuple[float, str]:
    """The worst relative disagreement between closed forms and quadrature
    over oracle_comparisons, and the element and device it is at."""
    params, kind, idx, _closed, _oracle, rel = max(oracle_comparisons(rng, n_sets),
                                                   key=lambda c: c[-1])
    a_over_aB = params.a / derive_constants(params).fock_darwin_radius
    return rel, f"{kind}{idx} at a/a_B = {a_over_aB:.12g}"


def validate(seed: int = 0, quick: bool = False, corrupt_bessel: bool = False) -> int:
    """Run the built-in cross-check suite of `dqdsim validate`, printing one
    PASS or FAIL line per check and a summary; 1 if any check fails, else 0.
    quick samples fewer points; corrupt_bessel runs only the negative
    control, the element cross-check with i0e scaled by 1.001, which must
    fail."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    if corrupt_bessel:
        # Negative control: scale the Bessel routine used by the closed-form
        # Coulomb/impurity elements and confirm the quadrature cross-check
        # actually catches it.
        real_i0e = integrals.i0e
        integrals.i0e = lambda x: real_i0e(x) * 1.001
        print("# negative control: i0e scaled by 1.001; the element "
              "cross-check below must FAIL")
        try:
            worst, label = _worst_element(rng, 2)
        finally:
            integrals.i0e = real_i0e
        add("elements-vs-quadrature", worst <= 1e-6,
            f"worst rel diff {worst:.12g} ({label})")
    else:
        # 1. derived constants at the default device
        c = derive_constants(DeviceParams())
        add("derived-constants",
            abs(c.fock_darwin_radius - 106.64464635890039) < 1e-9
            and abs(c.barrier_height - 0.007327243715762088) < 1e-15
            and abs(c.coulomb_scale - 109.92091603053434) < 1e-9,
            f"a_B = {c.fock_darwin_radius:.12g} nm, C = {c.barrier_height:.12g} meV")

        # 2. potential junction constraints on random controls
        n_pot = 5 if quick else 20
        worst_pot = 0.0
        for _ in range(n_pot):
            p = DeviceParams(epsilon=float(rng.uniform(0.0, 1.0)), xi=float(rng.uniform(0.0, 1.5)))
            worst_pot = max(worst_pot,
                            max(abs(row[3]) for row in constraint_report(p)))
        add("potential-constraints", worst_pot <= 1e-12,
            f"worst junction residual {worst_pot:.12g} over {n_pot} control points")

        add("barrier-existence", validate_params(DeviceParams()).ok,
            "default device keeps a barrier top at the origin")

        # 3. orthonormalized basis
        worst_orth = 0.0
        for _ in range(4):
            basis = build_basis(sample_device(rng))
            g = basis.M @ overlap_matrix(basis) @ basis.M
            worst_orth = max(worst_orth, float(np.max(np.abs(g - np.eye(2)))))
        add("orthonormalization", worst_orth <= 1e-12,
            f"max |M S M - 1| = {worst_orth:.12g}")

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
            f"|d(1)| = {d1:.12g}, |d(700)| = {d700:.12g}, "
            f"integral-identity defect {worst_id:.12g}")

        # 5. closed-form elements vs independent quadrature
        n_sets = 2 if quick else 12
        try:
            worst, label = _worst_element(rng, n_sets)
            add("elements-vs-quadrature", worst <= 1e-6,
                f"worst rel diff {worst:.12g} over {n_sets} devices ({label})")
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
        # Each level lambda makes H - lambda I singular: its least singular value.
        resid = float(np.linalg.svd(H - res.eigenvalues[:, None, None] * np.eye(4),
                                    compute_uv=False)[:, -1].max()) / scale
        d_mirror = abs(res.J - mirrored.J) / res.J
        add("spectral-identities",
            d_t0 <= 1e-12 and resid <= 1e-10 and d_mirror <= 1e-10,
            f"T0 defect {d_t0:.12g}, eigenresidual {resid:.12g}, "
            f"mirror defect {d_mirror:.12g}")

        # a gauge shift of the confinement energy moves only the common level
        shift = 3.7
        ref = fresh_model(params, imp)._asdict()
        moved = fresh_model(params, imp, shift)._asdict()
        d_offset = abs(moved.pop("offset") - ref.pop("offset") - shift)
        d_rest = max(abs(moved[k] - ref[k]) for k in ref)
        add("gauge-invariance", d_offset <= 1e-12 and d_rest <= 1e-12,
            f"offset off the {shift} meV shift by {d_offset:.12g} meV, "
            f"other fields moved by {d_rest:.12g} meV")

        # 7. monotonic trends
        base = DeviceParams()
        eps_grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        xi_grid = [0.5, 0.7, 0.9, 1.1, 1.3]
        j_eps = [solve(control_point("tilt", base, e)).J for e in eps_grid]
        j_xi = [solve(control_point("barrier", base, x)).J for x in xi_grid]
        add("exchange-monotonic",
            all(b > a for a, b in zip(j_eps, j_eps[1:]))
            and all(b < a for a, b in zip(j_xi, j_xi[1:])),
            "J increasing in detuning, decreasing in barrier amplitude")

        imp0 = default_impurity(base)
        n_match = 4 if quick else 8
        grid = matched_j_grid(base, n=n_match, j_max_ghz=1.0)
        try:
            recs = improvement_factors([float(j) for j in grid], imp0, base)
            rel_t = [abs(r.rel_tilt) for r in recs]
            rel_b = [abs(r.rel_barrier) for r in recs]
            chi = [r.chi for r in recs]
            add("matched-noise-trends",
                all(b > a for a, b in zip(rel_t, rel_t[1:]))
                and all(b < a for a, b in zip(rel_b, rel_b[1:]))
                and all(b > a for a, b in zip(chi, chi[1:]))
                and abs(chi[0] - 1.0) <= 1e-6,
                f"chi spans {chi[0]:.12g} .. {chi[-1]:.12g} over "
                f"J in [{float(grid[0]):.12g}, {float(grid[-1]):.12g}] GHz")
        except CalibrationError as exc:
            add("matched-noise-trends", False, str(exc))

        # 8. detuning sweet spot at zero tilt
        slope, err = sweet_spot_check(base)
        add("sweet-spot", abs(slope) <= max(1e-8, 10.0 * err),
            f"dJ/deps = {slope:.12g} GHz/meV (err est {err:.12g})")

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
            f"envelope defect {worst_env:.12g}; "
            f"Q flat for relative noise, linear for a constant floor")

        # 10. calibration round trips
        targets = (0.242,) if quick else (0.15, 0.242, 0.5)
        requests = [(scheme, tgt) for tgt in targets for scheme in ("tilt", "barrier")]
        try:
            controls = calibrate_many(requests, base)
            achieved = [solve(control_point(scheme, base, c)).J
                        for (scheme, _), c in zip(requests, controls)]
            worst_cal = max(abs(j * MEV_TO_GHZ - tgt) / tgt
                            for (_, tgt), j in zip(requests, achieved))
            add("calibration", worst_cal <= 1e-6,
                f"worst |J(c*) - target|/target = {worst_cal:.12g}")
        except CalibrationError as exc:
            add("calibration", False, str(exc))

        # 11. perturbative exchange estimate near zero detuning
        est = hubbard_exchange_estimate(hubbard_parameters(DeviceParams()))
        exact = solve(DeviceParams()).J
        add("hubbard-estimate", abs(est / exact - 1.0) <= 0.05,
            f"2t^2 estimate off by {abs(est / exact - 1.0):.12g} relative")

    failed = sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"validate{' (quick)' if quick else ''}: {len(checks) - failed} passed, "
          f"{failed} failed, {len(checks)} total")
    return 1 if failed else 0
