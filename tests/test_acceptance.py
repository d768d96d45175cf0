"""Acceptance gate: the shipped guarantees of the simulator, one test each.

Each test asserts a guarantee exactly as stated, at its stated tolerance
and runtime budget.  Failure messages carry the measured values.  Known
physics-driven failures (the charge-transfer anticrossing of this
material parameter set sits inside the swept windows) are documented in
the project decision log; the tests still assert the stated guarantee.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.optimize

from dqdsim import (
    AssemblyMode,
    DeviceParams,
    Impurity,
    QualityModel,
    T0_VECTOR,
    assemble_matrix,
    calibrate_barrier,
    calibrate_tilt,
    constraint_report,
    default_impurity,
    delta_J,
    envelope_numeric,
    exchange_J_ghz,
    hubbard_noise_estimate,
    hubbard_parameters,
    improvement_factor,
    matched_j_grid,
    quality_factor,
    solve,
    sweet_spot_check,
    validate_params,
)
from dqdsim.crosscheck import ELEMENT_KINDS, oracle_comparisons, sample_impurity

RNG_SEED = 20260819


def test_a01_closed_forms_match_quadrature_oracle():
    """Every closed-form element agrees with the independent quadrature
    oracle to <= 1e-6 relative on >= 50 randomized devices, in < 2 min."""
    start = time.monotonic()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    failures = []
    n_sets = 52
    comparisons = oracle_comparisons(rng, n_sets)
    for n, (_params, kind, idx, closed, oracle, rel) in enumerate(comparisons):
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append(
                f"set {n // len(ELEMENT_KINDS)} {kind}{idx}: closed={closed:.12g} "
                f"oracle={oracle:.12g} rel={rel:.3e}")
    elapsed = time.monotonic() - start
    assert not failures, (
        f"{len(failures)}/{n_sets * len(ELEMENT_KINDS)} elements off "
        f"(worst rel {worst:.3e}):\n" + "\n".join(failures[:10]))
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f} s (budget 120 s)"


def test_a02_potential_constraints_hold_everywhere():
    """All piecewise-junction constraints hold to <= 1e-12 relative on 20
    random control settings, and the barrier-existence bound is enforced."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(20):
        params = DeviceParams(epsilon=rng.uniform(0.0, 1.0),
                              xi=rng.uniform(0.0, 1.5))
        for name, _value, _expected, rel in constraint_report(params):
            worst = max(worst, abs(rel))
            assert abs(rel) <= 1e-12, (
                f"{name} off by {rel:.3e} at eps={params.epsilon:.4f}, "
                f"xi={params.xi:.4f}")
    # A too-weak barrier must be flagged, a sufficient one accepted.
    assert not validate_params(DeviceParams(epsilon=1.0, xi=0.3)).ok
    assert validate_params(DeviceParams(epsilon=1.0, xi=0.4)).ok


def test_a03_spectral_invariants():
    """The decoupled spin state is exact, eigen-residuals are at machine
    scale, and a clean device has detuning-symmetric exchange."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(8):
        params = DeviceParams(epsilon=rng.uniform(0.0, 1.0),
                              xi=rng.uniform(0.3, 1.5))
        imp = sample_impurity(rng, params.a)
        for mode in (AssemblyMode.PAPER, AssemblyMode.FULL):
            res = solve(params, imp, mode)
            H = assemble_matrix(hubbard_parameters(params, imp=imp), mode)
            h_norm = float(np.linalg.norm(H, 2))
            # the decoupled state is an eigenvector, its energy one of the levels
            assert float(np.max(np.abs(H @ T0_VECTOR - res.t0_energy * T0_VECTOR))) <= 1e-10
            assert float(np.min(np.abs(res.eigenvalues - res.t0_energy))) <= 1e-12 * h_norm
            # eigen-residuals against the assembled matrix: each level makes
            # H - lambda I singular, to its least singular value
            sigma_min = np.linalg.svd(H - res.eigenvalues[:, None, None] * np.eye(4),
                                      compute_uv=False)[:, -1]
            assert float(np.max(sigma_min)) <= 1e-12 * h_norm
    for xi in (0.6, 1.0, 1.3):
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            plus = solve(DeviceParams(epsilon=eps, xi=xi)).J
            minus = solve(DeviceParams(epsilon=-eps, xi=xi)).J
            assert abs(plus - minus) <= 1e-10 * abs(plus), (
                f"J({eps}) != J({-eps}) at xi={xi}: {plus!r} vs {minus!r}")


def test_a04_untilted_point_is_a_sweet_spot():
    """Clean-device |dJ/d eps| at eps = 0 is <= 1e-6 J per meV for
    barriers 0.6, 1.0, and 1.3 meV."""
    for xi in (0.6, 1.0, 1.3):
        slope, err = sweet_spot_check(DeviceParams(xi=xi))
        j0 = exchange_J_ghz(DeviceParams(epsilon=0.0, xi=xi))
        assert abs(slope) <= 1e-6 * j0, (
            f"xi={xi}: slope {slope:.3e} GHz/meV vs bound {1e-6 * j0:.3e}")
        assert err <= 1e-6 * j0


def test_a05_reference_noise_bands():
    """With the reference impurity (-6a, 6a, q=-1): tilt dJ/J within a
    factor of 3 of the 10-30% band for eps > 0.6 meV, and barrier dJ/J
    below 1% across xi in [0.5, 1.3].  Runtime < 1 min.

    Known physics-driven failure for this material parameter set: the
    charge-transfer anticrossing (delta_U = 0.78 meV) sits inside both
    swept windows and amplifies the response far beyond the bands.
    """
    start = time.monotonic()
    base = DeviceParams()
    imp = default_impurity(base)
    failures = []

    lo, hi = 0.10 / 3.0, 0.30 * 3.0
    for eps in np.arange(0.65, 1.0001, 0.05):
        rel = abs(delta_J("tilt", float(eps), base, imp).rel_noise)
        if not lo <= rel <= hi:
            failures.append(f"tilt eps={eps:.2f}: |dJ/J|={rel:.4f} "
                            f"outside [{lo:.4f}, {hi:.4f}]")

    for xi in np.arange(0.5, 1.3001, 0.1):
        rel = abs(delta_J("barrier", float(xi), base, imp).rel_noise)
        if rel >= 0.01:
            failures.append(f"barrier xi={xi:.2f}: |dJ/J|={rel:.4f} >= 0.01")

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"band sweep took {elapsed:.1f} s (budget 60 s)"
    assert not failures, "\n".join(failures)


def test_a06_matched_noise_trends():
    """On a matched-J grid from the common origin J0 up to 1 GHz:
    chi(J0) = 1 +/- 1e-6; chi nondecreasing; tilt relative noise strictly
    increasing and barrier relative noise strictly decreasing; chi
    reaches >= 10 somewhere in [0.1, 1] GHz.

    Known physics-driven failure for this material parameter set: the
    tilt response peaks at the charge-transfer anticrossing inside the
    window and then falls, so it is not strictly increasing out to 1 GHz.
    """
    base = DeviceParams()
    imp = default_impurity(base)
    grid = matched_j_grid(base, n=25, j_max_ghz=1.0)
    recs = [improvement_factor(float(j), imp) for j in grid]
    chi = [r.chi for r in recs]
    rt = [abs(r.rel_tilt) for r in recs]
    rb = [abs(r.rel_barrier) for r in recs]
    failures = []

    if abs(chi[0] - 1.0) > 1e-6:
        failures.append(f"chi at J0 = {chi[0]!r}, expected 1 +/- 1e-6")
    for i in range(len(grid) - 1):
        if chi[i + 1] < chi[i] * (1.0 - 1e-9):
            failures.append(
                f"chi decreases: J={grid[i]:.4f}->{grid[i+1]:.4f} GHz, "
                f"chi={chi[i]:.6f}->{chi[i+1]:.6f}")
        if rt[i + 1] <= rt[i]:
            failures.append(
                f"tilt |dJ/J| not strictly increasing: "
                f"J={grid[i]:.4f}->{grid[i+1]:.4f} GHz, "
                f"rel={rt[i]:.6f}->{rt[i+1]:.6f}")
        if rb[i + 1] >= rb[i]:
            failures.append(
                f"barrier |dJ/J| not strictly decreasing: "
                f"J={grid[i]:.4f}->{grid[i+1]:.4f} GHz, "
                f"rel={rb[i]:.6f}->{rb[i+1]:.6f}")
    in_window = [c for j, c in zip(grid, chi) if 0.1 <= j <= 1.0]
    if not any(c >= 10.0 for c in in_window):
        failures.append(
            f"chi never reaches 10 in [0.1, 1] GHz (max {max(in_window):.3f})")
    assert not failures, "\n".join(failures)


def test_a07_perturbative_noise_estimate():
    """The first-order noise decomposition tracks exact diagonalization
    to <= 20% inside its validity window (t/dU < 0.1, |eps|/dU < 0.5),
    and its discrepancy shrinks monotonically over three couplings with
    decreasing t/dU."""
    # window agreement with the physical reference charge
    base = DeviceParams()
    imp = default_impurity(base)
    hp0 = hubbard_parameters(base)
    assert hp0.t / hp0.delta_u < 0.1
    for eps in (0.0, 0.1, 0.2, 0.3):
        assert abs(eps) / hp0.delta_u < 0.5
        est = hubbard_noise_estimate(DeviceParams(epsilon=eps), imp)
        exact = delta_J("tilt", eps, base, imp).rel_noise
        disc = abs(est - exact) / abs(exact)
        assert disc <= 0.20, f"eps={eps}: estimate off by {disc:.3f}"
    for xi in (0.9, 1.1):
        p = DeviceParams(xi=xi)
        est = hubbard_noise_estimate(p, default_impurity(p))
        exact = delta_J("tilt", 0.0, p, default_impurity(p)).rel_noise
        disc = abs(est - exact) / abs(exact)
        assert disc <= 0.20, f"xi={xi}: estimate off by {disc:.3f}"

    # convergence: a weak probe charge isolates the O((t/dU)^2) error
    probe = Impurity(-600.0, 600.0, q=-0.01)
    discrepancies = []
    ratios = []
    for xi in (0.9, 1.1, 1.3):
        p = DeviceParams(xi=xi)
        hp = hubbard_parameters(p)
        ratios.append(hp.t / hp.delta_u)
        est = hubbard_noise_estimate(p, probe)
        exact = delta_J("tilt", 0.0, p, probe).rel_noise
        discrepancies.append(abs(est - exact) / abs(exact))
    assert ratios[0] > ratios[1] > ratios[2] > 0.0
    assert discrepancies[0] > discrepancies[1] > discrepancies[2], (
        f"discrepancy not monotone over t/dU={ratios}: {discrepancies}")


def test_a08_quality_factor_model():
    """Closed-form Q matches numeric envelope extraction to <= 1e-3;
    pure relative noise makes Q flat in J (<= 1e-9 spread); a dominant
    noise floor makes Q linear in J (R^2 > 0.999); and in the full
    simulation Q_barrier(J) is strictly increasing while Q_tilt(J)
    varies by < 2x over 150-300 MHz.

    Known physics-driven failure for this material parameter set: the
    rising flank of the anticrossing makes the tilt response triple
    across 150-300 MHz, so Q_tilt varies by more than 2x.
    """
    failures = []

    # numeric envelope: Q_num = J * t_(1/e) must match J/(sqrt(2) pi sigma)
    for j_ghz, sig in ((0.242, 0.00484), (0.5, 0.01), (0.15, 0.0045)):
        model = QualityModel(sigma_rel=0.0, sigma_floor_ghz=sig)
        q_closed = quality_factor(j_ghz, model)
        t_star = q_closed / j_ghz
        t_root = scipy.optimize.brentq(
            lambda t: envelope_numeric(j_ghz, sig, t) - math.exp(-1.0),
            1e-6, 4.0 * t_star, xtol=1e-12)
        q_num = j_ghz * t_root
        if abs(q_num - q_closed) / q_closed > 1e-3:
            failures.append(
                f"envelope mismatch at J={j_ghz}, sigma={sig}: "
                f"closed {q_closed:.6f} vs numeric {q_num:.6f}")

    flat = QualityModel(sigma_rel=0.05)
    qs = [quality_factor(j, flat) for j in np.linspace(0.15, 0.9, 16)]
    if (max(qs) - min(qs)) > 1e-9 * max(qs):
        failures.append(f"Q not J-independent under pure relative noise: {qs}")

    floor = QualityModel(sigma_rel=1e-6, sigma_floor_ghz=0.01)
    j_grid = np.linspace(0.15, 0.9, 16)
    q_grid = np.array([quality_factor(float(j), floor) for j in j_grid])
    slope, intercept = np.polyfit(j_grid, q_grid, 1)
    fit = slope * j_grid + intercept
    r2 = 1.0 - np.sum((q_grid - fit) ** 2) / np.sum((q_grid - q_grid.mean()) ** 2)
    if r2 <= 0.999:
        failures.append(f"Q vs J not linear under a dominant floor: R^2={r2:.6f}")

    # full simulation: single-charge quasistatic noise at matched J
    base = DeviceParams()
    imp = default_impurity(base)
    j_window = np.linspace(0.150, 0.300, 7)
    recs = [improvement_factor(float(j), imp) for j in j_window]
    q_tilt = [1.0 / (math.sqrt(2.0) * math.pi * abs(r.rel_tilt)) for r in recs]
    q_barrier = [1.0 / (math.sqrt(2.0) * math.pi * abs(r.rel_barrier)) for r in recs]
    for i in range(len(j_window) - 1):
        if q_barrier[i + 1] <= q_barrier[i]:
            failures.append(
                f"Q_barrier not strictly increasing at "
                f"J={j_window[i]:.4f}->{j_window[i+1]:.4f} GHz: "
                f"{q_barrier[i]:.4f}->{q_barrier[i+1]:.4f}")
    spread = max(q_tilt) / min(q_tilt)
    if spread >= 2.0:
        failures.append(
            f"Q_tilt varies {spread:.4f}x over 150-300 MHz "
            f"(max {max(q_tilt):.4f} at {j_window[int(np.argmax(q_tilt))]:.3f} GHz, "
            f"min {min(q_tilt):.4f} at {j_window[int(np.argmin(q_tilt))]:.3f} GHz)")
    assert not failures, "\n".join(failures)


def test_a09_impurity_position_scans():
    """At matched J = 242 MHz: |dJ/J| decreases monotonically with
    impurity distance along the dot axis, the transverse axis, and the
    diagonal; the barrier response never exceeds the tilt response; the
    transverse direction shows the smallest tilt/barrier gap; and a
    near-impurity run (R = (-1.5a, 0.5a), q = -0.01) keeps barrier
    relative noise decreasing in J.

    Known physics-driven failures for this material parameter set: the
    transverse tilt response changes sign (its magnitude dips through
    zero, breaking monotonicity and dropping below the barrier response
    at one radius), and the diagonal barrier response crosses zero
    inside two dot spacings.
    """
    base = DeviceParams()
    a = base.a
    eps_star = calibrate_tilt(0.242)
    xi_star = calibrate_barrier(0.242)
    directions = {
        "dot-axis": (-1.0, 0.0),
        "transverse": (0.0, 1.0),
        "diagonal": (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    }
    radii = [1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0]
    failures = []
    gap_by_direction = {}
    for name, (ux, uy) in directions.items():
        rel_t, rel_b = [], []
        for r in radii:
            imp = Impurity(r * a * ux, r * a * uy, q=-1.0)
            rel_t.append(abs(delta_J("tilt", eps_star, base, imp).rel_noise))
            rel_b.append(abs(delta_J("barrier", xi_star, base, imp).rel_noise))
        for scheme, seq in (("tilt", rel_t), ("barrier", rel_b)):
            for i in range(len(radii) - 1):
                if seq[i + 1] >= seq[i]:
                    failures.append(
                        f"{name} {scheme}: |dJ/J| not decreasing at "
                        f"R={radii[i]}a->{radii[i+1]}a: "
                        f"{seq[i]:.6g}->{seq[i+1]:.6g}")
        for r, t_val, b_val in zip(radii, rel_t, rel_b):
            if b_val > t_val:
                failures.append(
                    f"{name} R={r}a: barrier |dJ/J|={b_val:.6g} exceeds "
                    f"tilt |dJ/J|={t_val:.6g}")
        gap_by_direction[name] = float(np.median(
            [t / b for t, b in zip(rel_t, rel_b)]))
    if not (gap_by_direction["transverse"] < gap_by_direction["dot-axis"]
            and gap_by_direction["transverse"] < gap_by_direction["diagonal"]):
        failures.append(f"transverse gap not the smallest: {gap_by_direction}")

    near = Impurity(-1.5 * a, 0.5 * a, q=-0.01)
    grid = matched_j_grid(base, n=8, j_max_ghz=1.0)
    rels = []
    for j in grid:
        xi = calibrate_barrier(float(j))
        rels.append(abs(delta_J("barrier", xi, base, near).rel_noise))
    for i in range(len(grid) - 1):
        if rels[i + 1] >= rels[i]:
            failures.append(
                f"near-impurity barrier |dJ/J| not decreasing at "
                f"J={grid[i]:.4f}->{grid[i+1]:.4f} GHz: "
                f"{rels[i]:.6g}->{rels[i+1]:.6g}")
    assert not failures, "\n".join(failures)


def test_a10_determinism_and_speed(tmp_path):
    """The validation suite plus every figure sweep completes in under
    ten minutes, and repeated runs are byte-identical."""
    cli = [sys.executable, "-m", "dqdsim.cli"]
    sweeps = [
        ["spectrum"],
        ["exchange-tilt"],
        ["exchange-barrier"],
        ["noise-compare"],
        ["qfactor"],
        ["impurity-scan"],
        ["near-impurity"],
        ["potential-profile"],
    ]
    start = time.monotonic()

    def run_all(tag):
        outputs = {}
        for cmd in sweeps:
            out = tmp_path / f"{cmd[0]}-{tag}.csv"
            proc = subprocess.run(cli + cmd + ["--out", str(out)],
                                  capture_output=True, text=True, timeout=540)
            assert proc.returncode == 0, f"{cmd[0]} failed:\n{proc.stderr}"
            outputs[cmd[0]] = out.read_bytes()
        proc = subprocess.run(cli + ["validate"], capture_output=True,
                              text=True, timeout=540)
        assert proc.returncode == 0, f"validate failed:\n{proc.stdout}"
        outputs["validate"] = proc.stdout.encode()
        return outputs

    first = run_all("a")
    first_pass = time.monotonic() - start
    assert first_pass < 600.0, (
        f"validate + figure sweeps took {first_pass:.0f} s (budget 600 s)")
    second = run_all("b")
    for name in first:
        assert first[name] == second[name], f"{name} output not byte-identical"
