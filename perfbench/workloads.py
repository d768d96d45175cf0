"""Workload definitions: the dqdsim CLI calls of one pass, made from a seed.

Each workload is a list of calls.  A call is (name, argv), where argv is the
argument list given to ``dqdsim.cli.main`` without ``--out``; worker.py
adds ``--out <dir>/<name>.csv``.  The seed only picks the impurity that the
program receives through ``--impurity=X,Y`` or ``--radii``; the grids are the
CLI defaults, so rows and J evaluations per pass do not depend on the seed.
"""
from __future__ import annotations

import math
import random

DEFAULT_SEED = 0
DOT_HALF_SEPARATION_NM = 100.0  # DeviceParams().a

# Seeded impurities of the sweep workloads sit at any angle 4.4a-4.6a from the
# origin.  There every impurity element stays on the power-series branch of
# i0e (argument < 20), so only impurity-map reaches the large-argument branch.
# The series' length grows with the distance, and a narrow band keeps the
# pass cost from depending on the seed.
IMPURITY_RADIUS_OVER_A = (4.4, 4.6)
SCAN_RADIUS_OVER_A = (1.5, 20.0)
SCAN_RADII = 40


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _impurity_flag(rng: random.Random) -> str:
    r = rng.uniform(*IMPURITY_RADIUS_OVER_A) * DOT_HALF_SEPARATION_NM
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return f"--impurity={r * math.cos(theta):.3f},{r * math.sin(theta):.3f}"


def _control_sweep(rng):
    imp = _impurity_flag(rng)
    return [
        ("spectrum", ["spectrum", imp]),
        ("exchange-tilt", ["exchange-tilt", imp]),
        ("exchange-barrier", ["exchange-barrier", imp]),
    ]


def _matched_j(rng):
    imp = _impurity_flag(rng)
    return [
        ("noise-compare", ["noise-compare", "--points", "25", imp]),
        ("qfactor", ["qfactor", imp]),
    ]


def _impurity_map(rng):
    radii = sorted(rng.uniform(*SCAN_RADIUS_OVER_A) for _ in range(SCAN_RADII))
    return [("impurity-scan",
             ["impurity-scan", "--radii", ",".join(f"{r:.4f}" for r in radii)])]


def _full_mode_sweep(rng):
    imp = _impurity_flag(rng)
    return [
        ("exchange-tilt", ["exchange-tilt", "--mode", "full", imp]),
        ("exchange-barrier", ["exchange-barrier", "--mode", "full", imp]),
    ]


WORKLOADS = {
    "control-sweep": _control_sweep,
    "matched-j": _matched_j,
    "impurity-map": _impurity_map,
    "full-mode-sweep": _full_mode_sweep,
}

# Columns that do not depend on the impurity, so they are checked against the
# stored reference at every seed.  Other columns are checked only at the
# default seed; at other seeds they must be finite.
SEED_FREE_COLUMNS = {
    "spectrum": ("epsilon_mev", "xi_mev"),
    "exchange-tilt": ("scheme", "control_mev", "J_clean_ghz"),
    "exchange-barrier": ("scheme", "control_mev", "J_clean_ghz"),
    "noise-compare": ("J_ghz",),
    "qfactor": ("J_ghz",),
    "impurity-scan": ("direction",),
}

# Provenance keys whose value comes from the seed.
SEED_KEYS = ("impurity.x_nm", "impurity.y_nm", "radii_over_a")


def calls(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The CLI calls of one pass of `workload` at `seed`."""
    return WORKLOADS[workload](_rng(workload, seed))
