#!/usr/bin/env python3
"""How impurity position shapes the noise, scheme by scheme.

Both schemes are calibrated to the same clean J = 0.242 GHz, then a unit
point charge is walked outward along three directions: the dot axis (x),
the transverse axis (y), and the diagonal.  Far away the shift dies off;
close in, geometry matters.  Along y the impurity is mirror-symmetric
between the dots, so it cannot detune them — the residual coupling acts
through the barrier matrix element and its signed effect crosses zero at
a finite radius (visible below as a dip in |dJ/J|).
"""

import math

from dqdsim import (
    DeviceParams,
    Impurity,
    calibrate_many,
    matched_j_grid,
    noise_records,
    unwrap,
)

J_TARGET_GHZ = 0.242
RADII = [1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0]
DIRECTIONS = {
    "dot axis (-x)": (-1.0, 0.0),
    "transverse (+y)": (0.0, 1.0),
    "diagonal": (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}


def radial_scans(base):
    eps_star, xi_star = unwrap(calibrate_many(
        [("tilt", J_TARGET_GHZ), ("barrier", J_TARGET_GHZ)], base))
    print(f"both schemes calibrated to J = {J_TARGET_GHZ:g} GHz: "
          f"eps* = {eps_star:.4f} meV (tilt), xi* = {xi_star:.4f} meV (barrier)\n")

    for name, (ux, uy) in DIRECTIONS.items():
        print(f"unit charge walked outward along the {name} direction:")
        print(f"  {'R/a':>5s} {'(x, y) [nm]':>18s} {'dJ/J tilt':>12s} "
              f"{'dJ/J barrier':>13s} {'ratio':>8s}")
        for r in RADII:
            x, y = r * base.a * ux, r * base.a * uy
            imp = Impurity(x, y, q=-1.0)
            rec_t, rec_b = unwrap(noise_records(
                [("tilt", eps_star), ("barrier", xi_star)], base, imp))
            ratio = (abs(rec_t.rel_noise / rec_b.rel_noise)
                     if rec_b.rel_noise != 0.0 else math.inf)
            print(f"  {r:5.1f} ({x:+8.1f}, {y:+7.1f}) {rec_t.rel_noise:+12.4f} "
                  f"{rec_b.rel_noise:+13.6f} {ratio:8.2f}")
        print()

    print("notes:")
    print("  - along x the impurity detunes the dots directly; tilt control "
          "sits on the steep\n    flank of J(eps) and pays 10-100x more than "
          "barrier control at every radius.")
    print("  - along y the detuning channel cancels by symmetry; the signed "
          "shift passes\n    through zero (tilt near R = 3a, barrier inside "
          "R = 2a) before the far-field\n    decay takes over, so |dJ/J| is "
          "not monotone there.")


def near_impurity(base):
    imp = Impurity(-1.5 * base.a, 0.5 * base.a, q=-0.01)
    print(f"\nweak nearby charge (q = {imp.q:g} e at ({imp.x_c:g}, {imp.y_c:g}) nm), "
          "barrier scheme vs operating point:")
    print(f"  {'J [GHz]':>9s} {'xi* [meV]':>10s} {'|dJ/J|':>9s}")
    grid = [float(j) for j in matched_j_grid(base, n=8, j_max_ghz=1.0)]
    xis = unwrap(calibrate_many([("barrier", j) for j in grid], base))
    recs = unwrap(noise_records([("barrier", xi) for xi in xis], base, imp))
    for j, xi, rec in zip(grid, xis, recs):
        print(f"  {j:9.4f} {xi:10.4f} {abs(rec.rel_noise):9.5%}")
    print("  running the qubit faster (larger J, lower barrier) makes even a "
          "nearby charge\n  relatively quieter under barrier control.")


def main():
    base = DeviceParams()
    radial_scans(base)
    near_impurity(base)


if __name__ == "__main__":
    main()
