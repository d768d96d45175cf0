#!/usr/bin/env python3
"""From exchange noise to oscillation quality.

Quasistatic J-noise dephases exchange oscillations: averaging
exp(2 pi i J' t) over J' ~ N(J, sigma^2) leaves the Gaussian envelope
exp(-2 pi^2 sigma^2 t^2), which hits 1/e at t* = 1/(sqrt(2) pi sigma).
The quality factor Q = J t* counts coherent oscillations.  This demo checks
the closed-form envelope against direct numerical averaging, shows the two
limiting noise models (purely relative noise -> flat Q; constant floor ->
Q linear in J), then evaluates the actual impurity-driven Q for both control
schemes at matched J.
"""

import math

from dqdsim import (
    DeviceParams,
    QualityModel,
    default_impurity,
    envelope_closed,
    envelope_numeric,
    improvement_factors,
    matched_j_grid,
    quality_factor,
    sigma_total,
    t_star_ns,
)


def envelope_check():
    j, sigma = 0.242, 0.015
    print(f"envelope check at J = {j:g} GHz, sigma = {sigma:g} GHz:")
    print(f"  {'t [ns]':>7s} {'closed form':>12s} {'numeric avg':>12s} "
          f"{'|diff|':>9s}")
    for t in [0.0, 5.0, 10.0, 15.0, 20.0, 30.0]:
        c = envelope_closed(sigma, t)
        n = envelope_numeric(j, sigma, t)
        print(f"  {t:7.1f} {c:12.8f} {n:12.8f} {abs(c - n):9.2e}")
    ts = t_star_ns(sigma)
    print(f"  1/e time t* = {ts:.4f} ns, so Q = J t* = {j * ts:.4f} "
          "oscillations\n")


def limiting_models():
    print("limiting noise models:")
    rel = QualityModel(sigma_rel=0.03)
    print("  purely relative noise (sigma = 0.03 J): Q is J-independent")
    for j in [0.05, 0.1, 0.25, 0.5, 1.0]:
        print(f"    J = {j:5.2f} GHz -> Q = {quality_factor(j, rel):8.4f}")
    floor = QualityModel(sigma_rel=0.0, sigma_floor_ghz=0.002)
    print("  constant floor (sigma = 2 MHz): Q grows linearly with J")
    for j in [0.05, 0.1, 0.25, 0.5, 1.0]:
        print(f"    J = {j:5.2f} GHz -> Q = {quality_factor(j, floor):8.4f}")
    print()


def impurity_driven_q(base, imp):
    print("impurity-driven quality factor at matched J "
          "(sigma = |dJ| from the impurity shift):")
    print(f"  {'J [GHz]':>8s} {'sigma_tilt':>11s} {'sigma_barr':>11s} "
          f"{'Q tilt':>9s} {'Q barrier':>10s}")
    grid = [float(j) for j in matched_j_grid(base, n=8, j_max_ghz=0.5)]
    for j, rec in zip(grid, improvement_factors(grid, imp, base)):
        sig_t = abs(rec.rel_tilt) * j
        sig_b = abs(rec.rel_barrier) * j
        q_t = quality_factor(j, QualityModel(sigma_rel=abs(rec.rel_tilt)))
        q_b = quality_factor(j, QualityModel(sigma_rel=abs(rec.rel_barrier)))
        print(f"  {j:8.4f} {sig_t:11.5f} {sig_b:11.5f} "
              f"{q_t:9.4f} {q_b:10.4f}")
    print("\n  with a single dominant impurity sigma tracks J's sensitivity, "
          "so Q_barrier rises\n  as the barrier scheme gets relatively "
          "quieter at larger J, while Q_tilt decays\n  toward the "
          "anticrossing where tilt noise explodes.")


def composite_example():
    print("\ncomposite model (relative noise + floor), "
          "sigma_tot^2 = (0.02 J)^2 + (1 MHz)^2:")
    m = QualityModel(sigma_rel=0.02, sigma_floor_ghz=0.001)
    print(f"  {'J [GHz]':>8s} {'sigma_tot [GHz]':>16s} {'Q':>9s}")
    for j in [0.02, 0.05, 0.1, 0.2, 0.5, 1.0]:
        print(f"  {j:8.2f} {sigma_total(j, m):16.6f} "
              f"{quality_factor(j, m):9.4f}")
    q_inf = 1.0 / (math.sqrt(2.0) * math.pi * m.sigma_rel)
    print(f"  (saturates at Q = 1/(sqrt(2) pi sigma_rel) = {q_inf:.4f})")


def main():
    base = DeviceParams()
    imp = default_impurity(base)
    envelope_check()
    limiting_models()
    impurity_driven_q(base, imp)
    composite_example()


if __name__ == "__main__":
    main()
