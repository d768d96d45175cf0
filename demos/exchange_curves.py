#!/usr/bin/env python3
"""Exchange splitting J under the two control knobs.

The two-electron problem reduces to a 4x4 Hamiltonian in the orthonormalized
two-site basis {S(2,0), S(1,1), T0(1,1), S(0,2)}.  This demo prints the
effective Hubbard parameters of the default device, then sweeps J(epsilon)
at fixed barrier and J(xi) at zero detuning, comparing the exact
diagonalization against the perturbative 2t^2 estimate
J ~ 4t^2 dU / (dU^2 - eps^2).
"""

from dqdsim import (
    AssemblyMode,
    DeviceParams,
    MEV_TO_GHZ,
    exchange_J_ghz,
    hubbard_exchange_estimate,
    hubbard_parameters,
    solve,
)


def show_hubbard(params):
    hp = hubbard_parameters(params)
    print(f"effective Hubbard parameters at eps = {params.epsilon:g}, "
          f"xi = {params.xi:g} (all meV):")
    print(f"  hopping t      = {hp.t:.9f}")
    print(f"  on-site U1, U2 = {hp.U1:.9f}, {hp.U2:.9f}")
    print(f"  inter-site U12 = {hp.U12:.9f}")
    print(f"  dU = (U1+U2)/2 - U12 = {hp.delta_u:.9f}")
    print(f"  detuning mu2 - mu1   = {hp.detuning:.9f}")
    print()


def sweep_eps(xi=1.3):
    print(f"J vs detuning at xi = {xi:g} meV "
          "(exact diagonalization vs 2t^2 perturbative estimate):")
    print(f"  {'eps [meV]':>9s} {'J exact [GHz]':>14s} {'J est [GHz]':>12s} "
          f"{'rel diff':>9s}")
    points = [DeviceParams(epsilon=eps, xi=xi) for eps in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]]
    for p in points:
        est = hubbard_exchange_estimate(hubbard_parameters(p)) * MEV_TO_GHZ
        j = exchange_J_ghz(p)
        print(f"  {p.epsilon:9.2f} {j:14.6f} {est:12.6f} {abs(est - j) / abs(j):9.2%}")
    hp = hubbard_parameters(DeviceParams(epsilon=0.0, xi=xi))
    print(f"  (charge-transfer anticrossing at |eps| = dU = {hp.delta_u:.4f} meV; "
          "the estimate has its pole there)")
    print()


def sweep_xi():
    print("J vs barrier amplitude at eps = 0 "
          "(lowering xi opens the inter-dot channel):")
    print(f"  {'xi [meV]':>8s} {'J exact [GHz]':>14s} {'t [meV]':>11s} "
          f"{'J est [GHz]':>12s} {'rel diff':>9s}")
    points = [DeviceParams(epsilon=0.0, xi=xi) for xi in [0.5, 0.7, 0.9, 1.1, 1.3, 1.5]]
    for p in points:
        hp = hubbard_parameters(p)
        est = hubbard_exchange_estimate(hp) * MEV_TO_GHZ
        j = exchange_J_ghz(p)
        print(f"  {p.xi:8.2f} {j:14.6f} {hp.t:11.3e} {est:12.6f} "
              f"{abs(est - j) / abs(j):9.2%}")
    print("  (near xi = 1.5 the bare hopping t crosses zero, so both J and the "
          "estimate collapse\n   and their ratio is no longer meaningful)")
    print()


def spectrum_detail(params):
    res = solve(params)
    print(f"four-level spectrum at eps = {params.epsilon:g}, xi = {params.xi:g}:")
    for k, e in enumerate(res.eigenvalues):
        tag = " (T0)" if abs(e - res.t0_energy) < 1e-12 else ""
        print(f"  E{k} = {e:.9f} meV{tag}")
    print(f"  J = E(T0) - E(S) = {res.J:.9e} meV = "
          f"{res.J * MEV_TO_GHZ:.6f} GHz")
    print()


def main():
    base = DeviceParams()
    show_hubbard(base)
    spectrum_detail(base)
    sweep_eps()
    sweep_xi()

    full = solve(base, mode=AssemblyMode.FULL)
    print("keeping every two-body term (direct exchange + correlated hopping) "
          "instead of the\ntwo-site truncation flips the ordering at this "
          f"operating point: J_full = {full.J:.6f} meV\n"
          f"= {full.J * MEV_TO_GHZ:.3f} GHz (triplet below singlet) — the "
          "long-known overestimate of\ndirect exchange in a two-orbital basis. "
          "The truncated assembly is the default.")


if __name__ == "__main__":
    main()
