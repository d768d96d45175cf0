"""Two-electron 4x4 Hamiltonian in the orthonormalized two-site basis.

Basis ordering: { |0,ud>, |d,u>, |u,d>, |ud,0> } — the (0,2) singlet, the
two (1,1) spin configurations, and the (2,0) singlet.  The unpolarized
triplet T0 = (0, 1, -1, 0)/sqrt(2) is an exact eigenvector, and its energy
is its eigenvalue H11 - H12; J is T0's level minus the lowest other one.

Two assembly modes:

* "paper": hopping -t + Z_t12 on all four off-diagonal entries coupling
  (1,1) to the doubly occupied states, zeros elsewhere;
* "full": adds the direct-exchange element K in the (1,1) block and the
  corners, and correlated-hopping corrections w1/w2 on the hops — the
  complete Slater-Condon expansion over the orthonormalized orbitals.

Each device is built once, at epsilon = xi = 0, from one closed-form pass
over its integrals: its tables, the confinement of the Gaussian bump per
meV of xi, and its two-body parameters.  A batch of points is built per
device as arrays over its points: each distinct impurity's matrix once,
from one Bessel call for all of them; a control point adds xi times the
bump, and detuning enters exactly as the chemical potentials
mu1 = -eps/2, mu2 = +eps/2 on the diagonal.
Evaluating the one-body integrals over the tilt-deformed quartic instead
amplifies the effective detuning by ~3.9x at the default soft confinement
(the mu-dependent cubic/quartic tails have large moments when a_B ~ a),
which is not what the chemical-potential form of the model means by
epsilon.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from .integrals import _device_integrals, impurity_table
from .model import MEV_TO_GHZ, DeviceParams, Impurity, check_controls


class AssemblyMode(str, enum.Enum):
    PAPER = "paper"
    FULL = "full"


class HubbardParams(NamedTuple):
    """Parameters of the 4x4 model, all in meV."""
    t: float            # bare hopping, -h~_12
    U1: float
    U2: float
    U12: float
    mu1: float
    mu2: float
    Zt1: float = 0.0    # impurity shifts W~_11, W~_22, W~_12
    Zt2: float = 0.0
    Zt12: float = 0.0
    exchange_k: float = 0.0   # direct exchange K~ (full mode)
    corr_hop1: float = 0.0    # correlated hopping <21|v|11>
    corr_hop2: float = 0.0    # correlated hopping <22|v|21>
    offset: float = 0.0       # common one-body level (not part of J)

    @property
    def delta_u(self) -> float:
        return 0.5 * (self.U1 + self.U2) - self.U12

    @property
    def detuning(self) -> float:
        return self.mu2 - self.mu1


def _unstack(hp: HubbardParams) -> list[HubbardParams]:
    """One HubbardParams of floats per point of a stacked one."""
    shape = np.shape(hp.t)
    columns = [np.broadcast_to(value, shape).ravel().tolist() for value in hp]
    return [HubbardParams(*row) for row in zip(*columns)]


@functools.lru_cache(maxsize=1)
def _device(params: DeviceParams):
    """What the controls never change, for a device at epsilon = xi = 0,
    from one closed-form build: its Lowdin matrix M, its kinetic and
    confinement tables, the bump's confinement per meV of xi, and the
    two-body HubbardParams fields, from the Coulomb tensor transformed by M."""
    basis, kinetic, confinement, bump, coulomb = _device_integrals(params)
    M = basis.M
    V4 = np.einsum("pi,qj,rk,sl,ijkl->pqrs", M, M, M, M, coulomb)
    return M, kinetic, confinement, bump, dict(
        U1=float(V4[0, 0, 0, 0]), U2=float(V4[1, 1, 1, 1]), U12=float(V4[0, 1, 0, 1]),
        exchange_k=float(V4[0, 1, 1, 0]), corr_hop1=float(V4[1, 0, 0, 0]),
        corr_hop2=float(V4[1, 1, 1, 0]))


def _model(build, epsilon, xi, rows, impurity_tables) -> HubbardParams:
    """The stacked model at each (epsilon, xi) point of one device from its
    build (_device's tuple): its tables plus xi times the bump, detuning as
    mu1 = -eps/2, mu2 = +eps/2, and the impurity matrix of the point's row
    (0: none, k: impurity_tables[k - 1]), or none at all without tables.
    _unstack splits the arrays into one model per point."""
    M, kinetic, confinement, bump, two_body = build
    h = M @ (kinetic + (confinement + xi[:, None, None] * bump)) @ M
    offset = 0.5 * (h[..., 0, 0] + h[..., 1, 1])
    # mu_i = -(h_ii - offset) extracts the per-dot depth of the table
    # potential (zero for the symmetric shape); detuning adds on top.
    mu1 = -(h[..., 0, 0] - offset) + -0.5 * epsilon
    mu2 = -(h[..., 1, 1] - offset) + 0.5 * epsilon

    Zt1 = Zt2 = Zt12 = 0.0
    if len(impurity_tables):
        # Row 0 is the zero matrix of a point without an impurity.
        W = np.concatenate([np.zeros((1, 2, 2)), impurity_tables])[rows]
        Wt = M @ W @ M
        Zt1, Zt2, Zt12 = Wt[..., 0, 0], Wt[..., 1, 1], Wt[..., 0, 1]

    return HubbardParams(t=-h[..., 0, 1], mu1=mu1, mu2=mu2, Zt1=Zt1, Zt2=Zt2, Zt12=Zt12,
                         offset=offset, **two_body)


def _built(device: DeviceParams, epsilon, xi, rows=None, impurities=()):
    """(failed, built, hp) for the points of solve_stack: failed maps each
    point whose control is not finite or whose impurity's elements overflow
    to its exception, and hp is the stacked model of the others, whose
    indices built holds.  A device that is bad or cannot be built raises."""
    device = dataclasses.replace(device, epsilon=0.0, xi=0.0)
    epsilon, xi = np.asarray(epsilon, dtype=float), np.asarray(xi, dtype=float)
    rows = np.zeros(len(epsilon), dtype=int) if rows is None else np.asarray(rows, dtype=int)
    finite = np.isfinite(epsilon) & np.isfinite(xi)
    failed: dict[int, Exception] = {}
    for i in np.flatnonzero(~finite).tolist():
        try:
            check_controls(float(epsilon[i]), float(xi[i]))
        except ValueError as exc:  # names the non-finite control
            failed[i] = exc
    # Each impurity's matrix is built once; one that overflows fails its own
    # points, named, before the model's products could warn of it.
    tables = impurity_table(impurities, device) if len(impurities) else np.zeros((0, 2, 2))
    for k in np.flatnonzero(~np.isfinite(tables).all(axis=(-2, -1))).tolist():
        own = finite & (rows == k + 1)
        failed.update((i, ValueError(f"{impurities[k]!r}: its matrix elements overflow"))
                      for i in np.flatnonzero(own).tolist())
        finite &= ~own
    built = np.flatnonzero(finite)
    return failed, built, _model(_device(device), epsilon[built], xi[built], rows[built], tables)


def _point(params: DeviceParams, imp: Impurity | None) -> tuple:
    """solve_stack's arguments, device to impurities, for one point."""
    return params, [params.epsilon], [params.xi], *((None, ()) if imp is None else ([1], [imp]))


def _raise_first(failed: dict, values=()) -> list:
    """Raise the exception of failed's lowest row, if any; else return values as a list."""
    if failed:
        raise failed[min(failed)]
    return np.asarray(values).tolist()


def hubbard_parameters(params: DeviceParams, imp: Impurity | None = None) -> HubbardParams:
    """The model at one control point: the device's tables at epsilon = 0
    plus params.xi times the bump, plus the impurity elements.  Raises what
    the point raises in solve_stack before its matrix is built."""
    failed, _, hp = _built(*_point(params, imp))
    _raise_first(failed)
    (hp,) = _unstack(hp)
    return hp


def assemble_matrix(hp: HubbardParams, mode: AssemblyMode = AssemblyMode.PAPER) -> np.ndarray:
    """The 4x4 matrix of the model; fields that are arrays over points give
    a stack of matrices (..., 4, 4)."""
    d02 = hp.U2 - 2 * hp.mu2 + 2 * hp.Zt2
    d11 = hp.U12 - hp.mu1 - hp.mu2 + hp.Zt1 + hp.Zt2
    d20 = hp.U1 - 2 * hp.mu1 + 2 * hp.Zt1

    if mode == AssemblyMode.PAPER:
        hop2 = hop1 = -hp.t + hp.Zt12
        k = 0.0
    elif mode == AssemblyMode.FULL:
        hop2 = -hp.t + hp.corr_hop2 + hp.Zt12   # (0,2) <-> (1,1)
        hop1 = -hp.t + hp.corr_hop1 + hp.Zt12   # (1,1) <-> (2,0)
        k = hp.exchange_k
    else:  # pragma: no cover
        raise ValueError(mode)

    H = np.zeros(np.broadcast(d02, d11, d20, hop1, hop2, k).shape + (4, 4))
    H[..., 0, 0], H[..., 3, 3] = d02, d20
    H[..., 1, 1] = H[..., 2, 2] = d11
    H[..., 0, 1] = H[..., 1, 0] = H[..., 0, 2] = H[..., 2, 0] = hop2
    H[..., 1, 3] = H[..., 3, 1] = H[..., 2, 3] = H[..., 3, 2] = hop1
    H[..., 1, 2] = H[..., 2, 1] = k
    H[..., 0, 3] = H[..., 3, 0] = k
    return H


# ---------------------------------------------------------------------------
# eigensolver: deterministic cyclic Jacobi over a stack of matrices
# ---------------------------------------------------------------------------

@functools.cache
def _upper(n: int) -> tuple:
    """(np.triu_indices(n, 1), its (p, q) pairs in order), made once per n."""
    upper = np.triu_indices(n, 1)
    for i in upper:
        i.flags.writeable = False  # every caller shares them
    return upper, list(zip(*(i.tolist() for i in upper)))


def _off_norm2(A: np.ndarray, upper) -> np.ndarray:
    """Jacobi's convergence measure of each matrix of a stack (N, n, n): the
    squares of its upper off-diagonal entries, added in order.  float_power
    rounds like a lone scalar's ** 2, x * x may not."""
    return np.add.accumulate(np.float_power(A[:, upper[0], upper[1]], 2), axis=1)[:, -1]


def _faults(A: np.ndarray) -> dict[int, str]:
    """The fault of each matrix of a stack (N, n, n) that Jacobi cannot
    solve, by its index: an entry that is not finite; else an upper
    off-diagonal whose squares add up past the largest float, so that Jacobi
    could never find it converged."""
    faults = {}
    # Squares of entries below 1e150 add up past the largest float only in a
    # matrix of some 1.8e8 pairs, so only a stack with a larger entry or a NaN
    # is scanned, and only the matrices that hold one are summed.
    if not np.abs(A).max(initial=0.0) < 1e150:
        for k in np.flatnonzero(~(np.abs(A) < 1e150).all(axis=(-2, -1))).tolist():
            with np.errstate(over="ignore"):
                if not np.isfinite(A[k]).all():
                    faults[k] = "matrix has a non-finite entry"
                elif np.isinf(_off_norm2(A[k:k + 1], _upper(A.shape[-1])[0])[0]):
                    faults[k] = "matrix off-diagonal norm overflows"
    return faults


def jacobi_eigh(H: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues (N, n) of a stack H (N, n, n) of symmetric
    matrices that passed _faults, from _rotate on a copy of H."""
    return np.sort(np.diagonal(_rotate(H.copy()), axis1=-2, axis2=-1), axis=-1, kind="stable")


def _rotate(A: np.ndarray) -> np.ndarray:
    """Cyclic Jacobi's sweep loop over a stack A (N, n, n) of symmetric
    matrices, overwritten.  Returns it rotated, in A's order.  Each matrix
    takes exactly the rotations it takes alone, in a fixed (p, q) order,
    until its upper off-diagonal's norm is at most 1e-14 max(1, max |A|) or
    for 60 sweeps; one it skips (|a_pq| <= 1e-300) is masked out, never
    applied as an identity (which turns -0 into +0).  A rotation R is two
    BLAS products, R^T A in place, then A R."""
    n = A.shape[-1]
    out, (upper, pairs) = np.empty_like(A), _upper(n)
    # The matrices still rotating: their indices, state, tolerance and identities.
    live, limit = np.arange(len(A)), 1e-14 * np.fmax(1.0, np.abs(A).max(axis=(-2, -1)))
    eye = np.broadcast_to(np.eye(n), A.shape).copy()
    for _ in range(60):
        done = np.sqrt(_off_norm2(A, upper)) <= limit
        if done.any():
            out[live[done]] = A[done]
            live, A, limit, eye = live[~done], A[~done], limit[~done], eye[~done]
        if not live.size:
            break
        for p, q in pairs:
            apq = A[:, p, q]
            skip = np.abs(apq) <= 1e-300
            skipped = np.count_nonzero(skip)
            if skipped == len(skip):
                continue
            if skipped:
                apq = np.where(skip, 1.0, apq)
            # tan(phi) of tau = (a_qq - a_pp) / 2 a_pq takes tau's sign, -0
            # counting as positive like +0.
            tau = (A[:, q, q] - A[:, p, p]) / (2.0 * apq)
            tphi = np.copysign(1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), tau + 0.0)
            c = 1.0 / np.sqrt(1.0 + tphi * tphi)
            s = tphi * c
            rot = eye.copy()
            rot[:, p, p] = rot[:, q, q] = c
            rot[:, p, q], rot[:, q, p] = s, -s
            kept = A[skip] if skipped else None  # a copy, put back after the products
            np.matmul(rot.transpose(0, 2, 1), A, out=A)
            A = A @ rot
            if skipped:
                A[skip] = kept
    out[live] = A
    return out


class SpectrumResult(NamedTuple):
    eigenvalues: np.ndarray      # ascending, meV
    J: float                     # E(T0) - E(lowest singlet), meV
    t0_energy: float             # T0's exact eigenvalue H11 - H12, meV


T0_VECTOR = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def _exchange(H: np.ndarray, evals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J, E_T0) of each matrix of H (N, 4, 4) from its ascending levels (N, 4):
    T0's exact eigenvalue H11 - H12, and J, the level nearest it (the lower
    of two as near) minus the lowest other one."""
    e_t0 = H[:, 1, 1] - H[:, 1, 2]
    at_t0 = np.arange(4) == np.abs(evals - e_t0[:, None]).argmin(axis=-1)[:, None]
    return evals[at_t0] - np.where(at_t0, np.inf, evals).min(axis=-1), e_t0


def solve_stack(device: DeviceParams, epsilon, xi, rows=None, impurities=(),
                mode: AssemblyMode = AssemblyMode.PAPER):
    """J, the levels and E_T0 of the model at arrays of detuning and barrier
    amplitude on one device (its own controls play no part), from one
    jacobi_eigh; the one place that knows the eigensolver.  rows[k] is point
    k's impurity: 0 for none, j for impurities[j - 1] (none without rows).
    Returns (J, evals, t0_energy, failed) over every point: _exchange's J and
    E_T0 [meV] and the ascending levels, NaN where failed maps the point to
    its exception (see _built and _faults).  A device that is bad or cannot
    be built raises."""
    failed, built, hp = _built(device, epsilon, xi, rows, impurities)
    H = assemble_matrix(hp, mode)
    faults = _faults(H)  # a matrix that Jacobi cannot solve fails alone
    if faults:
        failed.update((built[k].item(), ValueError(m)) for k, m in faults.items())
        H, built = np.delete(H, list(faults), axis=0), np.delete(built, list(faults))
    evals = jacobi_eigh(H)
    J, e_t0 = _exchange(H, evals)
    if failed:  # NaN at each failed point
        spread = np.full((len(built) + len(failed), 6), math.nan)
        spread[built] = np.column_stack([J, e_t0, evals])
        J, e_t0, evals = spread[:, 0], spread[:, 1], spread[:, 2:]
    return J, evals, e_t0, failed


def solve(params: DeviceParams, imp: Impurity | None = None,
          mode: AssemblyMode = AssemblyMode.PAPER) -> SpectrumResult:
    """The levels of the model at one point, its J and E_T0: solve_stack on
    the point.  Raises what the point raises there."""
    (J,), (evals,), (e_t0,), failed = solve_stack(*_point(params, imp), mode)
    _raise_first(failed)
    return SpectrumResult(eigenvalues=evals, J=float(J), t0_energy=float(e_t0))


def in_ghz(J: np.ndarray) -> tuple[np.ndarray, dict]:
    """(ghz, over): each J [meV] in GHz, NaN where it is NaN or overflows
    there, and over mapping each overflow's index to a ValueError naming it."""
    with np.errstate(over="ignore"):
        ghz = J * MEV_TO_GHZ
    over = np.flatnonzero(np.isinf(ghz)).tolist()
    ghz[over] = math.nan
    return ghz, {k: ValueError(f"J = {J[k]:.6g} meV overflows in GHz") for k in over}


def exchange_J_ghz(params: DeviceParams, imp: Impurity | None = None,
                   mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Signed exchange splitting J = E(T0) - E(lowest singlet) in GHz from
    solve_stack; raises what the point raises there, or in_ghz's error."""
    J, _, _, failed = solve_stack(*_point(params, imp), mode)
    (ghz,), over = in_ghz(J)
    _raise_first(failed or over)
    return float(ghz)


def hubbard_exchange_estimate(hp: HubbardParams) -> float:
    """Second-order estimate J ~ 2t^2/(dU+eps) + 2t^2/(dU-eps)  [meV]."""
    du = hp.delta_u
    eps = hp.detuning
    if abs(du - abs(eps)) <= 1e-12 * max(du, 1e-30):
        raise ZeroDivisionError(
            f"detuning {eps:.6g} meV sits on the charge-transfer pole dU = {du:.6g} meV")
    return 2.0 * hp.t**2 / (du + eps) + 2.0 * hp.t**2 / (du - eps)
