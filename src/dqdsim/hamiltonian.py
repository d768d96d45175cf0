"""Two-electron 4x4 Hamiltonian in the orthonormalized two-site basis.

Basis ordering: { |0,ud>, |d,u>, |u,d>, |ud,0> } — the (0,2) singlet,
the two (1,1) spin configurations, and the (2,0) singlet.  The vector
(0, 1, -1, 0)/sqrt(2) is the unpolarized triplet T0 and is an exact
eigenvector; J is the splitting between the lowest two levels.

Two assembly modes:

* "paper": hopping -t + Z_t12 on all four off-diagonal entries coupling
  (1,1) to the doubly occupied states, zeros elsewhere;
* "full": adds the direct-exchange element K in the (1,1) block and the
  corners, and correlated-hopping corrections w1/w2 on the hops — the
  complete Slater-Condon expansion over the orthonormalized orbitals.

The integral tables of the symmetric (epsilon = 0), barrier-free device
are built once, with the confinement of the Gaussian bump per meV of xi.
A batch of points is built per device as arrays over its points: each
distinct impurity's matrix once, from one Bessel call for all of them; a
control point adds xi times the bump, and detuning enters exactly as the
chemical potentials mu1 = -eps/2, mu2 = +eps/2 on the diagonal.
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
from dataclasses import dataclass

import numpy as np

from .integrals import IntegralTables, build_tables, impurity_table
from .model import MEV_TO_GHZ, DeviceParams, Impurity, check_controls, derive_constants
from .orbitals import OrbitalBasis, build_basis


class AssemblyMode(str, enum.Enum):
    PAPER = "paper"
    FULL = "full"


@dataclass(frozen=True)
class HubbardParams:
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


def _two_body(M: np.ndarray, coulomb: np.ndarray) -> dict[str, float]:
    """The two-body parameters of the model: the Coulomb tensor transformed
    by the Lowdin matrix M, read off as HubbardParams fields."""
    V4 = np.einsum("pi,qj,rk,sl,ijkl->pqrs", M, M, M, M, coulomb)
    return dict(U1=float(V4[0, 0, 0, 0]), U2=float(V4[1, 1, 1, 1]), U12=float(V4[0, 1, 0, 1]),
                exchange_k=float(V4[0, 1, 1, 0]),
                corr_hop1=float(V4[1, 0, 0, 0]),
                corr_hop2=float(V4[1, 1, 1, 0]))


def hubbard_from_tables(params: DeviceParams, basis: OrbitalBasis,
                        tables: IntegralTables) -> HubbardParams:
    """Transform integral tables by the Lowdin matrix and read off the model;
    the device detuning adds to the per-dot depths of the tables."""
    (hp,) = _unstack(_hubbard(basis.M, tables.one_body, params.mu1, params.mu2,
                              tables.impurity, _two_body(basis.M, tables.coulomb)))
    return hp


def _hubbard(M: np.ndarray, one_body: np.ndarray, mu1, mu2, impurity: np.ndarray | None,
             two_body: dict[str, float]) -> HubbardParams:
    """The model of each point of a stack, from its one-body matrix and its
    impurity matrix (..., 2, 2), or no impurity anywhere, and its device
    chemical potentials (...), given the two-body parameters that
    _two_body read off the same basis.  The fields that vary are arrays
    over the leading axes; _unstack splits them into one model per point."""
    h = M @ one_body @ M
    offset = 0.5 * (h[..., 0, 0] + h[..., 1, 1])
    # mu_i = -(h_ii - offset) extracts the per-dot depth of the table
    # potential (zero for the symmetric shape); device detuning adds on top.
    mu1 = -(h[..., 0, 0] - offset) + mu1
    mu2 = -(h[..., 1, 1] - offset) + mu2

    Zt1 = Zt2 = Zt12 = 0.0
    if impurity is not None:
        Wt = M @ impurity @ M
        Zt1, Zt2, Zt12 = Wt[..., 0, 0], Wt[..., 1, 1], Wt[..., 0, 1]

    return HubbardParams(t=-h[..., 0, 1], mu1=mu1, mu2=mu2, Zt1=Zt1, Zt2=Zt2, Zt12=Zt12,
                         offset=offset, **two_body)


def _unstack(hp: HubbardParams) -> list[HubbardParams]:
    """One HubbardParams of floats per point of a stacked one."""
    shape = np.shape(hp.t)
    columns = [np.broadcast_to(getattr(hp, f.name), shape).ravel().tolist()
               for f in dataclasses.fields(hp)]
    return [HubbardParams(*row) for row in zip(*columns)]


@functools.lru_cache(maxsize=1)
def _device(params: DeviceParams):
    """What the controls never change, for a device at epsilon = xi = 0:
    its basis, its tables, the bump's confinement per meV of xi, and the
    two-body parameters."""
    tables = build_tables(params)
    bump = build_tables(dataclasses.replace(params, xi=1.0)).confinement - tables.confinement
    basis = build_basis(params)
    return basis, tables, bump, _two_body(basis.M, tables.coulomb)


def _model(device: DeviceParams, points) -> HubbardParams:
    """The model at each (params, imp) point of one device, stacked: the
    device's tables at epsilon = xi = 0 plus params.xi times the bump, plus
    the impurity's matrix, built once for each distinct impurity."""
    basis, tables, bump, two_body = _device(device)
    xi = np.array([params.xi for params, _ in points])
    one_body = tables.kinetic + (tables.confinement + xi[:, None, None] * bump)
    imps = list(dict.fromkeys(imp for _, imp in points if imp is not None))
    W = None
    if imps:
        # Row 0 is the zero matrix of a point without an impurity.
        table = np.concatenate([np.zeros((1, 2, 2)), impurity_table(imps, device)])
        row = {imp: k for k, imp in enumerate(imps, 1)}
        W = table[[row.get(imp, 0) for _, imp in points]]
    return _hubbard(basis.M, one_body, np.array([params.mu1 for params, _ in points]),
                    np.array([params.mu2 for params, _ in points]), W, two_body)


def hubbard_parameters(params: DeviceParams, imp: Impurity | None = None) -> HubbardParams:
    """The model at one control point: the device's tables at epsilon = 0
    plus params.xi times the bump, plus the impurity elements."""
    derive_constants(params)  # names a bad device field, then a non-finite control
    (hp,) = _unstack(_model(dataclasses.replace(params, epsilon=0.0, xi=0.0), [(params, imp)]))
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

_ASYMMETRIC = "matrix must be symmetric"


def _asymmetric(A: np.ndarray) -> np.ndarray:
    """For each matrix of a stack (N, n, n): whether it differs from its
    transpose by more than 1e-12 of its largest entry (NaN counts)."""
    atol = 1e-12 * np.fmax(1.0, np.abs(A).max(axis=(-2, -1)))
    close = np.isclose(A, np.swapaxes(A, -1, -2), rtol=0, atol=atol[:, None, None])
    return ~close.all(axis=(-2, -1))


def jacobi_eigh(A: np.ndarray):
    """Eigen-decomposition of small symmetric matrices by cyclic Jacobi.

    A is one (n, n) matrix or a stack (N, n, n).  Returns (eigenvalues
    ascending, eigenvectors as columns), stacked like A.  Rotations are
    applied in a fixed (p, q) order so the result is bit-reproducible, and
    every matrix of a stack takes exactly the rotations it would take
    alone: a matrix leaves the stack once it has converged, and a rotation
    it skips (|a_pq| <= 1e-300) is masked out, never applied as an identity
    (which would turn -0 into +0).  A matrix has converged once the norm
    of its upper off-diagonal is at most 1e-14 max(1, max |A|), and stops
    after 60 sweeps either way.  Eigenvector signs are fixed by making the
    first non-negligible component positive.
    """
    A = np.array(A, dtype=float)
    single = A.ndim == 2
    if single:
        A = A[None]
    if _asymmetric(A).any():
        raise ValueError(_ASYMMETRIC)
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    n = A.shape[-1]
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    # The matrices still rotating: their indices in the stack and their state.
    live = np.arange(len(A))
    a, v, limit = A, V, 1e-14 * np.fmax(1.0, np.abs(A).max(axis=(-2, -1)))
    for _ in range(60):
        off = np.zeros(len(a))
        for p, q in pairs:
            # float_power rounds like the libm pow behind a lone scalar's
            # ** 2; x * x differs in the last bit now and then.
            off = off + np.float_power(a[:, p, q], 2)
        done = np.sqrt(off) <= limit
        if done.any():
            A[live[done]], V[live[done]] = a[done], v[done]
            live, a, v, limit = live[~done], a[~done], v[~done], limit[~done]
            if not live.size:
                break
        for p, q in pairs:
            apq = a[:, p, q]
            on = ~(np.abs(apq) <= 1e-300)
            if not on.any():
                continue
            tau = (a[:, q, q] - a[:, p, p]) / (2.0 * np.where(on, apq, 1.0))
            tphi = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            tphi = np.where(tau >= 0, tphi, -tphi)
            c = 1.0 / np.sqrt(1.0 + tphi * tphi)
            s = tphi * c
            rot = np.broadcast_to(np.eye(n), a.shape).copy()
            rot[:, p, p] = rot[:, q, q] = c
            rot[:, p, q] = s
            rot[:, q, p] = -s
            a_rot = np.swapaxes(rot, -1, -2) @ a @ rot
            v_rot = v @ rot
            if on.all():
                a, v = a_rot, v_rot
            else:
                a = np.where(on[:, None, None], a_rot, a)
                v = np.where(on[:, None, None], v_rot, v)
    A[live], V[live] = a, v
    diag = np.diagonal(A, axis1=-2, axis2=-1)
    order = np.argsort(diag, axis=-1, kind="stable")
    evals = np.take_along_axis(diag, order, axis=-1)
    V = np.take_along_axis(V, order[:, None, :], axis=-1)
    big = np.abs(V) > 1e-12
    lead = np.take_along_axis(V, np.argmax(big, axis=-2)[:, None, :], axis=-2)[:, 0, :]
    V = np.where((big.any(axis=-2) & (lead < 0))[:, None, :], -V, V)
    return (evals[0], V[0]) if single else (evals, V)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray      # ascending, meV
    eigenvectors: np.ndarray     # columns
    J: float                     # E(T0) - E(lowest singlet), meV
    t0_energy: float             # Rayleigh quotient of the T0 vector
    hubbard: HubbardParams
    mode: AssemblyMode


T0_VECTOR = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def solve_many(points, mode: AssemblyMode = AssemblyMode.PAPER) -> list:
    """Assemble the model at each (params, imp) point and diagonalize all
    of them in one stacked eigensolve.

    The model is built per device, as arrays over its points: the device
    is checked once (a bad device field fails each of its points), then
    each point's controls, and the points that pass are assembled in one
    array pass, with each distinct impurity's matrix built once.

    Each entry of the result is the point's SpectrumResult, or the
    exception that point raised (a bad device or control, a matrix that is
    not symmetric, ...); a failing point never stops the others.  J is the
    signed singlet-triplet splitting E(T0) - E(S): the T0 vector is an
    exact eigenvector of every assembly (its eigenpair is found by
    overlap), and E(S) is the lowest remaining level.  A negative J means
    the triplet has dropped below the singlet.
    """
    out: list = [None] * len(points)
    groups: dict[tuple, list[int]] = {}  # device fields -> indices of its points
    for i, (params, _) in enumerate(points):
        groups.setdefault((params.a, params.hbar_omega0, params.m_eff, params.eps_r), []).append(i)
    built, hubbard, stacks = [], [], []  # indices, models and matrices of assembled points
    for members in groups.values():
        device = dataclasses.replace(points[members[0]][0], epsilon=0.0, xi=0.0)
        try:
            derive_constants(device)
        except Exception as exc:  # the device's own failure
            for i in members:
                out[i] = exc
            continue
        ok = []
        for i in members:
            try:
                check_controls(points[i][0])
                ok.append(i)
            except Exception as exc:  # the point's own failure
                out[i] = exc
        if not ok:
            continue
        try:
            hp = _model(device, [points[i] for i in ok])
            stacks.append(assemble_matrix(hp, mode))
        except Exception as exc:  # the device's own failure
            for i in ok:
                out[i] = exc
            continue
        built += ok
        hubbard += _unstack(hp)
    if built:
        H = np.concatenate(stacks)
        bad = _asymmetric(H)
        for k in np.flatnonzero(bad):
            out[built[k]] = ValueError(_ASYMMETRIC)
        built = [i for i, skip in zip(built, bad) if not skip]
        hubbard = [hp for hp, skip in zip(hubbard, bad) if not skip]
        H = H[~bad]
    if built:
        evals, evecs = jacobi_eigh(H)
        i_t0 = np.argmax(np.abs(T0_VECTOR @ evecs), axis=-1)
        # Per slice a (1, n) @ (n,) product: the same dot as T0 @ H @ T0 on
        # one matrix, which (K, n) @ (n,) is not, bit for bit.
        t0_energy = ((T0_VECTOR @ H)[:, None, :] @ T0_VECTOR)[:, 0]
        for k, (i, hp) in enumerate(zip(built, hubbard)):
            levels = evals[k].tolist()
            e_t0 = levels.pop(i_t0[k])
            out[i] = SpectrumResult(
                eigenvalues=evals[k], eigenvectors=evecs[k], J=e_t0 - min(levels),
                t0_energy=float(t0_energy[k]), hubbard=hp, mode=mode)
    return out


def unwrap(results: list) -> list:
    """The entries of a batched call's result, raising the first exception
    among them."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def solve(params: DeviceParams, imp: Impurity | None = None,
          mode: AssemblyMode = AssemblyMode.PAPER) -> SpectrumResult:
    """Assemble and diagonalize the two-electron model at one parameter
    point (see solve_many); raises what the point raises."""
    (res,) = unwrap(solve_many([(params, imp)], mode))
    return res


def exchange_J(params: DeviceParams, imp: Impurity | None = None,
               mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Signed exchange splitting J = E(T0) - E(lowest singlet) in meV."""
    return solve(params, imp, mode).J


def exchange_J_ghz(params: DeviceParams, imp: Impurity | None = None,
                   mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    return exchange_J(params, imp, mode) * MEV_TO_GHZ


def hubbard_exchange_estimate(hp: HubbardParams) -> float:
    """Second-order estimate J ~ 2t^2/(dU+eps) + 2t^2/(dU-eps)  [meV]."""
    du = hp.delta_u
    eps = hp.detuning
    if abs(du - abs(eps)) <= 1e-12 * max(du, 1e-30):
        raise ZeroDivisionError(
            f"detuning {eps:.6g} meV sits on the charge-transfer pole dU = {du:.6g} meV")
    return 2.0 * hp.t**2 / (du + eps) + 2.0 * hp.t**2 / (du - eps)
