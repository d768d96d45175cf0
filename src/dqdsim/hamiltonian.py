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
are built once, with the confinement of the Gaussian bump per meV of xi,
and so is the matrix of the most recent impurity on that device; a control
point adds xi times that bump, and detuning enters exactly as the chemical
potentials mu1 = -eps/2, mu2 = +eps/2 on the diagonal.
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
from .model import DeviceParams, Impurity, derive_constants
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

    def t_eff(self, mode: AssemblyMode = AssemblyMode.PAPER) -> float:
        """Hopping including the correlated-hopping reduction in full mode."""
        if mode == AssemblyMode.FULL:
            return self.t - 0.5 * (self.corr_hop1 + self.corr_hop2)
        return self.t


def hubbard_from_tables(params: DeviceParams, basis: OrbitalBasis,
                        tables: IntegralTables) -> HubbardParams:
    """Transform integral tables by the Lowdin matrix and read off the model;
    the device detuning adds to the per-dot depths of the tables."""
    M = basis.M

    h = M @ tables.one_body @ M
    offset = 0.5 * (h[0, 0] + h[1, 1])
    # mu_i = -(h_ii - offset) extracts the per-dot depth of the table
    # potential (zero for the symmetric shape); device detuning adds on top.
    mu1 = -(h[0, 0] - offset) + params.mu1
    mu2 = -(h[1, 1] - offset) + params.mu2
    t = -h[0, 1]

    V4 = np.einsum("pi,qj,rk,sl,ijkl->pqrs", M, M, M, M, tables.coulomb)
    Zt1 = Zt2 = Zt12 = 0.0
    if tables.impurity is not None:
        Wt = M @ tables.impurity @ M
        Zt1, Zt2, Zt12 = Wt[0, 0], Wt[1, 1], Wt[0, 1]

    return HubbardParams(
        t=float(t),
        U1=float(V4[0, 0, 0, 0]), U2=float(V4[1, 1, 1, 1]), U12=float(V4[0, 1, 0, 1]),
        mu1=float(mu1), mu2=float(mu2),
        Zt1=float(Zt1), Zt2=float(Zt2), Zt12=float(Zt12),
        exchange_k=float(V4[0, 1, 1, 0]),
        corr_hop1=float(V4[1, 0, 0, 0]),
        corr_hop2=float(V4[1, 1, 1, 0]),
        offset=float(offset),
    )


@functools.lru_cache(maxsize=1)
def _device(params: DeviceParams):
    """What the controls never change, for a device at epsilon = xi = 0:
    its basis, its tables, and the bump's confinement per meV of xi."""
    tables = build_tables(params)
    bump = build_tables(dataclasses.replace(params, xi=1.0)).confinement - tables.confinement
    return build_basis(params), tables, bump


@functools.lru_cache(maxsize=1)
def _impurity(params: DeviceParams, imp: Impurity) -> np.ndarray:
    """The impurity's 2x2 matrix for a device at epsilon = xi = 0; neither
    control changes it.  Read-only, since every caller shares it."""
    W = impurity_table(imp, params)
    W.flags.writeable = False
    return W


def hubbard_parameters(params: DeviceParams, imp: Impurity | None = None) -> HubbardParams:
    """The model at one control point: the device's tables at epsilon = 0
    plus params.xi times the bump, plus the impurity elements."""
    derive_constants(params)  # names a non-finite control before it reaches the tables
    device = dataclasses.replace(params, epsilon=0.0, xi=0.0)
    basis, tables, bump = _device(device)
    W = None if imp is None else _impurity(device, imp)
    return hubbard_from_tables(params, basis, dataclasses.replace(
        tables, confinement=tables.confinement + params.xi * bump, impurity=W))


def assemble_matrix(hp: HubbardParams, mode: AssemblyMode = AssemblyMode.PAPER) -> np.ndarray:
    d02 = hp.U2 - 2 * hp.mu2 + 2 * hp.Zt2
    d11 = hp.U12 - hp.mu1 - hp.mu2 + hp.Zt1 + hp.Zt2
    d20 = hp.U1 - 2 * hp.mu1 + 2 * hp.Zt1
    H = np.diag([d02, d11, d11, d20])

    if mode == AssemblyMode.PAPER:
        hop2 = hop1 = -hp.t + hp.Zt12
        k = 0.0
    elif mode == AssemblyMode.FULL:
        hop2 = -hp.t + hp.corr_hop2 + hp.Zt12   # (0,2) <-> (1,1)
        hop1 = -hp.t + hp.corr_hop1 + hp.Zt12   # (1,1) <-> (2,0)
        k = hp.exchange_k
    else:  # pragma: no cover
        raise ValueError(mode)

    H[0, 1] = H[1, 0] = H[0, 2] = H[2, 0] = hop2
    H[1, 3] = H[3, 1] = H[2, 3] = H[3, 2] = hop1
    H[1, 2] = H[2, 1] = k
    H[0, 3] = H[3, 0] = k
    return H


# ---------------------------------------------------------------------------
# eigensolver: deterministic cyclic Jacobi
# ---------------------------------------------------------------------------

def jacobi_eigh(A: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi.

    Returns (eigenvalues ascending, eigenvectors as columns).  Rotations
    are applied in a fixed (p, q) order so the result is bit-reproducible;
    eigenvector signs are fixed by making the first non-negligible
    component positive.
    """
    A = np.array(A, dtype=float)
    if not np.allclose(A, A.T, rtol=0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    V = np.eye(n)
    scale = max(1.0, np.abs(A).max())
    for _ in range(max_sweeps):
        off = math.sqrt(sum(A[p, q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0:
                    tphi = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    tphi = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + tphi * tphi)
                s = tphi * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    evals = np.diag(A).copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    V = V[:, order]
    for col in range(n):
        v = V[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size and v[nz[0]] < 0:
            V[:, col] = -v
    return evals, V


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray      # ascending, meV
    eigenvectors: np.ndarray     # columns
    J: float                     # E(T0) - E(lowest singlet), meV
    t0_energy: float             # Rayleigh quotient of the T0 vector
    hubbard: HubbardParams
    mode: AssemblyMode


T0_VECTOR = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def solve(params: DeviceParams, imp: Impurity | None = None,
          mode: AssemblyMode = AssemblyMode.PAPER) -> SpectrumResult:
    """Assemble and diagonalize the two-electron model at one parameter point.

    J is the signed singlet-triplet splitting E(T0) - E(S): the T0 vector
    is an exact eigenvector of every assembly (its eigenpair is found by
    overlap), and E(S) is the lowest remaining level.  A negative J means
    the triplet has dropped below the singlet.
    """
    hp = hubbard_parameters(params, imp)
    H = assemble_matrix(hp, mode)
    evals, evecs = jacobi_eigh(H)
    i_t0 = int(np.argmax(np.abs(T0_VECTOR @ evecs)))
    e_singlet = float(np.min(np.delete(evals, i_t0)))
    return SpectrumResult(
        eigenvalues=evals, eigenvectors=evecs,
        J=float(evals[i_t0]) - e_singlet,
        t0_energy=float(T0_VECTOR @ H @ T0_VECTOR),
        hubbard=hp, mode=mode,
    )


def exchange_J(params: DeviceParams, imp: Impurity | None = None,
               mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    """Signed exchange splitting J = E(T0) - E(lowest singlet) in meV."""
    return solve(params, imp, mode).J


def exchange_J_ghz(params: DeviceParams, imp: Impurity | None = None,
                   mode: AssemblyMode = AssemblyMode.PAPER) -> float:
    return exchange_J(params, imp, mode) * derive_constants(params).frequency_conversion


def hubbard_exchange_estimate(hp: HubbardParams) -> float:
    """Second-order estimate J ~ 2t^2/(dU+eps) + 2t^2/(dU-eps)  [meV]."""
    du = hp.delta_u
    eps = hp.detuning
    if abs(du - abs(eps)) <= 1e-12 * max(du, 1e-30):
        raise ZeroDivisionError(
            f"detuning {eps:.6g} meV sits on the charge-transfer pole dU = {du:.6g} meV")
    return 2.0 * hp.t**2 / (du + eps) + 2.0 * hp.t**2 / (du - eps)
