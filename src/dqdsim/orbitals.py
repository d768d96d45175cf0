"""Harmonic-ground-state orbitals on the two dots and their Lowdin mixing.

phi_i(r) = (a_B sqrt(pi))^-1 exp(-|r - R_i|^2 / (2 a_B^2)), R_1,2 = (-/+a, 0).

The pair overlap is s = <phi_1|phi_2> = exp(-a^2/a_B^2), and the
symmetric orthonormalization M = O^(-1/2) of O = [[1, s], [s, 1]] is

    M = [[alpha, beta], [beta, alpha]],
    alpha = (1/sqrt(1+s) + 1/sqrt(1-s)) / 2,
    beta  = (1/sqrt(1+s) - 1/sqrt(1-s)) / 2.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import DeviceParams, derive_constants


class OrbitalBasis(NamedTuple):
    centers: tuple[tuple[float, float], tuple[float, float]]
    a_B: float
    s: float
    alpha: float
    beta: float

    @property
    def M(self) -> np.ndarray:
        return np.array([[self.alpha, self.beta], [self.beta, self.alpha]])

    @property
    def R(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=float)


def overlap_s(a: float, a_B: float) -> float:
    return float(np.exp(-(a / a_B) ** 2))


def lowdin_coefficients(s: float) -> tuple[float, float]:
    if not 0.0 <= s < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {s}")
    p = 1.0 / np.sqrt(1.0 + s)
    m = 1.0 / np.sqrt(1.0 - s)
    return 0.5 * (p + m), 0.5 * (p - m)


def build_basis(params: DeviceParams) -> OrbitalBasis:
    consts = derive_constants(params)
    a_B = consts.fock_darwin_radius
    s = overlap_s(params.a, a_B)
    alpha, beta = lowdin_coefficients(s)
    return OrbitalBasis(
        centers=((-params.a, 0.0), (params.a, 0.0)),
        a_B=a_B, s=s, alpha=alpha, beta=beta,
    )


def fock_darwin(x, y, center: tuple[float, float], a_B: float):
    """Ground-state orbital value at (x, y); normalized on the plane."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    return np.exp(-r2 / (2.0 * a_B**2)) / (a_B * np.sqrt(np.pi))


def overlap_matrix(basis: OrbitalBasis) -> np.ndarray:
    return np.array([[1.0, basis.s], [basis.s, 1.0]])
