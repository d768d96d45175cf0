"""Closed-form elements against the quadrature oracle on sampled devices,
shared by `dqdsim validate` and the acceptance tests.  (`quadrature`
itself never imports `integrals`, which keeps the oracle independent.)"""
from __future__ import annotations

import math

import numpy as np

from .integrals import coulomb_element, impurity_element, kinetic_element, potential_element
from .model import HBAR2_OVER_2ME, DeviceParams, Impurity
from .orbitals import build_basis
from .quadrature import quadrature_oracle

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


def oracle_comparisons(rng: np.random.Generator, n_sets: int):
    """For n_sets sampled devices, each with a sampled impurity, yield
    (params, kind, idx, closed, oracle, rel) for every entry of
    ELEMENT_KINDS, where rel = |closed - oracle| / max(|oracle|, 1e-9)."""
    for _ in range(n_sets):
        params = sample_device(rng)
        imp = sample_impurity(rng, params.a)
        basis = build_basis(params)
        for kind, idx in ELEMENT_KINDS:
            extra = (imp,) if kind == "impurity" else ()
            closed = CLOSED_FORMS[kind](*idx, *extra, params, basis)
            oracle = quadrature_oracle((kind, *idx, *extra), params).value
            yield params, kind, idx, closed, oracle, abs(closed - oracle) / max(abs(oracle), 1e-9)
