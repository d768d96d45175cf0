"""Shared fixtures: the default device, its basis, its closed-form build,
the reference impurity used across the suite, and the recorder of the
levels step."""

import os
from pathlib import Path

import numpy as np
import pytest

from dqdsim import (
    DeviceParams,
    build_basis,
    default_impurity,
    derive_constants,
    hamiltonian,
    noise,
)
from dqdsim.integrals import _device_integrals

# pyproject's pythonpath puts src on this process's path; the CLI tests'
# subprocesses import the package from the same checkout.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def params():
    return DeviceParams()


@pytest.fixture(scope="session")
def consts(params):
    return derive_constants(params)


@pytest.fixture(scope="session")
def basis(params):
    return build_basis(params)


@pytest.fixture(scope="session")
def impurity(params):
    return default_impurity(params)


@pytest.fixture(scope="session")
def tables(params):
    """(basis, kinetic, confinement, bump, coulomb) of the default device."""
    return _device_integrals(params)


@pytest.fixture
def eigen_stacks(monkeypatch):
    """start(): from then on, a copy of every stack (N, n, n) that a solve
    hands to hamiltonian.jacobi_eigh, the one levels step, in call order.
    Tests count the eigen step here, never inside the eigensolver.  start
    forgets every J0 kept so far, so a matched-J grid solves its own."""
    def start() -> list:
        noise._j0_ghz.cache_clear()
        stacks, real = [], hamiltonian.jacobi_eigh
        monkeypatch.setattr(hamiltonian, "jacobi_eigh",
                            lambda H: stacks.append(np.array(H)) or real(H))
        return stacks
    return start
