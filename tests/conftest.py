"""Shared fixtures: the default device, its basis, its closed-form build,
and the reference impurity used across the suite."""

import os
from pathlib import Path

import pytest

from dqdsim import (
    DeviceParams,
    build_basis,
    default_impurity,
    derive_constants,
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
