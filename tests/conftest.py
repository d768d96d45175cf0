"""Shared fixtures: the default device, its basis/tables, and the
reference impurity used across the suite."""

import pytest

from dqdsim import (
    DeviceParams,
    build_basis,
    build_tables,
    default_impurity,
    derive_constants,
)


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
def tables(params, impurity):
    return build_tables(params, imp=impurity)
