"""The plain records are typing.NamedTuples with the fields, defaults and
repr they had as frozen dataclasses; the records that are lru_cache keys
(and that callers copy with dataclasses.replace) stay frozen dataclasses."""
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from dqdsim.hamiltonian import HubbardParams, SpectrumResult
from dqdsim.model import (CheckResult, DerivedConstants, DeviceParams, Impurity,
                          ValidationReport, validate_params)
from dqdsim.noise import QualityModel
from dqdsim.orbitals import OrbitalBasis
from dqdsim.potential import QuarticPiece

# Each record's fields in order with their defaults, a sample instance, and
# the repr that the frozen dataclass gave that instance.  CheckResult lost
# its residual field, and SpectrumResult its eigenvectors, which no caller read.
RECORDS = {
    DerivedConstants: (
        {"fock_darwin_radius": None, "barrier_height": None, "kinetic_scale": None,
         "coulomb_scale": None, "m_omega2": None},
        lambda: DerivedConstants(1.5, 0.25, 38.0, 110.0, 0.5),
        "DerivedConstants(fock_darwin_radius=1.5, barrier_height=0.25, kinetic_scale=38.0, "
        "coulomb_scale=110.0, m_omega2=0.5)"),
    CheckResult: (
        {"name": None, "passed": None},
        lambda: CheckResult("0 < a < inf", True),
        "CheckResult(name='0 < a < inf', passed=True)"),
    ValidationReport: (
        {"checks": None},
        lambda: ValidationReport((CheckResult("xi finite", True),)),
        "ValidationReport(checks=(CheckResult(name='xi finite', passed=True),))"),
    QuarticPiece: (
        {"center": None, "mu": None, "k2": None, "c3": None, "c4": None},
        lambda: QuarticPiece(-100.0, -0.5, 0.25, 1e-3, 2e-6),
        "QuarticPiece(center=-100.0, mu=-0.5, k2=0.25, c3=0.001, c4=2e-06)"),
    OrbitalBasis: (
        {"centers": None, "a_B": None, "s": None, "alpha": None, "beta": None},
        lambda: OrbitalBasis(((-100.0, 0.0), (100.0, 0.0)), 106.5, 0.25, 1.5, -0.5),
        "OrbitalBasis(centers=((-100.0, 0.0), (100.0, 0.0)), a_B=106.5, s=0.25, alpha=1.5, "
        "beta=-0.5)"),
    SpectrumResult: (
        {"eigenvalues": None, "J": None, "t0_energy": None},
        lambda: SpectrumResult(np.array([1.0, 2.0]), 0.5, 1.5),
        "SpectrumResult(eigenvalues=array([1., 2.]), J=0.5, t0_energy=1.5)"),
    HubbardParams: (
        {"t": None, "U1": None, "U2": None, "U12": None, "mu1": None, "mu2": None,
         "Zt1": 0.0, "Zt2": 0.0, "Zt12": 0.0, "exchange_k": 0.0, "corr_hop1": 0.0,
         "corr_hop2": 0.0, "offset": 0.0},
        lambda: HubbardParams(0.005, 1.33, 1.33, 0.64, -0.25, 0.25, Zt12=0.01),
        "HubbardParams(t=0.005, U1=1.33, U2=1.33, U12=0.64, mu1=-0.25, mu2=0.25, Zt1=0.0, "
        "Zt2=0.0, Zt12=0.01, exchange_k=0.0, corr_hop1=0.0, corr_hop2=0.0, offset=0.0)"),
    QualityModel: (
        {"sigma_rel": None, "sigma_floor_ghz": 0.0},
        lambda: QualityModel(0.02),
        "QualityModel(sigma_rel=0.02, sigma_floor_ghz=0.0)"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestNamedTupleRecords:
    def test_is_a_named_tuple_not_a_dataclass(self, cls):
        assert issubclass(cls, tuple) and hasattr(cls, "_fields")
        assert not dataclasses.is_dataclass(cls)

    def test_fields_order_and_defaults_are_the_dataclasses(self, cls):
        fields, _, _ = RECORDS[cls]
        assert cls._fields == tuple(fields)
        assert cls._field_defaults == {k: v for k, v in fields.items() if v is not None}

    def test_repr_is_the_dataclasses(self, cls):
        _, make, text = RECORDS[cls]
        assert repr(make()) == text

    def test_a_field_cannot_be_assigned(self, cls):
        record = RECORDS[cls][1]()
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


def test_a_quality_model_has_no_floor_by_default():
    assert QualityModel(0.02).sigma_floor_ghz == 0.0


def test_methods_and_properties_survive():
    piece = QuarticPiece(-100.0, -0.5, 0.25, 1e-3, 2e-6)
    assert piece(-100.0) == 0.5 and piece.deriv(-100.0) == 0.0
    assert piece.poly_coeffs().tolist() == [0.5, 0.0, 0.125, 1e-3, 2e-6]
    basis = OrbitalBasis(((-100.0, 0.0), (100.0, 0.0)), 106.5, 0.25, 1.5, -0.5)
    assert basis.M.tolist() == [[1.5, -0.5], [-0.5, 1.5]]
    assert basis.R.tolist() == [[-100.0, 0.0], [100.0, 0.0]]
    assert validate_params(DeviceParams()).ok
    hp = HubbardParams(0.005, 1.33, 1.33, 0.64, -0.25, 0.25)
    assert hp.delta_u == 0.5 * (1.33 + 1.33) - 0.64 and hp.detuning == 0.5
    assert not ValidationReport((CheckResult("xi finite", False),)).ok


@pytest.mark.parametrize("cls", [DeviceParams, Impurity], ids=lambda cls: cls.__name__)
def test_replaced_and_cached_records_stay_frozen_dataclasses(cls):
    assert dataclasses.is_dataclass(cls) and not issubclass(cls, tuple)
    assert cls.__dataclass_params__.frozen


def test_the_cache_keys_are_the_only_dataclasses_the_cli_loads():
    code = ("import dataclasses, sys, dqdsim.cli\n"
            "print(sorted(f'{m.__name__}.{k}' for n, m in list(sys.modules.items())"
            " if n.startswith('dqdsim') for k, v in vars(m).items()"
            " if isinstance(v, type) and dataclasses.is_dataclass(v)"
            " and v.__module__ == m.__name__))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['dqdsim.model.DeviceParams', 'dqdsim.model.Impurity']"
