"""Exchange-interaction simulator for a two-electron double quantum dot.

dqdsim models a gate-defined double dot in the two-site molecular-orbital
picture: a biquadratic-plus-Gaussian confinement potential, Fock-Darwin
ground orbitals symmetrically orthonormalized on the two minima, closed-form
one- and two-body matrix elements, and a four-level two-electron Hamiltonian
whose singlet-triplet splitting J responds to tilt (detuning) and barrier
controls.  A static charged impurity perturbs the matrix elements, giving
shot-to-shot exchange noise; the package quantifies that noise for both
control schemes and the resulting dephasing quality factor.
"""

from .model import (
    DeviceParams,
    Impurity,
    central_curvatures,
    config_to_objects,
    control_point,
    derive_constants,
    read_config,
    validate_params,
    COULOMB_VACUUM,
    HBAR2_OVER_2ME,
    MEV_TO_GHZ,
)
from .potential import (
    constraint_report,
    eval_potential,
    eval_vx,
    gaussian_barrier,
    quartic_pieces,
)
from .orbitals import (
    build_basis,
    fock_darwin,
    lowdin_coefficients,
    overlap_matrix,
    overlap_s,
)
from .integrals import (
    coulomb_element,
    i0e,
    impurity_element,
    kinetic_element,
    potential_element,
)
from .hamiltonian import (
    AssemblyMode,
    HubbardParams,
    T0_VECTOR,
    assemble_matrix,
    exchange_J_ghz,
    hubbard_exchange_estimate,
    hubbard_parameters,
    solve,
)
from .noise import (
    BARRIER_BRACKET,
    CalibrationError,
    ChiRecord,
    NoiseRecord,
    QualityModel,
    TILT_BRACKET,
    calibrate_barrier,
    calibrate_many,
    calibrate_tilt,
    default_impurity,
    delta_J,
    envelope_closed,
    envelope_numeric,
    hubbard_noise_estimate,
    improvement_factor,
    improvement_factors,
    matched_j_grid,
    noise_records,
    quality_factor,
    sigma_total,
    sweep,
    sweet_spot_check,
    t_star_ns,
)

__version__ = "0.1.0"

# The oracle's names, imported on first use: only `dqdsim validate` and the
# tests need them, and `quadrature` with numpy.polynomial would otherwise be
# the larger part of the package's own import time.
_QUADRATURE_NAMES = ("OracleRefusal", "OracleResult", "oracle_overlap", "quadrature_oracle")


def __getattr__(name):
    if name in _QUADRATURE_NAMES:
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AssemblyMode",
    "BARRIER_BRACKET",
    "CalibrationError",
    "ChiRecord",
    "COULOMB_VACUUM",
    "DeviceParams",
    "HBAR2_OVER_2ME",
    "HubbardParams",
    "Impurity",
    "MEV_TO_GHZ",
    "NoiseRecord",
    "OracleRefusal",
    "OracleResult",
    "QualityModel",
    "T0_VECTOR",
    "TILT_BRACKET",
    "assemble_matrix",
    "build_basis",
    "calibrate_barrier",
    "calibrate_many",
    "calibrate_tilt",
    "central_curvatures",
    "config_to_objects",
    "constraint_report",
    "control_point",
    "coulomb_element",
    "default_impurity",
    "delta_J",
    "derive_constants",
    "envelope_closed",
    "envelope_numeric",
    "eval_potential",
    "eval_vx",
    "exchange_J_ghz",
    "fock_darwin",
    "gaussian_barrier",
    "hubbard_exchange_estimate",
    "hubbard_noise_estimate",
    "hubbard_parameters",
    "i0e",
    "improvement_factor",
    "improvement_factors",
    "impurity_element",
    "kinetic_element",
    "lowdin_coefficients",
    "matched_j_grid",
    "noise_records",
    "oracle_overlap",
    "overlap_matrix",
    "overlap_s",
    "potential_element",
    "quadrature_oracle",
    "quality_factor",
    "quartic_pieces",
    "read_config",
    "sigma_total",
    "solve",
    "sweep",
    "sweet_spot_check",
    "t_star_ns",
    "validate_params",
    "__version__",
]
