"""Device parameters, unit system, and derived constants.

Everything internal runs in meV and nm.  Charges are in units of the
elementary charge e, masses in units of the bare electron mass.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

# --- fundamental combinations in meV/nm units -------------------------------
HBAR2_OVER_2ME = 38.09982   # hbar^2/(2 m_e)  [meV nm^2]
COULOMB_VACUUM = 1439.964   # e^2/(4 pi eps_0) [meV nm]
MEV_TO_GHZ = 241.799        # 1 meV in GHz (E/h)


@dataclass(frozen=True)
class DeviceParams:
    """One simulation point: geometry, confinement, material, controls.

    a            -- half the inter-dot separation [nm]
    hbar_omega0  -- harmonic confinement energy of each dot [meV]
    m_eff        -- effective mass ratio m*/m_e
    eps_r        -- relative permittivity
    epsilon      -- detuning between the well bottoms [meV]
    xi           -- central Gaussian barrier amplitude [meV]

    Detuning convention: epsilon = mu2 - mu1 with the well bottoms at
    V(-a) = -mu1 and V(+a) = -mu2, so positive epsilon deepens the dot
    at +a.  All noise magnitudes are invariant under flipping this
    convention jointly with the sign of the perturbative delta-epsilon.
    """
    a: float = 100.0
    hbar_omega0: float = 0.1
    m_eff: float = 0.067
    eps_r: float = 13.1
    epsilon: float = 0.0
    xi: float = 1.3

    @property
    def mu1(self) -> float:
        return -0.5 * self.epsilon

    @property
    def mu2(self) -> float:
        return +0.5 * self.epsilon


class DerivedConstants(NamedTuple):
    """Constants computed once from a DeviceParams."""
    fock_darwin_radius: float    # a_B [nm]
    barrier_height: float        # C = a^2 m* w0^2 / 12 [meV]
    kinetic_scale: float         # hbar^2/(2 m*) [meV nm^2]
    coulomb_scale: float         # e^2/(4 pi kappa) [meV nm]
    m_omega2: float              # m* w0^2 [meV / nm^2]


@dataclass(frozen=True)
class Impurity:
    """A point charge near the device.  q in units of e (default -1)."""
    x_c: float
    y_c: float
    q: float = -1.0

    def __post_init__(self):
        for name in ("x_c", "y_c", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"impurity {name} must be finite, got {getattr(self, name)}")


# -- control schemes ----------------------------------------------------------

def control_values(scheme: str, params: DeviceParams, value: float) -> tuple[float, float]:
    """(epsilon, xi) at one control value: "tilt" sets epsilon at the
    device's own barrier amplitude, "barrier" sets xi at zero detuning."""
    if scheme == "tilt":
        return value, params.xi
    if scheme == "barrier":
        return 0.0, value
    raise ValueError(f"unknown scheme {scheme!r}")


def control_point(scheme: str, params: DeviceParams, value: float) -> DeviceParams:
    """The device at one control value (see control_values)."""
    epsilon, xi = control_values(scheme, params, value)
    return dataclasses.replace(params, epsilon=epsilon, xi=xi)


def check_controls(epsilon: float, xi: float) -> None:
    """Reject a non-finite detuning or barrier amplitude, naming it."""
    for name, v in (("epsilon", epsilon), ("xi", xi)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def derive_constants(params: DeviceParams) -> DerivedConstants:
    """Populate DerivedConstants; rejects non-positive or non-finite inputs."""
    for name in ("a", "hbar_omega0", "m_eff", "eps_r"):
        v = getattr(params, name)
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")
    check_controls(params.epsilon, params.xi)
    kin = HBAR2_OVER_2ME / params.m_eff            # hbar^2/(2 m*)
    a_B2 = 2.0 * kin / params.hbar_omega0          # a_B^2 = (hbar^2/m*)/(hbar w0)
    m_omega2 = params.hbar_omega0**2 / (2.0 * kin)  # m* w0^2 in meV/nm^2
    return DerivedConstants(
        fock_darwin_radius=a_B2**0.5,
        barrier_height=params.a**2 * m_omega2 / 12.0,
        kinetic_scale=kin,
        coulomb_scale=COULOMB_VACUUM / params.eps_r,
        m_omega2=m_omega2,
    )


# -- validation ---------------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    passed: bool


class ValidationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_params(params: DeviceParams) -> ValidationReport:
    """Check finite, positive inputs and that the central barrier exists:
    both one-sided central_curvatures are non-positive."""
    checks = [CheckResult(f"0 < {name} < inf", 0 < getattr(params, name) < math.inf)
              for name in ("a", "hbar_omega0", "m_eff", "eps_r")]
    checks += [CheckResult(f"{name} finite", math.isfinite(getattr(params, name)))
               for name in ("epsilon", "xi")]
    if all(c.passed for c in checks):
        wells = ("well 1 (x=-a)", "well 2 (x=+a)")
        checks += [CheckResult(f"barrier exists vs {label}", curvature <= 0.0)
                   for label, curvature in zip(wells, central_curvatures(params))]
    return ValidationReport(checks=tuple(checks))


def central_curvatures(params: DeviceParams) -> tuple[float, float]:
    """One-sided d2V/dx2 at x=0 of the full potential (quartic + Gaussian).

    Closed form: (a^2 m* w0^2 - 12 mu_i - 12 C - 16 xi) / a^2.  Both must
    be <= 0 for the stationary point at the origin to be a barrier top.
    The -16 xi/a^2 term is the central curvature of the Gaussian barrier
    (sigma = a/4); without it the pure-quartic construction sits exactly
    at the degenerate point a^2 m* w0^2 = 12 C and any tilt would tip the
    shallow side over.
    """
    consts = derive_constants(params)
    base = params.a**2 * consts.m_omega2 - 12.0 * consts.barrier_height
    cl = (base - 12.0 * params.mu1 - 16.0 * params.xi) / params.a**2
    cr = (base - 12.0 * params.mu2 - 16.0 * params.xi) / params.a**2
    return cl, cr


# -- config file --------------------------------------------------------------

# Every setting of a config file, in the order a CSV header writes them: its
# key, and the record and field that its float value sets.
_SETTINGS = {
    "device.a_nm": (DeviceParams, "a"),
    "device.hbar_omega0_mev": (DeviceParams, "hbar_omega0"),
    "device.m_eff": (DeviceParams, "m_eff"),
    "device.eps_r": (DeviceParams, "eps_r"),
    "control.epsilon_mev": (DeviceParams, "epsilon"),
    "control.xi_mev": (DeviceParams, "xi"),
    "impurity.x_nm": (Impurity, "x_c"),
    "impurity.y_nm": (Impurity, "y_c"),
    "impurity.charge_e": (Impurity, "q"),
}


def read_config(path: str) -> dict[str, str]:
    """Parse a UTF-8 ``key = value`` file; '#' starts a comment.  A key is set once."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: {key} is set twice")
            out[key] = val.strip()
    return out


def _finite(name: str, values, positive: bool = False) -> None:
    """Reject a value that is not finite (or not positive), naming it."""
    for v in values:
        if not (0.0 if positive else -math.inf) < v < math.inf:
            raise ValueError(f"{name} must be {'positive and ' * positive}finite, got {v:.12g}")


def _fields(cfg: dict[str, str], record) -> dict[str, float]:
    """The fields of record that cfg sets, as floats.  A value that is not a
    float, then one that is not finite (or, at a device.* key, not
    positive), is named by its key."""
    values = {}
    for key, (rec, _) in _SETTINGS.items():
        if rec is record and key in cfg:
            try:
                values[key] = float(cfg[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    for key, v in values.items():
        _finite(key, [v], positive=key.startswith("device."))  # geometry and material
    return {_SETTINGS[key][1]: v for key, v in values.items()}


def config_to_objects(cfg: dict[str, str]) -> tuple[DeviceParams, Impurity | None]:
    """Map a flat config dict onto (DeviceParams, Impurity) through _SETTINGS.

    A fault is named in this order: a device value, an impurity value, a
    charge without a position, unknown keys."""
    params = DeviceParams(**_fields(cfg, DeviceParams))
    if "impurity.charge_e" in cfg and not cfg.keys() & {"impurity.x_nm", "impurity.y_nm"}:
        raise ValueError("impurity.charge_e given without impurity.x_nm or impurity.y_nm: "
                         "there is no impurity to charge")
    given = _fields(cfg, Impurity)  # a position; a coordinate not given is 0
    imp = Impurity(**{"x_c": 0.0, "y_c": 0.0} | given) if given else None
    unknown = cfg.keys() - _SETTINGS.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return params, imp
