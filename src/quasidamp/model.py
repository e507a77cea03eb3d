"""Condensate parameters, natural units, and the homogeneous Bogoliubov spectrum.

Everything downstream works in natural units: momenta in k0 = sqrt(8 pi a n0),
angular frequencies in omega0 = hbar k0^2 / (2 m).  In these units the
quasiparticle dispersion is omega_bar(kbar) = kbar*sqrt(2 + kbar^2), which
interpolates between the phonon branch sqrt(2)*kbar and the free-particle
branch kbar^2.  SI values enter only through `PhysicalParams` and leave only
through `UnitSystem`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields

HBAR = 1.054571817e-34  # J s (CODATA 2018)
K_BOLTZMANN = 1.380649e-23  # J/K (exact, SI 2019)
MASS_NA23 = 3.8175e-26  # kg, 23Na


class ParameterError(ValueError):
    """A physical parameter is outside its allowed domain."""


@dataclass(frozen=True)
class TwoLevelParams:
    """Second internal level: interspecies s-wave scattering length (m)."""

    a_bc: float

    def __post_init__(self) -> None:
        if not (self.a_bc > 0.0 and math.isfinite(self.a_bc)):
            raise ParameterError(f"a_bc must be positive and finite, got {self.a_bc}")


@dataclass(frozen=True)
class PhysicalParams:
    """Condensate and atomic constants in SI units.

    scattering_length_a : intraspecies s-wave scattering length (m)
    atomic_mass         : kg
    condensate_density_n0 : m^-3
    atom_count_N0       : dimensionless, the condensate atoms that the
                          depletion flag of a trajectory compares against
    temperature_T       : K
    two_level           : optional second-level parameters
    """

    scattering_length_a: float
    atomic_mass: float
    condensate_density_n0: float
    atom_count_N0: float
    temperature_T: float = 0.0
    two_level: TwoLevelParams | None = None

    def __post_init__(self) -> None:
        # every field without a default is a positive physical quantity
        for field in fields(self):
            value = getattr(self, field.name)
            if field.default is MISSING and not (value > 0.0 and math.isfinite(value)):
                raise ParameterError(f"{field.name} must be positive and finite, got {value}")
        if not (self.temperature_T >= 0.0 and math.isfinite(self.temperature_T)):
            raise ParameterError(f"temperature_T must be >= 0, got {self.temperature_T}")
        # the rates and the dynamics divide by these scales and by k0^3/n0
        units = derive_units(self)
        scales = {
            "k0": units.k0,
            "k0^3/n0": units.k0 * units.k0 * units.k0 / self.condensate_density_n0,
            "hbar*omega0": HBAR * units.omega0,
        }
        for name, value in scales.items():
            if not sys.float_info.min <= value < math.inf:
                raise ParameterError(
                    f"natural-unit scale {name} = {value:.3g} is out of double "
                    "range for these parameters"
                )

    @property
    def bc_scattering_length(self) -> float:
        """Interspecies scattering length; defaults to the intraspecies value."""
        if self.two_level is not None:
            return self.two_level.a_bc
        return self.scattering_length_a


@dataclass(frozen=True)
class UnitSystem:
    """Derived natural-unit scales.

    k0     : momentum scale sqrt(8 pi a n0)  (m^-1)
    omega0 : frequency scale hbar k0^2 / 2m  (s^-1)

    hbar * omega0 = g * n0 is the interaction energy per atom, with the
    contact coupling g = 4 pi hbar^2 a / m.
    """

    k0: float
    omega0: float


def derive_units(params: PhysicalParams) -> UnitSystem:
    """Compute the natural-unit scales from SI parameters."""
    a = params.scattering_length_a
    m = params.atomic_mass
    n0 = params.condensate_density_n0
    k0 = math.sqrt(8.0 * math.pi * a * n0)
    omega0 = HBAR * k0 * k0 / (2.0 * m)
    return UnitSystem(k0=k0, omega0=omega0)


@dataclass(frozen=True)
class BogoliubovMode:
    """Transformation coefficients and frequency of one quasiparticle mode.

    kbar      : k / k0
    alpha     : v/u amplitude ratio, 0 <= alpha < 1 for kbar > 0
    u, v      : transformation coefficients, stored positive, u^2 - v^2 = 1
    omega_bar : omega / omega0 = kbar*sqrt(2 + kbar^2)
    """

    kbar: float
    alpha: float
    u: float
    v: float
    omega_bar: float

    def __post_init__(self) -> None:
        if not (self.kbar > 0.0 and self.omega_bar > 0.0):
            raise ParameterError("kbar and omega_bar must be > 0")
        if not (0.0 <= self.alpha < 1.0):
            raise ParameterError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.u < 1.0 - 1e-12:
            raise ParameterError(f"u must be >= 1, got {self.u}")
        if abs(self.v - self.alpha * self.u) > 1e-12 * max(1.0, self.v):
            raise ParameterError("v must equal alpha*u")
        norm = self.u * self.u - self.v * self.v
        if abs(norm - 1.0) > 1e-12 * max(1.0, self.u * self.u):
            raise ParameterError(f"u^2 - v^2 must be 1, got {norm}")


def dispersion(kbar: float) -> float:
    """omega_bar(kbar) = kbar*sqrt(2 + kbar^2)."""
    if not (kbar >= 0.0 and math.isfinite(kbar)):
        raise ParameterError(f"kbar must be >= 0, got {kbar}")
    omega_bar = kbar * math.sqrt(2.0 + kbar * kbar)
    if omega_bar == math.inf:
        raise ParameterError(f"kbar = {kbar:.3g} is too large: omega_bar overflows")
    return omega_bar


def group_velocity(kbar: float) -> float:
    """d(omega_bar)/d(kbar) = 2(1 + kbar^2)/sqrt(2 + kbar^2)."""
    return 2.0 * (1.0 + kbar * kbar) / math.sqrt(2.0 + kbar * kbar)


def bogoliubov_mode(kbar: float) -> BogoliubovMode:
    """Mode coefficients at dimensionless momentum kbar > 0.

    alpha is evaluated as 1/(1 + kbar^2 + omega_bar), which is algebraically
    identical to 1 + kbar^2 - kbar*sqrt(2 + kbar^2) but free of cancellation
    at large kbar; u comes from the exact identity
    u^2 = (1 + kbar^2 + omega_bar)/(2*omega_bar), so u^2 - v^2 = 1 holds to
    machine precision by construction.
    """
    if not (kbar > 0.0 and math.isfinite(kbar)):
        raise ParameterError(f"kbar must be > 0 (k=0 is the condensate), got {kbar}")
    w = dispersion(kbar)
    denom = 1.0 + kbar * kbar + w
    alpha = 1.0 / denom
    u = math.sqrt(denom / (2.0 * w))
    v = alpha * u
    return BogoliubovMode(kbar=kbar, alpha=alpha, u=u, v=v, omega_bar=w)


def inverse_dispersion(omega_bar: float) -> float:
    """Momentum kbar with dispersion(kbar) = omega_bar, for omega_bar >= 0.

    Uses kbar = omega_bar/sqrt(1 + sqrt(1 + omega_bar^2)) rather than the
    equivalent sqrt(sqrt(1 + omega_bar^2) - 1); the latter loses half the
    significant digits for omega_bar << 1.
    """
    if not (omega_bar >= 0.0 and math.isfinite(omega_bar)):
        raise ParameterError(f"omega_bar must be >= 0, got {omega_bar}")
    return omega_bar / math.sqrt(1.0 + math.hypot(1.0, omega_bar))


def thermal_population(omega: float, temperature_T: float) -> float:
    """Planck occupation [exp(hbar*omega/kB*T) - 1]^-1; exactly 0 at T = 0.

    omega in s^-1 (SI angular frequency), temperature in K.
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ParameterError(f"omega must be > 0, got {omega}")
    if temperature_T < 0.0:
        raise ParameterError(f"temperature_T must be >= 0, got {temperature_T}")
    if temperature_T == 0.0:
        return 0.0
    x = HBAR * omega / (K_BOLTZMANN * temperature_T)
    if x == 0.0:
        # hbar*omega underflowed; the ratio of ratios stays representable
        x = (HBAR / K_BOLTZMANN) * (omega / temperature_T)
        if x == 0.0:
            raise ParameterError(
                f"hbar*omega/(kB*T) underflows at omega = {omega}, T = {temperature_T}"
            )
    if x > 700.0:
        # expm1 would overflow; the occupation is exp(-x) to this precision
        # and underflows smoothly to 0.0 for still larger x.
        return math.exp(-x)
    return 1.0 / math.expm1(x)


#: Named parameter presets.  Nothing outside this table hard-codes a species.
PRESETS: dict[str, PhysicalParams] = {
    "sodium-paper": PhysicalParams(
        scattering_length_a=2.8e-9,
        atomic_mass=MASS_NA23,
        condensate_density_n0=1e20,
        atom_count_N0=1e6,
        temperature_T=0.0,
    ),
}
