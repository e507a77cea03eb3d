"""Condensate parameters, natural units, and the homogeneous Bogoliubov spectrum.

Everything downstream works in natural units: momenta in k0 = sqrt(8 pi a n0),
angular frequencies in omega0 = hbar k0^2 / (2 m).  In these units the
quasiparticle dispersion is omega_bar(kbar) = kbar*sqrt(2 + kbar^2), which
interpolates between the phonon branch sqrt(2)*kbar and the free-particle
branch kbar^2.  SI values enter only through `PhysicalParams` and leave only
through its scales `k0` and `omega0`.

The module also holds what config resolution needs from the numerical
layers: the rate channel (`Channel`), the drive and output grid of a
trajectory (`DriveConfig`) and the errors the commands report
(`QuadratureError`, `IntegrationError`).  `rates` and `dynamics` import
them from here.  This module uses the standard library alone, so a config
is resolved without loading numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum

HBAR = 1.054571817e-34  # J s (CODATA 2018)
K_BOLTZMANN = 1.380649e-23  # J/K (exact, SI 2019)
MASS_NA23 = 3.8175e-26  # kg, 23Na


class ParameterError(ValueError):
    """A physical parameter is outside its allowed domain."""


def as_double(name: str, value) -> float:
    """float(value); a Python int beyond the double range is a
    ParameterError here, not an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} is an integer beyond the double range") from None


#: Field metadata of a numeric dataclass field: its domain, besides being
#: finite.  A field whose default is None may also be None.
POSITIVE = {"domain": "positive"}
NONNEGATIVE = {"domain": ">= 0"}


def checked_field(spec, value) -> float | None:
    """value as the float that the dataclass field spec stores; a
    ParameterError outside the field's domain."""
    if value is None and spec.default is None:
        return None
    value = as_double(spec.name, value)
    domain = spec.metadata["domain"]
    # written so that a NaN fails the check
    if not ((value > 0.0 if domain == "positive" else value >= 0.0) and math.isfinite(value)):
        raise ParameterError(f"{spec.name} must be {domain} and finite, got {value}")
    return value


def _store_checked_fields(instance) -> None:
    # a Python caller may pass an int: 500 and 500.0 are the same value and
    # must print the same
    for spec in fields(instance):
        value = checked_field(spec, getattr(instance, spec.name))
        object.__setattr__(instance, spec.name, value)


@dataclass(frozen=True)
class PhysicalParams:
    """Condensate and atomic constants in SI units.

    scattering_length_a : intraspecies s-wave scattering length (m)
    atomic_mass         : kg
    condensate_density_n0 : m^-3
    atom_count_N0       : dimensionless, the condensate atoms that the
                          depletion flag of a trajectory compares against
    temperature_T       : K
    a_bc                : interspecies s-wave scattering length (m) of the
                          second internal level; None for one level

    k0 and omega0 are the natural-unit scales.  hbar * omega0 = g * n0 is
    the interaction energy per atom, with the contact coupling
    g = 4 pi hbar^2 a / m.
    """

    scattering_length_a: float = field(metadata=POSITIVE)
    atomic_mass: float = field(metadata=POSITIVE)
    condensate_density_n0: float = field(metadata=POSITIVE)
    atom_count_N0: float = field(metadata=POSITIVE)
    temperature_T: float = field(default=0.0, metadata=NONNEGATIVE)
    a_bc: float | None = field(default=None, metadata=POSITIVE)

    def __post_init__(self) -> None:
        _store_checked_fields(self)
        # the rates and the dynamics divide by these scales and by k0^3/n0
        k0 = self.k0
        scales = {
            "k0": k0,
            "k0^3/n0": k0 * k0 * k0 / self.condensate_density_n0,
            "hbar*omega0": HBAR * self.omega0,
        }
        for name, value in scales.items():
            if not sys.float_info.min <= value < math.inf:
                raise ParameterError(
                    f"natural-unit scale {name} = {value:.3g} is out of double "
                    "range for these parameters"
                )

    @property
    def k0(self) -> float:
        """Momentum scale sqrt(8 pi a n0) (m^-1)."""
        return math.sqrt(8.0 * math.pi * self.scattering_length_a * self.condensate_density_n0)

    @property
    def omega0(self) -> float:
        """Frequency scale hbar k0^2 / 2m (s^-1)."""
        k0 = self.k0
        return HBAR * k0 * k0 / (2.0 * self.atomic_mass)

    @property
    def bc_scattering_length(self) -> float:
        """Interspecies scattering length; defaults to the intraspecies value."""
        if self.a_bc is not None:
            return self.a_bc
        return self.scattering_length_a


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
        # written so that a NaN fails each check
        if not self.u >= 1.0 - 1e-12:
            raise ParameterError(f"u must be >= 1, got {self.u}")
        if not abs(self.v - self.alpha * self.u) <= 1e-12 * max(1.0, self.v):
            raise ParameterError("v must equal alpha*u")
        norm = self.u * self.u - self.v * self.v
        if not abs(norm - 1.0) <= 1e-12 * max(1.0, self.u * self.u):
            raise ParameterError(f"u^2 - v^2 must be 1, got {norm}")


def dispersion(kbar: float) -> float:
    """omega_bar(kbar) = kbar*sqrt(2 + kbar^2)."""
    kbar = as_double("kbar", kbar)
    if not (kbar >= 0.0 and math.isfinite(kbar)):
        raise ParameterError(f"kbar must be >= 0, got {kbar}")
    omega_bar = kbar * math.sqrt(2.0 + kbar * kbar)
    if omega_bar == math.inf:
        raise ParameterError(f"kbar = {kbar:.3g} is too large: omega_bar overflows")
    return omega_bar


def bogoliubov_mode(kbar: float) -> BogoliubovMode:
    """Mode coefficients at dimensionless momentum kbar > 0.

    alpha is evaluated as 1/(1 + kbar^2 + omega_bar), which is algebraically
    identical to 1 + kbar^2 - kbar*sqrt(2 + kbar^2) but free of cancellation
    at large kbar; u comes from the exact identity
    u^2 = (1 + kbar^2 + omega_bar)/(2*omega_bar), so u^2 - v^2 = 1 holds to
    machine precision by construction.  Below kbar ~ 7.85e-17, where
    omega_bar ~ sqrt(2)*kbar is under half an ulp of 1, the denominator
    rounds to 1 and no pair u, v is left to represent; above kbar ~ 9.48e153
    it overflows, though omega_bar itself is still finite.
    """
    kbar = as_double("kbar", kbar)
    if not (kbar > 0.0 and math.isfinite(kbar)):
        raise ParameterError(f"kbar must be > 0 (k=0 is the condensate), got {kbar}")
    w = dispersion(kbar)
    denom = 1.0 + kbar * kbar + w
    if denom == 1.0:
        raise ParameterError(
            f"kbar = {kbar:.3g} is too small: v/u rounds to 1, "
            "so u^2 - v^2 = 1 cannot hold in doubles"
        )
    if denom == math.inf:
        raise ParameterError(f"kbar = {kbar:.3g} is too large: 1 + kbar^2 + omega_bar overflows")
    alpha = 1.0 / denom
    u = math.sqrt(denom / (2.0 * w))
    v = alpha * u
    return BogoliubovMode(kbar=kbar, alpha=alpha, u=u, v=v, omega_bar=w)


def thermal_population(omega: float, temperature_T: float) -> float:
    """Planck occupation [exp(hbar*omega/kB*T) - 1]^-1; exactly 0 at T = 0.

    omega in s^-1 (SI angular frequency), temperature in K.
    """
    omega, temperature_T = as_double("omega", omega), as_double("temperature_T", temperature_T)
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ParameterError(f"omega must be > 0, got {omega}")
    if not (temperature_T >= 0.0 and math.isfinite(temperature_T)):
        raise ParameterError(f"temperature_T must be >= 0 and finite, got {temperature_T}")
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


# ---------------------------------------------------------------------------
# command inputs and errors, shared by cli, rates and dynamics


class Channel(Enum):
    SINGLE_LEVEL = "single_level"
    TWO_LEVEL = "two_level"


class QuadratureError(RuntimeError):
    """Refinement hit its cap or gave a negative width; carries the partial result."""

    def __init__(self, message: str, partial_rate_s: float, error_estimate_s: float):
        super().__init__(message)
        self.partial_rate_s = partial_rate_s
        self.error_estimate_s = error_estimate_s


class IntegrationError(RuntimeError):
    """Integration failed; carries the last valid dynamics.MomentState."""

    def __init__(self, message: str, last_valid):
        super().__init__(message)
        self.last_valid = last_valid


#: Longest trajectory, in output steps, that a DriveConfig accepts.
MAX_OUTPUT_STEPS = 1_000_000

#: Most (qbar, temperature) points that a config's rate grid may hold.
MAX_RATE_POINTS = 1_000_000


@dataclass(frozen=True)
class DriveConfig:
    """Drive and output-grid settings.

    rabi_effective : pair-creation drive strength Omega (s^-1), collective
                     enhancement included; default 1e3
    qbar_recoil    : recoil momentum of the driven quasiparticle mode, in k0;
                     default 5
    gamma_override : fixed damping rate (s^-1) instead of the computed one;
                     default None, the computed rate
    t_max          : trajectory length (s); default 6e-3
    dt_output      : output sample spacing (s), at most t_max; default 1e-5
    """

    rabi_effective: float = field(default=1e3, metadata=NONNEGATIVE)
    qbar_recoil: float = field(default=5.0, metadata=POSITIVE)
    gamma_override: float | None = field(default=None, metadata=NONNEGATIVE)
    t_max: float = field(default=6e-3, metadata=POSITIVE)
    dt_output: float = field(default=1e-5, metadata=POSITIVE)

    def __post_init__(self) -> None:
        _store_checked_fields(self)
        if self.dt_output > self.t_max:
            raise ParameterError(
                f"dt_output = {self.dt_output:.6g} s exceeds t_max = {self.t_max:.6g} s"
            )
        if self.t_max / self.dt_output == math.inf or self.output_steps > MAX_OUTPUT_STEPS:
            raise ParameterError(
                f"t_max/dt_output = {self.t_max / self.dt_output:.10g} output steps "
                f"exceeds the limit of {MAX_OUTPUT_STEPS}"
            )

    @property
    def output_steps(self) -> int:
        """Steps on the output grid.

        t_max/dt_output counts as the integer within 1e-12 of it, if there is
        one (0.3/0.1 = 2.9999999999999996 is 3 steps), and is rounded down
        otherwise, so the last sample never passes t_max beyond roundoff.
        """
        ratio = self.t_max / self.dt_output
        steps = round(ratio)
        if abs(ratio - steps) > 1e-12 * ratio:
            steps = math.floor(ratio)
        return steps


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
