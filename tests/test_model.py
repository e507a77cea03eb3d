"""Units, dispersion, and Bogoliubov mode functions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasidamp.model import (
    HBAR,
    K_BOLTZMANN,
    MASS_NA23,
    PRESETS,
    BogoliubovMode,
    Channel,
    DriveConfig,
    ParameterError,
    PhysicalParams,
    bogoliubov_mode,
    dispersion,
    thermal_population,
)
from quasidamp.rates import _momentum, decay_rates

SODIUM = PRESETS["sodium-paper"]

kbar_range = st.floats(min_value=1e-3, max_value=1e3)


# ---------------------------------------------------------------------------
# unit system


def test_sodium_preset_units():
    assert SODIUM.k0 == pytest.approx(2.65e6, rel=2e-3)
    assert SODIUM.omega0 == pytest.approx(9.72e3, rel=1e-3)
    # pinned to full precision so silent changes surface
    assert SODIUM.k0 == pytest.approx(2652766.017582617, rel=1e-12)
    assert SODIUM.omega0 == pytest.approx(9719.971923317471, rel=1e-12)


def test_unit_definitions_recoverable():
    a, m, n0 = SODIUM.scattering_length_a, SODIUM.atomic_mass, SODIUM.condensate_density_n0
    assert SODIUM.k0 == pytest.approx(math.sqrt(8 * math.pi * a * n0), rel=1e-12)
    assert SODIUM.omega0 == pytest.approx(HBAR * SODIUM.k0**2 / (2 * m), rel=1e-12)


def test_interaction_energy_equals_unit_frequency():
    # g n0 = hbar * omega0, with g = 4 pi hbar^2 a / m, is an identity of
    # this unit system, not a coincidence
    a, m, n0 = SODIUM.scattering_length_a, SODIUM.atomic_mass, SODIUM.condensate_density_n0
    assert HBAR * SODIUM.omega0 == pytest.approx(4 * math.pi * HBAR**2 * a * n0 / m, rel=1e-12)


def test_unit_scaling():
    quadrupled = PhysicalParams(
        scattering_length_a=SODIUM.scattering_length_a,
        atomic_mass=SODIUM.atomic_mass,
        condensate_density_n0=4 * SODIUM.condensate_density_n0,
        atom_count_N0=4 * SODIUM.atom_count_N0,
    )
    assert quadrupled.k0 == pytest.approx(2 * SODIUM.k0, rel=1e-12)
    assert quadrupled.omega0 == pytest.approx(4 * SODIUM.omega0, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "field,value",
    [
        ("scattering_length_a", 5e-324),  # k0^3/n0 underflows
        ("atomic_mass", 1e300),  # hbar*omega0 underflows
        ("condensate_density_n0", 1e300),  # k0^3 overflows
    ],
)
def test_params_reject_unrepresentable_natural_units(field, value):
    kwargs = dict(
        scattering_length_a=2.8e-9,
        atomic_mass=MASS_NA23,
        condensate_density_n0=1e20,
        atom_count_N0=1e6,
    )
    kwargs[field] = value
    with pytest.raises(ParameterError, match="out of double range"):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [
        ("scattering_length_a", -1e-9),
        ("scattering_length_a", 0.0),
        ("atomic_mass", 0.0),
        ("condensate_density_n0", -1.0),
        ("temperature_T", -1e-9),
    ],
)
def test_params_reject_nonphysical(field, value):
    kwargs = dict(
        scattering_length_a=2.8e-9,
        atomic_mass=MASS_NA23,
        condensate_density_n0=1e20,
        atom_count_N0=1e6,
    )
    kwargs[field] = value
    with pytest.raises(ParameterError):
        PhysicalParams(**kwargs)


def test_two_level_params_validate():
    p = PhysicalParams(
        scattering_length_a=2.8e-9,
        atomic_mass=MASS_NA23,
        condensate_density_n0=1e20,
        atom_count_N0=1e6,
        a_bc=1.4e-9,
    )
    assert p.bc_scattering_length == 1.4e-9
    with pytest.raises(ParameterError, match="a_bc must be positive and finite"):
        dataclasses.replace(p, a_bc=0.0)
    # default: no second level declared -> bc coupling falls back to a_bb
    assert SODIUM.bc_scattering_length == SODIUM.scattering_length_a


#: A Python int that float() cannot hold: every entry point must reject it
#: as a parameter, not end in OverflowError.
_HUGE = 10**400
_HUGE_ENTRY_POINTS = {
    **{
        f"DriveConfig.{name}": lambda name=name: DriveConfig(
            **{"rabi_effective": 1e3, "qbar_recoil": 5.0, name: _HUGE}
        )
        for name in ("rabi_effective", "qbar_recoil", "gamma_override", "t_max", "dt_output")
    },
    **{
        f"PhysicalParams.{field.name}": lambda name=field.name: dataclasses.replace(
            SODIUM, **{name: _HUGE}
        )
        for field in dataclasses.fields(PhysicalParams)
    },
    "dispersion": lambda: dispersion(_HUGE),
    "bogoliubov_mode": lambda: bogoliubov_mode(_HUGE),
    "thermal_population.omega": lambda: thermal_population(_HUGE, 1e-6),
    "thermal_population.temperature_T": lambda: thermal_population(1e3, _HUGE),
    "decay_rates.qbar": lambda: decay_rates(SODIUM, Channel.SINGLE_LEVEL, [_HUGE], [0.0]),
    "decay_rates.temperature": lambda: decay_rates(SODIUM, Channel.SINGLE_LEVEL, [5.0], [_HUGE]),
}


@pytest.mark.parametrize("entry", _HUGE_ENTRY_POINTS)
def test_int_beyond_double_range_is_a_parameter_error(entry):
    with pytest.raises(ParameterError, match="beyond the double range"):
        _HUGE_ENTRY_POINTS[entry]()


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_values():
    assert dispersion(1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert dispersion(5.0) == pytest.approx(5 * math.sqrt(27.0), rel=1e-15)


def test_phonon_limit():
    # omega ~ sqrt(2) k (1 + k^2/4 + ...) for small k
    for kbar in np.geomspace(1e-6, 9.9e-3, 40):
        ratio = dispersion(kbar) / (math.sqrt(2) * kbar)
        assert 1.0 <= ratio <= (1 + kbar**2 / 4) * 1.01


def test_free_particle_limit():
    for kbar in (1e2, 1e3):
        assert dispersion(kbar) == pytest.approx(kbar**2 + 1.0, rel=1e-4)


# rates._momentum is the inverse of the dispersion that the rates use


@given(kbar_range)
def test_inverse_dispersion_roundtrip(kbar):
    assert _momentum(dispersion(kbar)) == pytest.approx(kbar, rel=1e-12)


def test_inverse_dispersion_roundtrip_grid():
    # fixed 1000-point log grid, round trip through both directions
    grid = np.geomspace(1e-3, 1e3, 1000)
    for kbar in grid:
        assert _momentum(dispersion(kbar)) == pytest.approx(kbar, rel=1e-12)
    omegas = np.geomspace(dispersion(1e-3), dispersion(1e3), 1000)
    for w in omegas:
        assert dispersion(_momentum(w)) == pytest.approx(w, rel=1e-12)


def test_dispersion_domain():
    with pytest.raises(ParameterError):
        dispersion(-0.1)
    assert dispersion(0.0) == 0.0
    assert _momentum(0.0) == 0.0
    with pytest.raises(ParameterError, match="overflows"):
        dispersion(1e160)


# ---------------------------------------------------------------------------
# Bogoliubov mode functions


def test_mode_at_unit_momentum():
    mode = bogoliubov_mode(1.0)
    assert mode.alpha == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)
    assert mode.alpha == pytest.approx(0.2679492, abs=1e-7)
    assert mode.omega_bar == pytest.approx(math.sqrt(3.0), rel=1e-14)
    # u, v pinned at the exact solutions of the defining identities
    assert mode.u == pytest.approx(1.0379548493020425, rel=1e-13)
    assert mode.v == pytest.approx(0.27811916365045, rel=1e-12)


def test_mode_depletion_weight_at_recoil():
    assert bogoliubov_mode(5.0).v ** 2 == pytest.approx(3.702e-4, rel=1e-3)


@given(kbar_range)
def test_mode_identities(kbar):
    mode = bogoliubov_mode(kbar)
    assert 0.0 <= mode.alpha < 1.0
    assert mode.u >= 1.0
    assert mode.v == pytest.approx(mode.alpha * mode.u, rel=1e-13)
    # normalization; relative because u^2 grows like 1/kbar at small kbar
    assert mode.u**2 - mode.v**2 == pytest.approx(1.0, rel=1e-12, abs=1e-12)
    assert mode.omega_bar == pytest.approx(dispersion(kbar), rel=1e-14)


@given(kbar_range)
def test_mode_combination_identities(kbar):
    # (u - v)^2 = kbar^2/omega, (u + v)^2 = omega/kbar^2, product = 1
    mode = bogoliubov_mode(kbar)
    s, d = mode.u - mode.v, mode.u + mode.v
    assert s * s == pytest.approx(kbar**2 / mode.omega_bar, rel=1e-10)
    assert d * d == pytest.approx(mode.omega_bar / kbar**2, rel=1e-10)
    assert s * d == pytest.approx(1.0, rel=1e-10)


def test_mode_limits():
    small = bogoliubov_mode(1e-3)
    assert small.alpha > 0.99  # phonon regime: u ~ v
    large = bogoliubov_mode(1e3)
    assert large.alpha < 1e-5 and large.u == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ParameterError):
        bogoliubov_mode(0.0)
    # below kbar ~ 7.85e-17, 1 + kbar^2 + omega_bar rounds to 1 and alpha to 1
    assert bogoliubov_mode(7.9e-17).alpha < 1.0
    with pytest.raises(ParameterError) as raised:
        bogoliubov_mode(7.8e-17)
    assert str(raised.value) == (
        "kbar = 7.8e-17 is too small: v/u rounds to 1, so u^2 - v^2 = 1 cannot hold in doubles"
    )
    # above kbar ~ 9.48e153, 1 + kbar^2 + omega_bar overflows while omega_bar does not
    assert bogoliubov_mode(9.48e153).u == 1.0
    with pytest.raises(ParameterError) as raised:
        bogoliubov_mode(9.49e153)
    assert str(raised.value) == (
        "kbar = 9.49e+153 is too large: 1 + kbar^2 + omega_bar overflows"
    )


def test_mode_dataclass_validates():
    with pytest.raises(ParameterError):
        BogoliubovMode(kbar=1.0, alpha=0.5, u=1.2, v=0.9, omega_bar=math.sqrt(3.0))
    # NaN coefficients fail the checks rather than slip past their comparisons
    for u, v in ((math.nan, math.nan), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            BogoliubovMode(kbar=1e154, alpha=0.0, u=u, v=v, omega_bar=1e308)


# ---------------------------------------------------------------------------
# thermal occupation


def test_thermal_population_examples():
    t_match = HBAR * SODIUM.omega0 / K_BOLTZMANN
    assert thermal_population(SODIUM.omega0, t_match) == pytest.approx(
        1.0 / (math.e - 1.0), rel=1e-12
    )
    assert thermal_population(SODIUM.omega0, t_match) == pytest.approx(0.5819767, rel=1e-7)


def test_thermal_population_zero_temperature_exact():
    assert thermal_population(SODIUM.omega0, 0.0) == 0.0
    assert thermal_population(1e-12, 0.0) == 0.0


@given(
    st.floats(min_value=1e-4, max_value=300.0),  # hbar*omega/kB*T
    st.floats(min_value=1e-9, max_value=1e-3),
)
def test_thermal_population_positive_and_monotone(x, temperature):
    omega = x * K_BOLTZMANN * temperature / HBAR
    n = thermal_population(omega, temperature)
    assert n > 0.0
    assert thermal_population(omega, 2 * temperature) > n
    assert thermal_population(2 * omega, temperature) < n


def test_thermal_population_extreme_ratio_underflows_to_zero():
    # far beyond exp overflow: occupation is indistinguishable from zero
    assert thermal_population(1e12, 1e-9) == 0.0


def test_thermal_population_underflowing_hbar_omega():
    # hbar*omega underflows to 0 at omega = 1e-290 s^-1; the occupation comes
    # from the ratio (hbar/kB)*(omega/T) instead of dividing by expm1(0)
    assert HBAR * 1e-290 == 0.0
    x = (HBAR / K_BOLTZMANN) * (1e-290 / 1e-300)
    assert thermal_population(1e-290, 1e-300) == 1.0 / math.expm1(x)
    with pytest.raises(ParameterError, match="underflows"):
        thermal_population(1e-320, 1e10)


def test_thermal_population_classical_limit():
    # k_B T >> hbar omega: n -> k_B T / (hbar omega)
    omega = 1e3
    temperature = 1e-3
    x = HBAR * omega / (K_BOLTZMANN * temperature)
    assert thermal_population(omega, temperature) == pytest.approx(1.0 / x, rel=1e-4)
