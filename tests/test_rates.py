"""Spontaneous and stimulated quasiparticle decay widths."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from quasidamp import rates
from quasidamp.model import (
    HBAR,
    K_BOLTZMANN,
    PRESETS,
    ParameterError,
    PhysicalParams,
    TwoLevelParams,
    derive_units,
    dispersion,
    thermal_population,
)
from quasidamp.rates import (
    Channel,
    QuadratureError,
    RateGrid,
    EPSREL,
    TWO_LEVEL_FACTOR,
    _LIMIT,
    _refine,
    _setup,
    _valid_temperature,
    decay_rates,
)

from rate_reference import (
    beliaev_asymptote,
    beliaev_energy_integrand,
    first_error,
    grid_queries,
    integrals,
    landau_high_t,
    landau_low_t,
    refine_reference,
    solve_alone,
)

SODIUM = PRESETS["sodium-paper"]
SODIUM_TL = dataclasses.replace(
    SODIUM, two_level=TwoLevelParams(a_bc=SODIUM.scattering_length_a)
)


def single_level(qbar, T=0.0, params=SODIUM, epsrel=EPSREL):
    """The single-level widths at one point, as a 1x1 grid."""
    return decay_rates(params, Channel.SINGLE_LEVEL, [qbar], [T], epsrel)


def two_level(qbar, T=0.0, params=SODIUM_TL):
    """The two-level widths at one point, as a 1x1 grid."""
    return decay_rates(params, Channel.TWO_LEVEL, [qbar], [T])


def at(grid, i, j):
    """Point (i, j) of a grid as four 1x1 columns."""
    return tuple(column[i:i + 1, j:j + 1] for column in grid)


def assert_same_bits(got, expected):
    """Two sets of rate columns hold the same shapes and bytes."""
    for a, b in zip(got, expected, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def stimulated_columns(params, channel, qbar, T):
    """The stimulated integral columns of a one-point grid."""
    return _setup(params, channel, [qbar], [T])[1]


def assert_first_error(params, channel, qbar, temperature, epsrel=EPSREL):
    """The sweep stops where a point-by-point sweep in T-major order does,
    with the same error; returns that error."""
    expected = first_error(params, channel, qbar, temperature, epsrel)
    assert expected is not None
    with pytest.raises(type(expected)) as raised:
        decay_rates(params, channel, qbar, temperature, epsrel)
    assert str(raised.value) == str(expected)
    if isinstance(expected, QuadratureError):
        assert raised.value.partial_rate_s == expected.partial_rate_s
        assert raised.value.error_estimate_s == expected.error_estimate_s
    return raised.value


# ---------------------------------------------------------------------------
# spontaneous channel


def test_recoil_momentum_anchor():
    """The dimensionless width at the recoil-scale momentum qbar = 5."""
    units = derive_units(SODIUM)
    gamma = single_level(5.0).gamma_beliaev[0, 0]
    ratio = gamma / (dispersion(5.0) * units.omega0)
    assert ratio == pytest.approx(0.002102458306139846, rel=1e-9)


def test_decay_rate_frozen_total():
    result = single_level(5.0)
    assert isinstance(result, RateGrid)
    assert [column.shape for column in result] == [(1, 1)] * 4
    assert result.gamma_total[0, 0] == pytest.approx(530.9385860590878, rel=1e-9)
    assert result.gamma_landau[0, 0] == 0.0
    assert result.gamma_total[0, 0] == result.gamma_beliaev[0, 0] + result.gamma_landau[0, 0]
    assert 0.0 < result.quadrature_error_estimate[0, 0] < 1e-4


def test_small_q_frozen_values():
    expected = {0.02: 3.46495057e-08, 0.05: 3.38103382e-06, 0.1: 1.07883884e-04}
    for qbar, gamma in expected.items():
        assert single_level(qbar).gamma_beliaev[0, 0] == pytest.approx(gamma, rel=1e-6)


def test_small_q_approaches_closed_form():
    # 3*hbar*q^5/(320*pi*m*n0), approached from below as qbar -> 0
    for qbar, tol in ((0.02, 5e-4), (0.05, 2e-3), (0.1, 5e-3)):
        gamma = single_level(qbar).gamma_beliaev[0, 0]
        limit = beliaev_asymptote(qbar, Channel.SINGLE_LEVEL, SODIUM)
        assert gamma == pytest.approx(limit, rel=tol)
        assert gamma < limit


def test_fifth_power_scaling():
    grid = np.geomspace(0.02, 0.1, 5)
    gammas = [single_level(q).gamma_beliaev[0, 0] for q in grid]
    slope = np.polyfit(np.log(grid), np.log(gammas), 1)[0]
    assert slope == pytest.approx(5.0, abs=0.02)


def test_asymptote_values_and_validation():
    units = derive_units(SODIUM)
    q = 0.05 * units.k0
    base = 6.62607015e-34 / (2 * math.pi)  # hbar
    expected = 3 * base * q**5 / (320 * math.pi * SODIUM.atomic_mass * SODIUM.condensate_density_n0)
    assert beliaev_asymptote(0.05, Channel.SINGLE_LEVEL, SODIUM) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ParameterError):
        beliaev_asymptote(0.0, Channel.SINGLE_LEVEL, SODIUM)
    with pytest.raises(ParameterError):
        beliaev_asymptote(math.inf, Channel.SINGLE_LEVEL, SODIUM)


def test_thermal_occupation_enhances_splitting():
    cold = single_level(1.0).gamma_beliaev[0, 0]
    warm = single_level(1.0, T=1e-6).gamma_beliaev[0, 0]
    assert warm > cold


# ---------------------------------------------------------------------------
# energy-variable route (independent reduction of the same width)


def test_energy_integrand_symmetric_about_midpoint():
    for qbar in (0.5, 1.0, 5.0):
        wq = dispersion(qbar)
        for frac in (0.1, 0.25, 0.4):
            lo = beliaev_energy_integrand(qbar, frac * wq)
            hi = beliaev_energy_integrand(qbar, (1.0 - frac) * wq)
            assert lo == pytest.approx(hi, rel=1e-9)
            assert lo > 0.0


def test_energy_integrand_vanishes_outside_window():
    wq = dispersion(2.0)
    assert beliaev_energy_integrand(2.0, 0.0) == 0.0
    assert beliaev_energy_integrand(2.0, wq) == 0.0
    assert beliaev_energy_integrand(2.0, -0.1) == 0.0
    assert beliaev_energy_integrand(2.0, 1.1 * wq) == 0.0


def test_half_window_doubling():
    # symmetry means twice the first half-window equals the full integral
    qbar = 5.0
    wq = dispersion(qbar)
    full, _ = quad(lambda w: beliaev_energy_integrand(qbar, w), 0.0, wq, limit=200)
    half, _ = quad(lambda w: beliaev_energy_integrand(qbar, w), 0.0, 0.5 * wq, limit=200)
    assert 2.0 * half == pytest.approx(full, rel=1e-6)


def test_energy_route_matches_momentum_route():
    for qbar in (1.0, 5.0):
        units = derive_units(SODIUM)
        gas = units.k0**3 / SODIUM.condensate_density_n0
        wq = dispersion(qbar)
        reduced, _ = quad(lambda w: beliaev_energy_integrand(qbar, w), 0.0, wq,
                          limit=200, epsabs=1e-13, epsrel=1e-10)
        gamma_energy = gas / (math.pi * qbar) * units.omega0 * reduced
        gamma_momentum = single_level(qbar).gamma_beliaev[0, 0]
        assert gamma_energy == pytest.approx(gamma_momentum, rel=1e-6)


# ---------------------------------------------------------------------------
# stimulated channel


def test_stimulated_exactly_zero_at_zero_temperature():
    assert single_level(5.0).gamma_landau[0, 0] == 0.0
    assert two_level(5.0).gamma_landau[0, 0] == 0.0
    result = single_level(0.3)
    assert result.gamma_landau[0, 0] == 0.0
    assert result.gamma_total[0, 0] == result.gamma_beliaev[0, 0]


def test_stimulated_frozen_value():
    gamma = single_level(5.0, T=1e-6).gamma_landau[0, 0]
    assert gamma == pytest.approx(1461.9636910876163, rel=1e-8)


def test_stimulated_monotone_in_temperature():
    rates = [single_level(1.0, T=t).gamma_landau[0, 0] for t in (2e-7, 5e-7, 1e-6)]
    assert rates[0] > 0.0
    assert rates[0] < rates[1] < rates[2]


def test_stimulated_dominates_for_slow_warm_modes():
    # deep in the phonon regime at microkelvin temperature the stimulated
    # channel outweighs the spontaneous one (which dies off like q^5)
    for qbar in (0.1, 0.3, 1.0):
        result = single_level(qbar, T=1e-6)
        assert result.gamma_landau[0, 0] > result.gamma_beliaev[0, 0]


def test_stimulated_high_temperature_law():
    # at kB*T >> mu = hbar*omega0 a phonon's occupation width approaches
    # twice the Szepfalusy-Kondor amplitude damping (3*pi/8) kB*T*a*q/hbar
    mu_over_kb = HBAR * derive_units(SODIUM).omega0 / K_BOLTZMANN
    ratios = []
    for multiple, expected in ((20, 0.95948), (100, 0.99156), (1000, 0.99910)):
        temperature = multiple * mu_over_kb
        gamma = single_level(0.01, T=temperature).gamma_landau[0, 0]
        ratio = gamma / (2.0 * landau_high_t(0.01, temperature, SODIUM))
        assert ratio == pytest.approx(expected, rel=1e-4)
        ratios.append(ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert abs(ratios[-1] - 1.0) < 1e-3


def test_stimulated_low_temperature_law():
    # at kB*T << mu a phonon's occupation width approaches twice the
    # Hohenberg-Martin amplitude damping; the ratio is flat in qbar and
    # rises towards 1 as T falls
    mu_over_kb = HBAR * derive_units(SODIUM).omega0 / K_BOLTZMANN
    pinned = {
        0.1: (0.688922, 0.688906, 0.688727),
        0.05: (0.890701, 0.890677, 0.890452),
        0.02: None,  # error estimate 10-15% of the width: ordering only
    }
    ratios = {}
    for multiple, expected in pinned.items():
        temperature = multiple * mu_over_kb
        for i, qbar in enumerate((1e-3, 3e-3, 1e-2)):
            result = single_level(qbar, T=temperature)
            law = 2.0 * landau_low_t(qbar, temperature, SODIUM)
            ratios[multiple, qbar] = result.gamma_landau[0, 0] / law
            if expected is not None:
                # no tighter than the row's own error estimate
                tolerance = max(1e-6, result.quadrature_error_estimate[0, 0] / law)
                assert ratios[multiple, qbar] == pytest.approx(expected[i], abs=tolerance)
    for qbar in (1e-3, 3e-3, 1e-2):
        assert ratios[0.1, qbar] < ratios[0.05, qbar] < ratios[0.02, qbar] < 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=1e-8, max_value=1e-5),
)
def test_population_factors_balance_on_shell(kbar_i, kbar_j, temperature):
    # n_i n_j = n_q (1 + n_i + n_j) whenever omega_q = omega_i + omega_j:
    # the identity that makes spontaneous + stimulated consistent with a
    # thermal steady state
    units = derive_units(SODIUM)
    w_i = dispersion(kbar_i) * units.omega0
    w_j = dispersion(kbar_j) * units.omega0
    n_i = thermal_population(w_i, temperature)
    n_j = thermal_population(w_j, temperature)
    n_q = thermal_population(w_i + w_j, temperature)
    assert n_i * n_j == pytest.approx(n_q * (1.0 + n_i + n_j), rel=1e-9)


# ---------------------------------------------------------------------------
# interspecies channel


def test_two_level_tracks_single_level_shape():
    # same splitting kinematics, different coupling combination: the ratio is
    # the constant 10/9 when a_bc = a_bb
    single = single_level(0.05).gamma_beliaev[0, 0]
    double = two_level(0.05).gamma_beliaev[0, 0]
    assert double == pytest.approx(10.0 / 9.0 * single, rel=1e-12)
    assert double == pytest.approx(3.756704244354953e-06, rel=1e-6)


def test_two_level_asymptote():
    gamma = two_level(0.02).gamma_beliaev[0, 0]
    limit = beliaev_asymptote(0.02, Channel.TWO_LEVEL, SODIUM_TL)
    assert gamma == pytest.approx(limit, rel=5e-3)
    ratio = beliaev_asymptote(0.02, Channel.TWO_LEVEL, SODIUM_TL) / beliaev_asymptote(
        0.02, Channel.SINGLE_LEVEL, SODIUM
    )
    assert ratio == pytest.approx(10.0 / 9.0, rel=1e-12)


def test_interspecies_coupling_scaling():
    # widths scale with the square of the interspecies coupling, so doubling
    # a_bc quadruples both channels
    base = dataclasses.replace(SODIUM, two_level=TwoLevelParams(a_bc=1.0e-9))
    strong = dataclasses.replace(SODIUM, two_level=TwoLevelParams(a_bc=2.0e-9))
    for field, T in (("gamma_beliaev", 0.0), ("gamma_landau", 5e-7)):
        weak_rate = getattr(two_level(0.3, T=T, params=base), field)[0, 0]
        strong_rate = getattr(two_level(0.3, T=T, params=strong), field)[0, 0]
        assert strong_rate == pytest.approx(4.0 * weak_rate, rel=1e-12)


# a_bc whose (a_bc/a)^2 underflows to 0, is subnormal, or overflows
OUT_OF_RANGE_A_BC = (1e-200, 1e-170, 1e150, 1e200)


@pytest.mark.parametrize("temperature", [0.0, 1e-6])
@pytest.mark.parametrize("a_bc", OUT_OF_RANGE_A_BC)
def test_two_level_out_of_range_coupling_rejected(a_bc, temperature):
    # the width prefactor divided the tolerance by 0, or scaled the widths
    # to 0 or inf
    params = dataclasses.replace(SODIUM, two_level=TwoLevelParams(a_bc=a_bc))
    with pytest.raises(ParameterError, match=r"\(a_bc/a\)\^2 = .* out of double range"):
        two_level(0.5, T=temperature, params=params)
    # a medium-wide check: the first point already fails it
    error = assert_first_error(params, Channel.TWO_LEVEL, [0.5, 5.0], [temperature, 1e-6])
    assert "(a_bc/a)^2" in str(error)


def test_underflowing_width_prefactor_rejected():
    # k0^3/n0/(pi*qbar) underflowed to 0 and the tolerance divided by it
    dilute = PhysicalParams(
        scattering_length_a=1e-200, atomic_mass=1e-26, condensate_density_n0=1.0,
        atom_count_N0=1.0,
    )
    with pytest.raises(ParameterError, match="spontaneous width prefactor 0 is out of double"):
        single_level(1e100, params=dilute)
    # k0^3/n0 ~ 1e-100 with omega0 ~ 1e-75 s^-1: qbar = 1 is a valid point,
    # and 1e110 the first whose prefactor is subnormal
    sparse = PhysicalParams(
        scattering_length_a=8.6e-170, atomic_mass=1e-26, condensate_density_n0=1e100,
        atom_count_N0=1.0,
    )
    error = assert_first_error(
        sparse, Channel.SINGLE_LEVEL, [1.0, 1e110, 1e130], [0.0, 1e-6]
    )
    assert str(error).startswith("spontaneous width prefactor ")
    assert str(error).endswith("at qbar = 1e+110")


def test_overflowing_mode_frequency_rejected():
    # a 5e-324 kg atom puts omega0 at 7.5e301 s^-1: qbar = 1 is a valid
    # point, but at qbar = 1548 the mode frequency overflowed and the width
    # per mode frequency read 0
    light = dataclasses.replace(SODIUM, atomic_mass=5e-324)
    error = assert_first_error(light, Channel.SINGLE_LEVEL, [1.0, 1548.0], [0.0, 1e-6])
    assert str(error) == "mode frequency overflows at qbar = 1.55e+03"


def test_overflowing_width_scale_rejected():
    # (a_bc/a)^2 ~ 1.3e307 is a normal double and the spontaneous prefactor
    # does not carry it, but the width scale 10/9 (a_bc/a)^2 prefactor omega0
    # overflows: the message names the scale, not the prefactor
    params = dataclasses.replace(SODIUM, two_level=TwoLevelParams(a_bc=1e145))
    with pytest.raises(ParameterError) as raised:
        two_level(0.5, T=1e-6, params=params)
    assert str(raised.value) == (
        "spontaneous width scale inf is out of double range at qbar = 0.5"
    )
    # at qbar = 2000 the scale is finite, so the first failing point is
    # the second of the first row
    error = assert_first_error(params, Channel.TWO_LEVEL, [2e3, 0.5, 0.1], [1e-6, 2e-6])
    assert str(error) == "spontaneous width scale inf is out of double range at qbar = 0.5"


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, SODIUM_TL),
])
def test_overflowing_bose_cutoff_rejected(channel, params):
    # at 1e300 K the thermal frequency times the cutoff margin overflows;
    # the error held while the grid is checked must still be raised, after
    # the valid first row
    error = assert_first_error(params, channel, [1e90, 1e100], [1e-6, 1e300])
    assert str(error) == "omega_bar must be >= 0, got inf"


def test_two_level_stimulated_threshold_window():
    # free-particle kinematics forbids absorption below 1/(2 qbar) - qbar
    slow = stimulated_columns(SODIUM_TL, Channel.TWO_LEVEL, 0.05, 1e-6)
    assert slow.lo[0] == pytest.approx(0.5 / 0.05 - 0.05, rel=1e-12)
    assert two_level(0.05, T=1e-6).gamma_landau[0, 0] >= 0.0
    assert stimulated_columns(SODIUM_TL, Channel.TWO_LEVEL, 5.0, 1e-6).lo[0] == 0.0
    assert two_level(5.0, T=1e-6).gamma_landau[0, 0] > 0.0


@pytest.mark.parametrize("qbar", [1e-156, 4e-155])
def test_two_level_stimulated_window_empty_at_tiny_qbar(qbar):
    # the absorption threshold 1/(2 qbar) - qbar lies far beyond the thermal
    # tail: at 1e-156 its frequency overflows, at 4e-155 the Bose cutoff
    # above it did, and both raised ParameterError instead of a zero width
    params = dataclasses.replace(SODIUM, two_level=TwoLevelParams(a_bc=3e-9))
    columns = stimulated_columns(params, Channel.TWO_LEVEL, qbar, 1e-13)
    assert columns.point.size == 0  # no integral: the window is empty
    result = two_level(qbar, T=1e-13, params=params)
    assert result.gamma_landau[0, 0] == 0.0
    single = single_level(qbar, T=1e-13, params=params)
    coupling = (3e-9 / SODIUM.scattering_length_a) ** 2
    assert result.gamma_beliaev[0, 0] == pytest.approx(
        TWO_LEVEL_FACTOR * coupling * single.gamma_beliaev[0, 0], rel=1e-12
    )


# ---------------------------------------------------------------------------
# quadrature control and validation


def test_tightened_tolerance_stays_within_error_estimate():
    for qbar, T in ((5.0, 0.0), (1.0, 1e-6)):
        loose = single_level(qbar, T, epsrel=1e-6)
        tight = single_level(qbar, T, epsrel=1e-10)
        assert (abs(loose.gamma_beliaev - tight.gamma_beliaev)
                <= loose.quadrature_error_estimate).all()
        assert (tight.quadrature_error_estimate
                <= loose.quadrature_error_estimate * 1.01).all()


@pytest.mark.parametrize("T", [0.0, 1e-6])
@pytest.mark.parametrize("qbar", [0.05, 1.0])
def test_channel_widths_equal_lone_integral_solves(qbar, T):
    # each channel's width is its own integral's, whichever other integrals
    # the sweep refines alongside it
    for channel, params in ((Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, SODIUM_TL)):
        result = decay_rates(params, channel, [qbar], [T])
        spontaneous, stimulated = integrals(params, channel, qbar, T)
        assert solve_alone(spontaneous, EPSREL)[0] == result.gamma_beliaev[0, 0]
        assert solve_alone(stimulated, EPSREL)[0] == result.gamma_landau[0, 0]


def test_integer_qbar_is_taken_as_float():
    # a JSON integer qbar squared to a Python int that numpy could not
    # exponentiate in the two-level stimulated integrand
    assert_same_bits(two_level(2**32, T=1e-6), two_level(float(2**32), T=1e-6))


def test_stimulated_cutoff_survives_underflowing_thermal_energy():
    # k_B*T and hbar*omega0 both underflow here while hbar*omega0/(k_B*T)
    # stays finite; the Bose cutoff divided by the underflowed ratio
    heavy = dataclasses.replace(SODIUM, atomic_mass=7e231)
    assert single_level(1.0, T=1e-302, params=heavy).gamma_landau[0, 0] == 0.0


@pytest.mark.parametrize("qbar", [0.0, -1.0, math.inf, math.nan])
def test_query_rejects_bad_momentum(qbar):
    with pytest.raises(ParameterError, match="qbar must be > 0"):
        single_level(qbar)


def test_query_rejects_negative_temperature():
    with pytest.raises(ParameterError):
        single_level(1.0, T=-1e-9)
    # the first point checks its temperature before the second its qbar
    error = assert_first_error(SODIUM, Channel.SINGLE_LEVEL, [1.0, 0.0], [-1e-9, 0.0])
    assert str(error).startswith("temperature_T must be >= 0")


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_query_rejects_non_finite_temperature(temperature):
    with pytest.raises(ParameterError, match="finite"):
        single_level(1.0, T=temperature)


# ---------------------------------------------------------------------------
# batched Gauss-Kronrod engine against QUADPACK


def test_batched_sweep_matches_quad_and_single_points():
    # phonon-regime through free-particle qbar; T = 0 rows; T = 1e-300 K
    # empties the two-level stimulated window at qbar < 1/sqrt(2)
    temperatures = (0.0, 1e-300, 2e-7, 1e-6)
    qbars = (0.02, 0.05, 0.3, 1.0, 5.0, 10.0)
    empty_windows = 0
    for channel, params in ((Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, SODIUM_TL)):
        grid = decay_rates(params, channel, qbars, temperatures)
        for (i, T), (j, qbar) in itertools.product(enumerate(temperatures), enumerate(qbars)):
            error_estimate = grid.quadrature_error_estimate[i, j]
            spontaneous, stimulated = integrals(params, channel, qbar, T)
            for integral, width in ((spontaneous, grid.gamma_beliaev[i, j]),
                                    (stimulated, grid.gamma_landau[i, j])):
                if integral.hi > integral.lo:
                    reduced, _ = quad(
                        lambda x: float(integral.integrand(np.float64(x), *integral.args)),
                        integral.lo, integral.hi,
                        epsabs=integral.epsabs, epsrel=EPSREL, limit=200,
                    )
                    reference = integral.scale * reduced
                else:
                    reference = 0.0
                    empty_windows += channel is Channel.TWO_LEVEL and T > 0.0
                assert abs(width - reference) <= error_estimate
                assert width == pytest.approx(reference, rel=1e-10, abs=0.0)
            if T == 0.0:
                assert grid.gamma_landau[i, j] == 0.0
            # no dependence on which other points share the sweep
            assert_same_bits(decay_rates(params, channel, [qbar], [T]), at(grid, i, j))
    assert empty_windows > 0


# qbar from deep in the phonon regime to far in the free-particle one, with
# 1/sqrt(2), where the two-level absorption threshold reaches 0; T = 0 and
# 1e-300 K (no thermal occupation reaches the two-level threshold) among them
SETUP_QBAR = sorted(np.geomspace(1e-8, 300.0, 21).tolist() + [2.0**-0.5])
SETUP_T = (0.0, 1e-300, 1e-13, 2e-7, 1e-6)


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM),
    (Channel.TWO_LEVEL, dataclasses.replace(SODIUM, two_level=TwoLevelParams(a_bc=3e-9))),
])
def test_setup_columns_match_one_point_setup(channel, params):
    # per-axis setup broadcast to the grid gives the bits of the scalar
    # setup of each point, and the sweep the width of each one-point call
    columns = _setup(params, channel, SETUP_QBAR, list(SETUP_T))
    points = grid_queries(params, channel, SETUP_QBAR, SETUP_T)
    setups = [integrals(*point) for point in points]
    for got, k in zip(columns, (0, 1)):
        expected = [(point, setup[k]) for point, setup in enumerate(setups)
                    if setup[k].hi > setup[k].lo]
        assert got.point.tolist() == [point for point, _ in expected]
        assert {got.integrand} == {integral.integrand for _, integral in expected}
        for name in ("lo", "hi", "epsabs", "scale"):
            column = np.array([getattr(integral, name) for _, integral in expected])
            assert getattr(got, name).tobytes() == column.tobytes(), name
        args = np.array([integral.args for _, integral in expected]).T
        assert len(got.args) == len(args)
        for got_arg, arg in zip(got.args, args):
            assert got_arg.tobytes() == arg.tobytes()
    assert columns[1].point.size < len(points)  # T = 0 rows hold no integral

    grid = decay_rates(params, channel, SETUP_QBAR, SETUP_T)
    for point, (_, _, qbar, T) in enumerate(points):
        i, j = np.unravel_index(point, grid.gamma_total.shape)
        assert_same_bits(decay_rates(params, channel, [qbar], [T]), at(grid, i, j))


def test_negative_zero_temperature_is_zero():
    # -0.0 passes T >= 0; it must enter the sweep as the temperature 0
    assert math.copysign(1.0, _valid_temperature(-0.0)) == 1.0
    grid = decay_rates(SODIUM, Channel.SINGLE_LEVEL, [1.0, 5.0], [-0.0, 0.0])
    for column in grid:
        assert column[0].tobytes() == column[1].tobytes()
    assert_same_bits(single_level(1.0, T=-0.0), single_level(1.0))


@pytest.mark.parametrize("limit, qbar, temperature, named", [
    # an earlier point's stimulated integral before a later spontaneous one
    (4, [0.3, 1.0, 5.0], [0.0, 1e-6], "stimulated width at qbar = 0.3, T = 1e-06 K"),
    # both stall at one point: the spontaneous integral is named
    (2, [5.0], [1e-6], "spontaneous width at qbar = 5, T = 1e-06 K"),
])
def test_quadrature_failure_names_first_point(monkeypatch, limit, qbar, temperature, named):
    monkeypatch.setattr(rates, "_LIMIT", limit)
    error = assert_first_error(SODIUM, Channel.SINGLE_LEVEL, qbar, temperature)
    assert str(error).endswith(named)


# ---------------------------------------------------------------------------
# refinement bookkeeping and the work of a sweep


def _wave_on_peak(x, k, w):
    return np.cos(k * x) + w / ((x - 0.3) ** 2 + w * w)


def test_refine_matches_full_width_reference():
    # the work arrays grow with the subintervals in use; at a width that is
    # a multiple of 8 and at most 96, numpy's pairwise row sum gives the
    # bits of the full _LIMIT-wide row, and beyond it the width is _LIMIT
    k, w = (a.ravel() for a in np.meshgrid(np.geomspace(1.0, 1500.0, 9),
                                           np.geomspace(1e-1, 1e-9, 9)))
    k, w = np.append(k, 1.0), np.append(w, 1e-1)
    epsabs = np.full(k.size, 1e-9)
    epsabs[-1] = 0.0  # with epsrel = 0 never met: runs into _LIMIT
    lo, hi = np.zeros(k.size), np.ones(k.size)
    value, abserr, converged, used = refine_reference(
        _wave_on_peak, [k, w], lo, hi, epsabs, 0.0
    )
    assert used.min() <= 8 and ((8 < used) & (used <= 96)).any()
    assert ((96 < used) & (used < _LIMIT)).any()
    assert used[-1] == _LIMIT and not converged[-1] and converged[:-1].all()
    got = _refine(_wave_on_peak, [k, w], lo, hi, epsabs, 0.0)
    assert got[0].tobytes() == value.tobytes()
    assert got[1].tobytes() == abserr.tobytes()
    assert (got[2] == converged).all()


def _bench_like_grid():
    """Axes of a 42 x 48 grid with the bench anchors and a T = 0 row."""
    qbars = sorted(np.geomspace(0.02, 10.0, 45).tolist() + [0.05, 0.1, 5.0])
    temperatures = np.linspace(0.0, 1e-6, 42).tolist()
    return qbars, temperatures


def test_sweep_work_is_pinned(monkeypatch):
    # G10K21 subinterval evaluations of the 2016-point sweep, pinned; setup
    # that depends on the medium alone runs once per sweep
    counts = {"subintervals": 0, "derive_units": 0}
    qk21, derive = rates._qk21, rates.derive_units

    def counting_qk21(f, args, lo, hi):
        counts["subintervals"] += lo.size
        return qk21(f, args, lo, hi)

    def counting_derive(params):
        counts["derive_units"] += 1
        return derive(params)

    monkeypatch.setattr(rates, "_qk21", counting_qk21)
    monkeypatch.setattr(rates, "derive_units", counting_derive)
    decay_rates(SODIUM, Channel.SINGLE_LEVEL, *_bench_like_grid())
    assert counts == {"subintervals": 19660, "derive_units": 1}


def test_sweep_traced_peak_bounded():
    # work arrays as wide as _LIMIT for every batch took the peak past 12 MB,
    # and passes of 1024 integrals to 6.05 MB
    qbars, temperatures = _bench_like_grid()
    tracemalloc.start()
    try:
        decay_rates(SODIUM, Channel.SINGLE_LEVEL, qbars, temperatures)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6
