"""Spontaneous and stimulated quasiparticle decay widths."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from quasidamp import integrands, rates
from quasidamp.model import (
    HBAR,
    K_BOLTZMANN,
    PRESETS,
    ParameterError,
    PhysicalParams,
    dispersion,
    thermal_population,
)
from quasidamp.rates import (
    Channel,
    QuadratureError,
    RateGrid,
    EPSREL,
    _setup,
    _valid_temperature,
    decay_rates,
)

from rate_reference import (
    beliaev_asymptote,
    beliaev_energy_integrand,
    grid_queries,
    group_velocity,
    integrals,
    landau_high_t,
    landau_low_t,
    reference_widths,
)
import rate_reference
from vertex_reference import decimal_vertex

SODIUM = PRESETS["sodium-paper"]
SODIUM_TL = dataclasses.replace(SODIUM, a_bc=SODIUM.scattering_length_a)
MU_OVER_KB = HBAR * SODIUM.omega0 / K_BOLTZMANN


def single_level(qbar, T=0.0, params=SODIUM):
    """The single-level widths at one point, as a 1x1 grid."""
    return decay_rates(params, Channel.SINGLE_LEVEL, [qbar], [T])


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


def error_of(params, channel, qbar, temperature, kind=ParameterError):
    """The error a grid sweep raises."""
    with pytest.raises(kind) as raised:
        decay_rates(params, channel, qbar, temperature)
    return raised.value


def stimulated_columns(params, channel, qbar, T):
    """The stimulated integral columns of a one-point grid."""
    return _setup(params, channel, [qbar], [T])[1]


def lone_columns(integral, rows=None):
    """The columns of one reference Integral alone, with the integrand rows
    in place of its own if given."""
    spontaneous = integral.rows is rates._spontaneous_rows
    return rates._Columns(
        rows or integral.rows, rates._SPLITTING_RULE if spontaneous else rates._ABSORPTION_RULE,
        np.array([0]), [np.array([arg]) for arg in integral.args], np.array([integral.scale]))


def solve_alone(integral) -> float:
    """The width of one reference Integral, integrated on its own."""
    if integral is None:
        return 0.0
    return integral.scale * float(rates._integrate(lone_columns(integral))[0][0])


def evaluate(columns, block, nodes):
    """The integrand of `columns` at `nodes` on the integrals `block`, in a
    workspace of its own."""
    work = list(np.empty((integrands._BUFFERS, block.size, nodes[0].size)))
    return columns.rows(nodes, work, *(arg[block, None] for arg in columns.args))


def integrand_blocks(columns):
    """Blocks of the integrals of `columns`: those of each temperature, in
    which a single-level stimulated block forms the factors of k once, and
    all of them together."""
    beta = columns.args[-1]
    return [np.flatnonzero(beta == value) for value in np.unique(beta)] + [np.arange(beta.size)]


# ---------------------------------------------------------------------------
# spontaneous channel


def test_recoil_momentum_anchor():
    """The dimensionless width at the recoil-scale momentum qbar = 5."""
    gamma = single_level(5.0).gamma_beliaev[0, 0]
    ratio = gamma / (dispersion(5.0) * SODIUM.omega0)
    assert ratio == pytest.approx(0.002102458306139846, rel=1e-9)


def test_decay_rate_frozen_total():
    result = single_level(5.0)
    assert isinstance(result, RateGrid)
    assert [column.shape for column in result] == [(1, 1)] * 5
    omega_q = dispersion(5.0) * SODIUM.omega0
    assert result.gamma_over_omega[0, 0] == result.gamma_total[0, 0] / omega_q
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


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, dataclasses.replace(SODIUM, a_bc=3e-9)),
])
def test_fifth_power_law_down_to_tiny_momenta(channel, params):
    # the T = 0 width is the q^5 law up to its O(q^2) correction, with an
    # error estimate inside the tolerance; a vertex that cancelled terms of
    # order q^(-1/2) read 0.99957 of the law at qbar 1e-6 and 11.7 at 1e-8
    qbar = [10.0**-e for e in (4, 6, 8, 12, 16, 20, 25, 30)] + [3e-51]
    grid = decay_rates(params, channel, qbar, [0.0])
    for j, q in enumerate(qbar):
        law = beliaev_asymptote(q, channel, params)
        assert grid.gamma_beliaev[0, j] == pytest.approx(law, rel=1e-6)
        assert grid.quadrature_error_estimate[0, j] <= EPSREL * grid.gamma_total[0, j]


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, dataclasses.replace(SODIUM, a_bc=3e-9)),
])
@pytest.mark.parametrize("qbar", [1e-55, 1e-51])
def test_underflowing_spontaneous_integral_rejected(channel, params, qbar):
    # the reduced integral, about 0.01875 qbar^6 at T = 0, is 0 at 1e-55 and
    # subnormal at 1e-51, where the width read 0 or lost digits with an
    # error estimate of 0; the first such point after a valid one is named
    error = error_of(params, channel, [5.0, qbar], [0.0, 1e-13])
    assert str(error) == (
        f"spontaneous width underflows at qbar = {qbar:.3g}, T = 0 K: its reduced "
        "integral is not a normal double (at T = 0 the width there is the q^5 law)"
    )


def test_asymptote_values_and_validation():
    q = 0.05 * SODIUM.k0
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
# the three-mode vertex against the textbook u, v form in decimal


def assert_vertex_matches_decimal(kz=None, kx=None, ky=None):
    """integrands._vertex on the doubles nearest the decimal modes agrees with
    the decimal textbook vertex to 1e-14."""
    expected, modes = decimal_vertex(kz, kx, ky)
    (zz, wz, sz), x, y = ((np.float64(k * k), np.float64(w), np.float64(s)) for k, w, s in modes)
    got = integrands._vertex(2.0 + zz, wz, sz, *x, *y, *np.empty((3, 1)))
    assert abs(Decimal(float(got[0])) / expected - 1) <= Decimal("1e-14"), (kz, kx, ky)


@pytest.mark.parametrize("qbar", [10.0**e for e in range(-30, 3, 4)])
def test_beliaev_vertex_matches_decimal(qbar):
    # q -> k + p from qbar 1e-30 to 100, k/q from 1e-9 to 1 - 1e-9, where
    # the textbook terms cancel through up to 100 digits
    for fraction in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9):
        assert_vertex_matches_decimal(kz=qbar, kx=qbar * fraction)


@pytest.mark.parametrize("qbar", [5.0, 1e-2, 1e-4, 1e-6])
def test_landau_vertex_matches_decimal(qbar):
    # q + k -> j for thermal k from 1e-12 to 5e3
    for kbar in np.geomspace(1e-12, 5e3, 13):
        assert_vertex_matches_decimal(kx=qbar, ky=float(kbar))


# ---------------------------------------------------------------------------
# energy-variable route (independent reduction of the same width)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_group_velocity_matches_slope(kbar):
    h = kbar * 1e-6
    numeric = (dispersion(kbar + h) - dispersion(kbar - h)) / (2 * h)
    assert group_velocity(kbar) == pytest.approx(numeric, rel=1e-7)


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
        gas = SODIUM.k0**3 / SODIUM.condensate_density_n0
        wq = dispersion(qbar)
        reduced, _ = quad(lambda w: beliaev_energy_integrand(qbar, w), 0.0, wq,
                          limit=200, epsabs=0.0, epsrel=1e-10)
        gamma_energy = gas / (math.pi * qbar) * SODIUM.omega0 * reduced
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
    ratios = []
    for multiple, expected in ((20, 0.95948), (100, 0.99156), (1000, 0.99910)):
        temperature = multiple * MU_OVER_KB
        gamma = single_level(0.01, T=temperature).gamma_landau[0, 0]
        ratio = gamma / (2.0 * landau_high_t(0.01, temperature, SODIUM))
        assert ratio == pytest.approx(expected, rel=1e-4)
        ratios.append(ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert abs(ratios[-1] - 1.0) < 1e-3


def test_stimulated_high_temperature_ratio_flat_at_tiny_qbar():
    # the ratio to the high-temperature law levels off as qbar -> 0; with
    # n_k - n_{k+q} formed as a difference it cancelled there, and the
    # refinement stalled at qbar 1e-9 through 1e-17 at 1e-6 K
    qbar = [1e-6, 1e-9, 1e-12, 1e-16]
    for multiple in (20, 100, 1000):
        temperature = multiple * MU_OVER_KB
        grid = decay_rates(SODIUM, Channel.SINGLE_LEVEL, qbar, [temperature])
        law = [2.0 * landau_high_t(q, temperature, SODIUM) for q in qbar]
        ratios = grid.gamma_landau[0] / law
        assert ratios == pytest.approx(np.full(len(qbar), ratios[0]), rel=1e-9)
        assert ratios[0] > single_level(0.01, T=temperature).gamma_landau[0, 0] / (
            2.0 * landau_high_t(0.01, temperature, SODIUM))


#: Ratio of the stimulated width to the Hohenberg-Martin law at
#: (T in mu/k_B, qbar), to 9 decimals; None where only the ordering is
#: checked.
LOW_T_PINNED = {
    (0.1, 1e-3): 0.688922145, (0.1, 3e-3): 0.688905880, (0.1, 1e-2): 0.688726821,
    (0.05, 1e-3): 0.890701214, (0.05, 3e-3): 0.890677363, (0.05, 1e-2): 0.890451670,
    (0.02, 1e-3): 0.979936218, (0.02, 3e-3): 0.979933695, (0.02, 1e-2): None,
    (0.01, 1e-3): 0.994874984, (0.01, 3e-3): 0.995059428, (0.01, 1e-2): None,
}


def test_stimulated_low_temperature_law():
    # at kB*T << mu a phonon's occupation width approaches twice the
    # Hohenberg-Martin amplitude damping; the ratio is flat in qbar and
    # rises towards 1 as T falls
    ratios = {}
    for (multiple, qbar), expected in LOW_T_PINNED.items():
        temperature = multiple * MU_OVER_KB
        result = single_level(qbar, T=temperature)
        law = 2.0 * landau_low_t(qbar, temperature, SODIUM)
        ratios[multiple, qbar] = result.gamma_landau[0, 0] / law
        if expected is not None:
            # to the pinned digits, and no tighter than the row's own error
            tolerance = max(1e-9, result.quadrature_error_estimate[0, 0] / law)
            assert ratios[multiple, qbar] == pytest.approx(expected, abs=tolerance)
    for qbar in (1e-3, 3e-3):
        assert (ratios[0.1, qbar] < ratios[0.05, qbar] < ratios[0.02, qbar]
                < ratios[0.01, qbar] < 1.0)
    # at 0.01 mu/k_B and qbar 1e-2, hbar*omega_q > k_B*T: outside the law,
    # the ratio is 1.00128
    assert ratios[0.1, 1e-2] < ratios[0.05, 1e-2] < ratios[0.02, 1e-2] < 1.0


def test_error_estimates_meet_relative_tolerance():
    # every width of the bench-like grids in both channels, of the
    # low-temperature points and of slow modes in a hot gas meets EPSREL;
    # an absolute floor of 1e-10 omega0 left the low-T estimates at 10-19%
    # of the width, and the hot points stalled
    qbars, temperatures = _bench_like_grid()
    low_t = [multiple * MU_OVER_KB for multiple in (0.1, 0.05, 0.02, 0.01)]
    for channel, params, qbar, temperature in (
        (Channel.SINGLE_LEVEL, SODIUM, qbars, temperatures),
        (Channel.TWO_LEVEL, SODIUM_TL, qbars, temperatures),
        (Channel.SINGLE_LEVEL, SODIUM, [1e-3, 3e-3, 1e-2], low_t),
        (Channel.SINGLE_LEVEL, SODIUM, [1e-16, 1e-12, 1e-9], [1e-13, 1e-6, 1.0]),
        (Channel.TWO_LEVEL, SODIUM_TL, [1e-4, 1e-3], [1e-4, 1e-2, 1.0]),
    ):
        grid = decay_rates(params, channel, qbar, temperature)
        assert (grid.quadrature_error_estimate <= EPSREL * grid.gamma_total).all()


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
    w_i = dispersion(kbar_i) * SODIUM.omega0
    w_j = dispersion(kbar_j) * SODIUM.omega0
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
    base = dataclasses.replace(SODIUM, a_bc=1.0e-9)
    strong = dataclasses.replace(SODIUM, a_bc=2.0e-9)
    for field, T in (("gamma_beliaev", 0.0), ("gamma_landau", 5e-7)):
        weak_rate = getattr(two_level(0.3, T=T, params=base), field)[0, 0]
        strong_rate = getattr(two_level(0.3, T=T, params=strong), field)[0, 0]
        assert strong_rate == pytest.approx(4.0 * weak_rate, rel=1e-12)


# a_bc whose (a_bc/a)^2 underflows to 0, is subnormal, or overflows, and
# how the message prints it
OUT_OF_RANGE_A_BC = {1e-200: "0", 1e-170: "1.48e-323", 1e150: "inf", 1e200: "inf"}


@pytest.mark.parametrize("temperature", [0.0, 1e-6])
@pytest.mark.parametrize("a_bc", OUT_OF_RANGE_A_BC)
def test_two_level_out_of_range_coupling_rejected(a_bc, temperature):
    # the width prefactor divided the tolerance by 0, or scaled the widths
    # to 0 or inf
    params = dataclasses.replace(SODIUM, a_bc=a_bc)
    with pytest.raises(ParameterError, match=r"\(a_bc/a\)\^2 = .* out of double range"):
        two_level(0.5, T=temperature, params=params)
    # a medium-wide check: a grid fails it too
    error = error_of(params, Channel.TWO_LEVEL, [0.5, 5.0], [temperature, 1e-6])
    assert str(error) == (
        f"interspecies coupling (a_bc/a)^2 = {OUT_OF_RANGE_A_BC[a_bc]} is out of double range"
    )


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
    error = error_of(sparse, Channel.SINGLE_LEVEL, [1.0, 1e110, 1e130], [0.0, 1e-6])
    assert str(error) == (
        "spontaneous width prefactor 1.01e-312 is out of double range at qbar = 1e+110"
    )


def test_overflowing_mode_frequency_rejected():
    # a 5e-324 kg atom puts omega0 at 7.5e301 s^-1: qbar = 1 is a valid
    # point, but at qbar = 1548 the mode frequency overflowed and the width
    # per mode frequency read 0
    light = dataclasses.replace(SODIUM, atomic_mass=5e-324)
    error = error_of(light, Channel.SINGLE_LEVEL, [1.0, 1548.0], [0.0, 1e-6])
    assert str(error) == "mode frequency overflows at qbar = 1.55e+03"


def test_qbar_overflowing_vertex_sums_rejected():
    # a 1e20 kg atom keeps the mode frequency finite past qbar ~9.48e153,
    # where 1 + qbar^2 + omega_bar and the vertex's sums overflow: qbar
    # 1.2e154 stalled at the refinement cap with a RuntimeWarning
    heavy = dataclasses.replace(SODIUM, atomic_mass=1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        width = single_level(9e153, params=heavy).gamma_beliaev[0, 0]
        error = error_of(heavy, Channel.SINGLE_LEVEL, [9e153, 1.2e154], [0.0, 1e-6])
        # the mode frequencies are checked first: at 1.4e154 omega_bar overflows
        first = error_of(heavy, Channel.SINGLE_LEVEL, [1.2e154, 1.4e154], [0.0])
    assert width == pytest.approx(4.961049246432911e110, rel=1e-12)
    assert str(error) == "qbar = 1.2e+154 is too large: 1 + kbar^2 + omega_bar overflows"
    assert str(first) == "mode frequency overflows at qbar = 1.4e+154"


def test_overflowing_width_scale_rejected():
    # (a_bc/a)^2 ~ 1.3e307 is a normal double and the spontaneous prefactor
    # does not carry it, but the width scale 10/9 (a_bc/a)^2 prefactor omega0
    # overflows: the message names the scale, not the prefactor
    params = dataclasses.replace(SODIUM, a_bc=1e145)
    with pytest.raises(ParameterError) as raised:
        two_level(0.5, T=1e-6, params=params)
    assert str(raised.value) == (
        "spontaneous width scale inf is out of double range at qbar = 0.5"
    )
    # at qbar = 2000 the scale is finite, so the first failing point is
    # the second of the first row
    error = error_of(params, Channel.TWO_LEVEL, [2e3, 0.5, 0.1], [1e-6, 2e-6])
    assert str(error) == "spontaneous width scale inf is out of double range at qbar = 0.5"


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, SODIUM_TL),
])
def test_non_finite_width_rejected(channel, params):
    # at 1e300 K the stimulated width of qbar 1e90 overflows, and is
    # raised after the valid first row; at a = 2.75e91 m the T = 0 splitting
    # width of qbar 1e100 does, and was written as inf with exit 0
    expected = ("width overflows at qbar = {}, T = {} K: a width, its error estimate or "
                "gamma/omega is not a finite double")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = error_of(params, channel, [1e90, 1e100], [1e-6, 1e300])
        assert str(error) == expected.format("1e+90", "1e+300")
        error = error_of(params, channel, [1e90], [1e307])
        assert str(error) == expected.format("1e+90", "1e+307")
        huge = dataclasses.replace(params, scattering_length_a=2.75e91, a_bc=2.75e91)
        error = error_of(huge, channel, [1.0, 1e100], [0.0])
        assert str(error) == expected.format("1e+100", "0")
    # with it, too-hot points (the first one and wherever T = 1e300 K) and
    # an overflowing mode frequency at qbar = 1e160: the mode frequency is
    # checked first, so it is named, on every call and at that point alone
    qbar, temperature = [1e-200, 1.0, 1e90, 1e160], [1e-6, 1e300]
    expected = "mode frequency overflows at qbar = 1e+160"
    for _ in range(2):
        assert str(error_of(params, channel, qbar, temperature)) == expected
    assert str(error_of(params, channel, [1e160], [1e-6])) == expected


def test_two_level_stimulated_threshold_window():
    # free-particle kinematics forbids absorption below 1/(2 qbar) - qbar
    slow = stimulated_columns(SODIUM_TL, Channel.TWO_LEVEL, 0.05, 1e-6)
    assert slow.args[0][0] == pytest.approx(0.5 / 0.05 - 0.05, rel=1e-12)
    assert two_level(0.05, T=1e-6).gamma_landau[0, 0] >= 0.0
    assert stimulated_columns(SODIUM_TL, Channel.TWO_LEVEL, 5.0, 1e-6).args[0][0] == 0.0
    assert two_level(5.0, T=1e-6).gamma_landau[0, 0] > 0.0


@pytest.mark.parametrize("qbar", [1e-156, 4e-155])
def test_two_level_stimulated_window_empty_at_tiny_qbar(qbar):
    # the absorption threshold 1/(2 qbar) - qbar lies far beyond the thermal
    # tail: at 1e-156 its frequency overflows, at 4e-155 its Bose exponent
    # passes the largest one accepted; either way the window is empty
    params = dataclasses.replace(SODIUM, a_bc=3e-9)
    columns = stimulated_columns(params, Channel.TWO_LEVEL, qbar, 1e-13)
    assert columns.point.size == 0  # no integral: the window is empty
    # the sweep gets past the setup and stops only at the spontaneous
    # integral, which underflows at so small a qbar
    error = error_of(params, Channel.TWO_LEVEL, [qbar], [1e-13])
    assert str(error).startswith(f"spontaneous width underflows at qbar = {qbar:.3g}, ")


# ---------------------------------------------------------------------------
# quadrature control and validation


def test_tightened_tolerance_stays_within_error_estimate(monkeypatch):
    for qbar, T in ((5.0, 0.0), (1.0, 1e-6)):
        monkeypatch.setattr(rates, "EPSREL", 1e-6)
        loose = single_level(qbar, T)
        monkeypatch.setattr(rates, "EPSREL", 1e-10)
        tight = single_level(qbar, T)
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
        assert solve_alone(spontaneous) == result.gamma_beliaev[0, 0]
        assert solve_alone(stimulated) == result.gamma_landau[0, 0]


def test_integer_qbar_is_taken_as_float():
    # a JSON integer qbar squared to a Python int that numpy could not
    # exponentiate in the two-level stimulated integrand
    assert_same_bits(two_level(2**32, T=1e-6), two_level(float(2**32), T=1e-6))


def test_stimulated_width_survives_underflowing_thermal_energy():
    # k_B*T and hbar*omega0 both underflow here while hbar*omega0/(k_B*T)
    # stays finite: the Bose exponent is formed from omega0/T and the
    # exp-sinh scale from it, so the window is integrated and its width
    # underflows to exactly 0
    heavy = dataclasses.replace(SODIUM, atomic_mass=7e231)
    assert single_level(1.0, T=1e-302, params=heavy).gamma_landau[0, 0] == 0.0


@pytest.mark.parametrize("qbar", [0.0, -1.0, math.inf, math.nan])
def test_query_rejects_bad_momentum(qbar):
    with pytest.raises(ParameterError, match="qbar must be > 0"):
        single_level(qbar)


def test_query_rejects_negative_temperature():
    with pytest.raises(ParameterError):
        single_level(1.0, T=-1e-9)
    # after a valid first row, the bad temperature is named
    error = error_of(SODIUM, Channel.SINGLE_LEVEL, [1.0, 5.0], [0.0, -1e-9])
    assert str(error) == "temperature_T must be >= 0 and finite, got -1e-09"
    # every qbar is checked before any temperature
    error = error_of(SODIUM, Channel.SINGLE_LEVEL, [1.0, 0.0], [-1e-9, 0.0])
    assert str(error) == "qbar must be > 0 and a normal double, got 0.0"


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_query_rejects_non_finite_temperature(temperature):
    with pytest.raises(ParameterError, match="finite"):
        single_level(1.0, T=temperature)


# ---------------------------------------------------------------------------
# the nested double-exponential rule against an independent route


def assert_within_estimates(grid, references):
    """Every width that is a normal double lies within the printed error
    estimate of its reference, that estimate being known to the reference's
    own error; and the estimate is within the tolerance."""
    for (i, j), (beliaev, beliaev_error, landau, landau_error) in references.items():
        error, slack = 0.0, 0.0
        for width, reference, reference_error in (
                (grid.gamma_beliaev[i, j], beliaev, beliaev_error),
                (grid.gamma_landau[i, j], landau, landau_error)):
            if reference >= sys.float_info.min:
                error += abs(width - reference)
                slack += reference_error
        estimate = grid.quadrature_error_estimate[i, j]
        assert error - slack <= estimate <= EPSREL * grid.gamma_total[i, j], (i, j)


#: qbar from 1e-3 to 1e6, four per decade, and T from 0 to 1e-5 K
REFERENCE_QBAR = np.geomspace(1e-3, 1e6, 37).tolist()
REFERENCE_T = (0.0, 1e-8, 1e-7, 1e-6, 1e-5)


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, SODIUM_TL),
])
def test_widths_match_independent_reference(channel, params):
    # QUADPACK in the energy variable (spontaneous) and the momentum
    # (stimulated), with breakpoints; from qbar 1e-3 to 1e6 each printed
    # estimate must cover its distance from the reference, so an estimate
    # that understates the error fails.  Subnormal widths are not compared:
    # two converged rules differ in them, which come from subnormal
    # occupations (the two-level width at qbar 0.158 and 1e-9 K is 3.6e-320)
    grid = decay_rates(params, channel, REFERENCE_QBAR, REFERENCE_T)
    references = {
        (i, j): reference_widths(params, channel, qbar, T)
        for (i, T), (j, qbar) in itertools.product(enumerate(REFERENCE_T),
                                                    enumerate(REFERENCE_QBAR))
    }
    assert_within_estimates(grid, references)


def test_two_level_window_deep_in_the_bose_tail():
    # the absorption threshold at Bose exponents 690 to 745, where e^x
    # overflows inside the window but e^-x is still a double: a drop formed
    # as 1/(e^x - 1) cut the tail off there and never converged
    beta = _setup(SODIUM_TL, Channel.TWO_LEVEL, [1.0], [1e-8])[0].args[3][0]
    kmin = [rate_reference.inverse_dispersion(x / beta) for x in (690.0, 705.0, 712.0, 740.0)]
    qbar = [(math.sqrt(k * k + 2.0) - k) / 2.0 for k in kmin]  # 1/(2 qbar) - qbar = kmin
    grid = decay_rates(SODIUM_TL, Channel.TWO_LEVEL, qbar, [1e-8])
    assert grid.gamma_landau[0, :2].min() >= sys.float_info.min  # compared below
    assert_within_estimates(grid, {(0, j): reference_widths(SODIUM_TL, Channel.TWO_LEVEL, q, 1e-8)
                                   for j, q in enumerate(qbar)})


def test_batched_sweep_matches_quad_and_single_points():
    # phonon-regime through free-particle qbar; T = 0 rows; T = 1e-300 K
    # empties the two-level stimulated window at qbar < 1/sqrt(2)
    temperatures = (0.0, 1e-300, 2e-7, 1e-6)
    qbars = (0.02, 0.05, 0.3, 1.0, 5.0, 10.0)
    empty_windows = 0
    for channel, params in ((Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, SODIUM_TL)):
        grid = decay_rates(params, channel, qbars, temperatures)
        references = {}
        for (i, T), (j, qbar) in itertools.product(enumerate(temperatures), enumerate(qbars)):
            references[i, j] = reference_widths(params, channel, qbar, T)
            if integrals(params, channel, qbar, T)[1] is None:
                assert grid.gamma_landau[i, j] == 0.0
                empty_windows += channel is Channel.TWO_LEVEL and T > 0.0
            # no dependence on which other points share the sweep
            assert_same_bits(decay_rates(params, channel, [qbar], [T]), at(grid, i, j))
        assert_within_estimates(grid, references)
        for (i, j), (beliaev, _, landau, _) in references.items():
            for width, reference in ((grid.gamma_beliaev[i, j], beliaev),
                                     (grid.gamma_landau[i, j], landau)):
                if reference >= sys.float_info.min:
                    assert width == pytest.approx(reference, rel=1e-10, abs=0.0), (channel, i, j)
    assert empty_windows > 0


# qbar from deep in the phonon regime to far in the free-particle one, with
# 1/sqrt(2), where the two-level absorption threshold reaches 0; T = 0,
# 5e-324 K (omega0/T overflows, so the Bose exponent is inf as at T = 0) and
# 1e-300 K (no thermal occupation reaches the two-level threshold) among them
SETUP_QBAR = sorted(np.geomspace(1e-8, 300.0, 21).tolist() + [2.0**-0.5])
SETUP_T = (0.0, 5e-324, 1e-300, 1e-13, 2e-7, 1e-6)


@pytest.mark.parametrize("channel, params", [
    (Channel.SINGLE_LEVEL, SODIUM),
    (Channel.TWO_LEVEL, dataclasses.replace(SODIUM, a_bc=3e-9)),
])
def test_setup_columns_match_one_point_setup(channel, params):
    # per-axis setup broadcast to the grid gives the bits of the scalar
    # setup of each point, and the sweep the width of each one-point call
    columns = _setup(params, channel, SETUP_QBAR, list(SETUP_T))
    points = grid_queries(params, channel, SETUP_QBAR, SETUP_T)
    setups = [integrals(*point) for point in points]
    for got, k in zip(columns, (0, 1)):
        expected = [(point, setup[k]) for point, setup in enumerate(setups)
                    if setup[k] is not None]
        if k == 0:  # spontaneous integrals run qbar-major, each qbar's temperatures in order
            expected.sort(key=lambda item: item[0] % len(SETUP_QBAR))
        assert {got.rows} == {integral.rows for _, integral in expected}
        assert got.point.tolist() == [point for point, _ in expected]
        column = np.array([integral.scale for _, integral in expected])
        assert got.scale.tobytes() == column.tobytes()
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


def stall(monkeypatch, name, gate=None):
    """Multiply the integrand rates.<name> by a factor that oscillates far
    below the finest step, so that no level converges; with gate, only
    where the Bose exponent is at most gate."""
    f = getattr(rates, name)

    def stalled(nodes, work, *args):
        wobble = 2.0 + np.sin(1e12 * nodes[0])
        if gate is not None:
            wobble = np.where(args[-1] <= gate, wobble, 1.0)
        return f(nodes, work, *args) * wobble

    monkeypatch.setattr(rates, name, stalled)


@pytest.mark.parametrize("stalled, qbar, temperature, named", [
    # of four stimulated stalls, the first in T-major order is named
    ("stimulated", [0.3, 1.0], [0.0, 1e-6, 2e-6], "stimulated width at qbar = 0.3, T = 1e-06 K"),
    # below the estimate's 50-ulp floor both stall at one point: the
    # spontaneous integral is named
    ("tolerance", [5.0], [1e-6], "spontaneous width at qbar = 5, T = 1e-06 K"),
    # a spontaneous stall at 2e-6 K is named ahead of the stimulated ones,
    # the first at the earlier point (0.3, 1e-6)
    ("both", [0.3, 5.0], [1e-6, 2e-6], "spontaneous width at qbar = 0.3, T = 2e-06 K"),
])
def test_unconverged_integral_names_first_point(monkeypatch, stalled, qbar, temperature, named):
    if stalled == "tolerance":
        monkeypatch.setattr(rates, "EPSREL", 1e-15)
    else:
        stall(monkeypatch, "_stimulated_rows")
    if stalled == "both":
        hot = _setup(SODIUM, Channel.SINGLE_LEVEL, [1.0], [2e-6])[0].args[3][0]
        stall(monkeypatch, "_spontaneous_rows", gate=hot)
    error = error_of(SODIUM, Channel.SINGLE_LEVEL, qbar, temperature, QuadratureError)
    assert str(error) == f"quadrature did not converge at step 2^-7: {named}"
    # the partial width and its error are those of the named point alone
    q, T = next((q, T) for T in temperature for q in qbar
                if named.endswith(f"qbar = {q:.6g}, T = {T:.6g} K"))
    alone = error_of(SODIUM, Channel.SINGLE_LEVEL, [q], [T], QuadratureError)
    assert str(alone) == str(error)
    assert alone.partial_rate_s == error.partial_rate_s
    assert alone.error_estimate_s == error.error_estimate_s
    assert 0.0 < error.error_estimate_s < math.inf


@pytest.mark.parametrize("negated, named, field, point", [
    (("_stimulated_rows",), "stimulated width at qbar = 0.3, T = 1e-06 K",
     "gamma_landau", (1, 0)),
    # with both channels negative the spontaneous width of the first point
    # in T-major order is named
    (("_spontaneous_rows", "_stimulated_rows"),
     "spontaneous width at qbar = 0.3, T = 0 K", "gamma_beliaev", (0, 0)),
], ids=["stimulated", "both"])
def test_negative_width_raises_quadrature_error(monkeypatch, negated, named, field, point):
    grid = (SODIUM, Channel.SINGLE_LEVEL, [0.3, 1.0], [0.0, 1e-6])
    expected = getattr(decay_rates(*grid), field)[point]
    for name in negated:
        monkeypatch.setattr(rates, name, lambda *args, f=getattr(rates, name): -f(*args))
    error = error_of(*grid, QuadratureError)
    assert str(error) == f"quadrature gave a negative width: {named}"
    # negation is exact: the partial width is the true one negated
    assert error.partial_rate_s == -expected and error.error_estimate_s > 0.0


def negated_rate(sin_t, cos_t, *args, f=integrands._splitting):
    rate, *factors = f(sin_t, cos_t, *args)
    return (-rate, *factors)


@pytest.mark.parametrize("name, factor, named, field, point", [
    ("_bose_drop", lambda *args, f=integrands._bose_drop: -f(*args),
     "stimulated width at qbar = 0.3, T = 1e-06 K", "gamma_landau", (1, 0)),
    ("_splitting", negated_rate,
     "spontaneous width at qbar = 0.3, T = 0 K", "gamma_beliaev", (0, 0)),
], ids=["occupation-drop", "splitting"])
def test_sign_error_inside_an_integrand_raises_quadrature_error(
        monkeypatch, name, factor, named, field, point):
    # a factor that turns negative ahead of the integrand's nan mask still
    # reaches the negative-width check: the mask zeroes nan, not negatives
    grid = (SODIUM, Channel.SINGLE_LEVEL, [0.3, 1.0], [0.0, 1e-6])
    expected = getattr(decay_rates(*grid), field)[point]
    monkeypatch.setattr(integrands, name, factor)
    error = error_of(*grid, QuadratureError)
    assert str(error) == f"quadrature gave a negative width: {named}"
    assert error.partial_rate_s == -expected and error.error_estimate_s > 0.0


# ---------------------------------------------------------------------------
# the rule's bookkeeping and the work of a sweep


#: (start, stop) of every node-axis slice that _integrate sums: the first
#: level's coarse and odd nodes, and each finer level's nodes
RULE_SLICES = sorted({
    span for levels, coarse in (rates._SPLITTING_RULE, rates._ABSORPTION_RULE)
    for span in [(0, coarse), (coarse, levels[0][0].size)]
    + [(0, nodes[0].size) for nodes in levels[1:]]
})


@pytest.mark.parametrize("rows", [1, 7, 512])
def test_block_row_sums_equal_lone_row_sums(rows):
    # _integrate sums a slice of the node axis of all rows of a block at
    # once; a width is its own integral's only while numpy adds each row of
    # such a block to the bits of that row summed alone
    rng = np.random.default_rng(rows)
    width = max(stop for _, stop in RULE_SLICES)
    x = rng.standard_normal((512, width)) * 10.0 ** rng.uniform(-12, 12, (512, width))
    for start, stop in RULE_SLICES + [(0, used) for used in range(1, 20)]:
        alone = np.array([row[start:stop].sum() for row in x[:rows]])
        for block in (x[:rows, start:stop], x[np.arange(rows), start:stop]):
            assert block.sum(axis=1).tobytes() == alone.tobytes(), (start, stop)


def _bench_like_grid():
    """Axes of a 42 x 48 grid with the bench anchors and a T = 0 row."""
    qbars = sorted(np.geomspace(0.02, 10.0, 45).tolist() + [0.05, 0.1, 5.0])
    temperatures = np.linspace(0.0, 1e-6, 42).tolist()
    return qbars, temperatures


def test_rule_nodes_past_the_bose_tail_are_zero():
    # the exp-sinh nodes left out of the rule (t > 2.14) give exactly 0 in
    # every stimulated integrand: windows of each shape, k_B T from 1e-293
    # to 1e5 times hbar omega0, and two-level windows starting far above
    # kbar = 0
    offset = rates._exp_sinh(np.arange(-4.5 * 128, 4.0 * 128 + 1) / 128)[0]
    dropped = offset[offset > rates._MAX_BOSE_EXPONENT]
    kept = np.concatenate([nodes[0] for nodes in rates._ABSORPTION_RULE[0]])
    assert kept.max() <= rates._MAX_BOSE_EXPONENT and kept.size + dropped.size == offset.size
    tl = dataclasses.replace(SODIUM, a_bc=3e-9)
    for channel, params in ((Channel.SINGLE_LEVEL, SODIUM), (Channel.TWO_LEVEL, tl)):
        columns = _setup(params, channel, [1e-4, 0.05, 1.0, 5.0, 1e4],
                         [1e-300, 1e-13, 1e-6, 1e-2])[1]
        assert columns.point.size > 10
        for block in integrand_blocks(columns):
            with np.errstate(all="ignore"):
                values = evaluate(columns, block, (dropped, np.ones_like(dropped)))
            assert (values == 0.0).all()


def test_sweep_work_is_pinned(monkeypatch):
    # nodes per level and integrand calls of the 2016-point sweep, pinned,
    # with no integrand call past the block budget; setup that depends on
    # the medium alone runs once per sweep, as often as in a one-point
    # sweep (k0 is read once directly and once inside omega0)
    counts = {"k0": 0, "splitting_rows": 0, "spontaneous_rows": 0, "stimulated_blocks": 0}
    nodes = []
    k0, splitting = PhysicalParams.k0.fget, integrands._splitting
    spontaneous, stimulated = rates._spontaneous_rows, rates._stimulated_rows

    def counting_k0(params):
        counts["k0"] += 1
        return k0(params)

    def counting_splitting(sin_t, cos_t, qbar, *args):
        counts["splitting_rows"] += len(qbar)
        return splitting(sin_t, cos_t, qbar, *args)

    def counting_spontaneous(at, work, qbar, *args):
        nodes.append(qbar.size * at[0].size)
        counts["spontaneous_rows"] += qbar.size
        return spontaneous(at, work, qbar, *args)

    def counting_stimulated(at, work, step, *args):
        assert (args[-1] == args[-1][0]).all()  # one temperature
        nodes.append(step.size * at[0].size)
        counts["stimulated_blocks"] += 1
        return stimulated(at, work, step, *args)

    monkeypatch.setattr(PhysicalParams, "k0", property(counting_k0))
    monkeypatch.setattr(integrands, "_splitting", counting_splitting)
    monkeypatch.setattr(rates, "_spontaneous_rows", counting_spontaneous)
    monkeypatch.setattr(rates, "_stimulated_rows", counting_stimulated)
    decay_rates(SODIUM, Channel.SINGLE_LEVEL, *_bench_like_grid())
    # every integral takes level 5 alone: 2016 spontaneous rows of 211
    # nodes in blocks of 28 (a block of 29 ends at its last change of
    # temperature, and qbar-major rows change it at each row), whose
    # kinematics is computed for the 97 runs of one qbar in a block, and
    # 1968 stimulated rows of 213, the 48 of each of 41 temperatures in a
    # block of 28 and one of 20
    assert counts == {"k0": 2, "splitting_rows": 97, "spontaneous_rows": 2016,
                      "stimulated_blocks": 82}
    assert sum(nodes) == 211 * 2016 + 213 * 1968
    assert max(nodes) <= rates._BLOCK_NODES
    counts["k0"] = 0
    decay_rates(SODIUM, Channel.SINGLE_LEVEL, [5.0], [0.0])
    assert counts["k0"] == 2


# qbar from 1e-3 to 300 and T = 0 through 1e-6 K, in both channels
BLOCK_QBAR = np.geomspace(1e-3, 300.0, 9).tolist()
BLOCK_T = (0.0, 1e-300, 1e-13, 1e-6)
BLOCK_CHANNELS = ((Channel.SINGLE_LEVEL, SODIUM),
                  (Channel.TWO_LEVEL, dataclasses.replace(SODIUM, a_bc=3e-9)))


@pytest.mark.parametrize("block_nodes", [21, 42, 10**9])
@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_blocks_and_passes_move_no_bit(monkeypatch, block_nodes, batch):
    # block budgets below one integral's nodes (every block holds one row)
    # and past any sweep; sweeps of one qbar, of 7 (the last one short),
    # and of the whole grid
    expected = [decay_rates(params, channel, BLOCK_QBAR, BLOCK_T)
                for channel, params in BLOCK_CHANNELS]
    monkeypatch.setattr(rates, "_BLOCK_NODES", block_nodes)
    for (channel, params), grid in zip(BLOCK_CHANNELS, expected):
        for start in range(0, len(BLOCK_QBAR), batch):
            part = slice(start, start + batch)
            got = decay_rates(params, channel, BLOCK_QBAR[part], BLOCK_T)
            assert_same_bits(got, [column[:, part] for column in grid])


#: each production integrand and its expression form
EXPRESSION_ROWS = {
    rates._spontaneous_rows: rate_reference.spontaneous_rows,
    rates._stimulated_rows: rate_reference.stimulated_rows,
    rates._free_rows: rate_reference.free_rows,
}


@pytest.mark.parametrize("channel, params", BLOCK_CHANNELS)
def test_in_place_integrands_equal_their_expressions(channel, params):
    # the integrands write into a workspace in place: on every rule level's
    # nodes, from deep in the phonon regime to far in the free-particle one
    # and from T = 0 to 1e-5 K, each gives the bits of its expression
    qbar = np.geomspace(1e-3, 1e6, 28).tolist()
    checked = set()
    for columns in _setup(params, channel, qbar, [0.0, 1e-300, 1e-13, 1e-7, 1e-5])[:2]:
        expression = EXPRESSION_ROWS[columns.rows]
        for nodes, block in itertools.product(columns.rule[0], integrand_blocks(columns)):
            args = [arg[block, None] for arg in columns.args]
            with np.errstate(all="ignore"):
                got = evaluate(columns, block, nodes)
                expected = expression(nodes, *args)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            checked.add(columns.rows)
    assert len(checked) == 2


@pytest.mark.parametrize("block_nodes", [21, 42, 63, 2688])
def test_shared_spontaneous_factors_move_no_bit(monkeypatch, block_nodes):
    # rows of one qbar share the temperature-free factors of the
    # spontaneous integrand: with a qbar repeated, a qbar's rows split
    # across block edges (one row per block below 422 nodes, 12 at 2688)
    # and temperatures whose integrals end at different levels, every
    # width keeps the bits of its one-point sweep
    qbar, temperature = [0.3, 0.3, 63.0, 5.0, 5.0], [0.0, 1e-7, 1e-6, 1e-5]
    levels = []
    for T in temperature:
        calls = []
        columns = lone_columns(
            integrals(SODIUM, Channel.SINGLE_LEVEL, 63.0, T)[0],
            lambda nodes, *args: calls.append(nodes[0].size)
            or rates._spontaneous_rows(nodes, *args))
        rates._integrate(columns)
        levels.append(len(calls))
    assert levels == [1, 1, 2, 2]
    rows = {"spontaneous": 0, "splitting": 0}
    spontaneous, splitting = rates._spontaneous_rows, integrands._splitting

    def counting_spontaneous(nodes, work, qbar, *args):
        rows["spontaneous"] += len(qbar)
        return spontaneous(nodes, work, qbar, *args)

    def counting_splitting(sin_t, cos_t, qbar, *args):
        rows["splitting"] += len(qbar)
        return splitting(sin_t, cos_t, qbar, *args)

    monkeypatch.setattr(rates, "_BLOCK_NODES", block_nodes)
    monkeypatch.setattr(rates, "_spontaneous_rows", counting_spontaneous)
    monkeypatch.setattr(integrands, "_splitting", counting_splitting)
    grid = decay_rates(SODIUM, Channel.SINGLE_LEVEL, qbar, temperature)
    # one row per block leaves nothing to share
    assert (rows["splitting"] < rows["spontaneous"]) == (block_nodes > 63)
    for (i, T), (j, q) in itertools.product(enumerate(temperature), enumerate(qbar)):
        assert_same_bits(decay_rates(SODIUM, Channel.SINGLE_LEVEL, [q], [T]), at(grid, i, j))


@pytest.mark.parametrize("block_nodes", [21, 213, 426, 10**9])
def test_shared_stimulated_factors_move_no_bit(monkeypatch, block_nodes):
    # a block of single-level stimulated integrals ends at its last change
    # of temperature, and one of a single temperature forms the factors of k
    # once: with temperatures and a qbar repeated, blocks of one row (21 and
    # 213 nodes), of two (426), and past the whole sweep one of the first
    # two temperatures, 12 rows, and one of the last 8, in both channels,
    # every width keeps the bits of its one-point sweep
    qbar, temperature = [0.3, 0.3, 5.0, 63.0], [1e-7, 1e-7, 1e-6, 1e-5, 1e-5]
    blocks = []
    stimulated = rates._stimulated_rows

    def recording(nodes, work, step, *args):
        blocks.append((step.size, np.unique(args[-1]).size))
        return stimulated(nodes, work, step, *args)

    monkeypatch.setattr(rates, "_BLOCK_NODES", block_nodes)
    monkeypatch.setattr(rates, "_stimulated_rows", recording)
    for channel, params in BLOCK_CHANNELS:
        grid = decay_rates(params, channel, qbar, temperature)
        for (i, T), (j, q) in itertools.product(enumerate(temperature), enumerate(qbar)):
            assert_same_bits(decay_rates(params, channel, [q], [T]), at(grid, i, j))
    shared = max(rows for rows, temperatures in blocks if temperatures == 1)
    assert shared == {21: 1, 213: 1, 426: 2, 10**9: 8}[block_nodes]
    assert ((12, 2) in blocks) == (block_nodes == 10**9)
    assert max(temperatures for _, temperatures in blocks) == 1 + (block_nodes == 10**9)


@pytest.mark.parametrize("qbar, temperature", [
    ([1.0], np.linspace(1e-8, 1e-6, 20).tolist()),
    ([0.1, 1.0, 5.0], np.linspace(1e-8, 1e-6, 8).tolist()),
])
def test_few_qbar_per_temperature_fill_blocks(monkeypatch, qbar, temperature):
    # with fewer qbar per temperature than a block holds, a single-level
    # stimulated block holds several temperatures, up to its last change of
    # temperature, and forms the factors of k per integral: not a block per
    # temperature
    rows = []
    stimulated = rates._stimulated_rows

    def recording(nodes, work, step, *args):
        rows.append(step.size)
        return stimulated(nodes, work, step, *args)

    monkeypatch.setattr(rates, "_stimulated_rows", recording)
    grid = decay_rates(SODIUM, Channel.SINGLE_LEVEL, qbar, temperature)
    assert rows[:2] == [len(qbar) * (len(temperature) - 1), len(qbar)]
    for i, T in enumerate(temperature):
        one = decay_rates(SODIUM, Channel.SINGLE_LEVEL, qbar, [T])
        assert_same_bits(one, [column[i:i + 1] for column in grid])


def traced_peak(qbar, temperature):
    """The traced memory peak of a single-level sweep, in bytes."""
    tracemalloc.start()
    try:
        decay_rates(SODIUM, Channel.SINGLE_LEVEL, qbar, temperature)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_traced_peak_bounded():
    # the integrands of a channel write into one workspace of 10 buffers of
    # 6144 nodes, 0.49 MB, and a channel's integrals are dropped once
    # solved: the sweep peaks at 0.82 MB (bound: that plus 10%)
    assert traced_peak(*_bench_like_grid()) <= 9.0e5


def test_one_point_sweep_workspace_holds_one_row():
    # the workspace of a one-point sweep holds a block of one integral
    assert traced_peak([5.0], [3e-7]) <= 64 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_warm_sweep_takes_few_page_faults():
    # integrands free no block-sized temporaries, which the allocator would
    # hand back to the kernel and fault in again for the next block
    import resource

    grid = _bench_like_grid()
    decay_rates(SODIUM, Channel.SINGLE_LEVEL, *grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    decay_rates(SODIUM, Channel.SINGLE_LEVEL, *grid)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
