"""Damped moment evolution and squeezing observables."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from quasidamp.model import (
    MAX_OUTPUT_STEPS,
    PRESETS,
    BogoliubovMode,
    ParameterError,
    bogoliubov_mode,
)
from quasidamp.dynamics import (
    VACUUM,
    DriveConfig,
    IntegrationError,
    MomentState,
    SqueezingRun,
    Trajectory,
    _expm_taylor,
    _generator,
    evolve_moments,
    readout,
    run_squeezing,
)
from quasidamp.rates import Channel, decay_rates

from moment_reference import (
    decimal_doublings,
    decimal_from_vacuum,
    decimal_xi3,
    dop853_moments,
    drift_matrix,
    float64_step_loop,
    wick_spin,
)

SODIUM = PRESETS["sodium-paper"]

#: free-particle-limit mode (u=1, v=0): particle number = quasiparticle number
FREE_MODE = BogoliubovMode(kbar=5.0, omega_bar=25.0, alpha=0.0, u=1.0, v=0.0)


def drive(rabi=1e3, gamma=None, t_max=5e-3, dt=1e-5):
    return DriveConfig(
        rabi_effective=rabi,
        qbar_recoil=5.0,
        gamma_override=gamma,
        t_max=t_max,
        dt_output=dt,
    )


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def read_one(state: MomentState, mode: BogoliubovMode):
    """(n_a, n_b_plus, n_b_minus, xi12, xi3) of one state; xi NaN if undefined."""
    one_sample = Trajectory(*(np.array([getattr(state, f)]) for f in Trajectory._fields))
    return tuple(float(column[0]) for column in readout(one_sample, mode))


# ---------------------------------------------------------------------------
# generator


def test_generator_shape_and_validation():
    m = drift_matrix(2.0, 3.0)
    expected = np.array(
        [[-3.0, 0.0, 2j], [0.0, 0.0, 2j], [-4j, -4j, -1.5]], dtype=complex
    )
    assert np.array_equal(m, expected)
    with pytest.raises(ParameterError):
        drift_matrix(1.0, -0.1)
    with pytest.raises(ParameterError):
        drift_matrix(-1.0, 0.1)


def test_generator_pure_decay_spectrum():
    eig = np.sort_complex(np.linalg.eigvals(drift_matrix(0.0, 600.0)))
    assert np.allclose(eig, [-600.0, -300.0, 0.0], atol=1e-9)


def test_generator_undamped_spectrum():
    rabi = 1e3
    eig = np.sort(np.linalg.eigvals(drift_matrix(rabi, 0.0)).real)
    assert np.allclose(eig, [-2 * rabi, 0.0, 2 * rabi], atol=1e-6)
    assert np.max(np.abs(np.linalg.eigvals(drift_matrix(rabi, 0.0)).imag)) < 1e-9


def test_generator_damped_growth_eigenvalue():
    rabi, gamma = 1e3, 7.0e2
    lam = np.linalg.eigvals(drift_matrix(rabi, gamma)).real
    # fastest-growing root of lambda^2 + gamma*lambda - 4 Omega^2
    lam_plus = 0.5 * (-gamma + math.sqrt(gamma**2 + 16.0 * rabi**2))
    assert np.max(lam) == pytest.approx(lam_plus, rel=1e-12)
    # the 2x2 pair-amplitude form grows at half this rate
    pair = 0.5 * (-0.5 * gamma + math.sqrt(0.25 * gamma**2 + 4.0 * rabi**2))
    assert np.max(lam) == pytest.approx(2.0 * pair, rel=1e-12)
    assert 0.5 * np.max(lam) == pytest.approx(840.197, rel=1e-4)


@pytest.mark.parametrize("rabi", [0.0, 1e2, 1e3, 5e3])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 200.0, 1e4, 1e5])
def test_propagator_matches_scipy_expm(rabi, gamma):
    # dt up to 1e-3 s puts gamma*dt at 100 and rabi*dt at 5; n0_eq > 0 puts
    # the D row's gamma*n0_eq entry into the comparison
    for n0_eq in (0.0, 0.17):
        for dt in (1e-6, 1e-5, 1e-4, 1e-3):
            generator = _generator(rabi, gamma, n0_eq) * dt
            reference = expm(generator)
            scale = np.abs(reference).max()
            assert np.abs(_expm_taylor(generator) - reference).max() <= 1e-12 * scale


def test_real_and_complex_generators_agree():
    # evolving (x1, x2, c - c.c.) with the complex 3x3 matches the production
    # 5-variable real evolution
    rabi, gamma = 1e3, 300.0
    t = 2.3e-3
    final = evolve_moments(VACUUM, drive(rabi, t_max=t, dt=t), gamma).state(-1)
    y = expm(drift_matrix(rabi, gamma) * t) @ np.array([0.0, 1.0, 0.0], dtype=complex)
    assert final.x1 == pytest.approx(y[0].real, rel=1e-10)
    assert final.x2 == pytest.approx(y[1].real, rel=1e-10)
    assert 2.0 * final.c.imag == pytest.approx(y[2].imag, rel=1e-10)


# ---------------------------------------------------------------------------
# moment evolution


def test_undamped_matches_parametric_amplifier():
    rabi = 1e3
    traj = evolve_moments(VACUUM, drive(rabi, t_max=5e-3, dt=1e-5), gamma=0.0)
    phase = rabi * traj.t
    x1, x2 = np.sinh(phase) ** 2, np.cosh(phase) ** 2
    assert np.all(np.abs(traj.x1 - x1) < 1e-8 * np.maximum(1.0, x1))
    assert np.all(np.abs(traj.x2 - x2) < 1e-8 * np.maximum(1.0, x2))
    expected_c = -0.5j * np.sinh(2.0 * phase)
    assert np.all(np.abs(traj.c - expected_c) <= 1e-8 * np.maximum(1.0, np.abs(expected_c)))
    assert traj.x1[200] == pytest.approx(math.sinh(2.0) ** 2, rel=1e-9)  # rabi * t = 2


def test_exponential_relaxation_without_drive():
    gamma, n0_eq, a0 = 500.0, 0.3, 2.0
    initial = MomentState(t=0.0, x1=a0, x1m=0.7, x2=1.0, c=0.0j)
    traj = evolve_moments(
        initial, drive(rabi=0.0, t_max=4e-3, dt=5e-5), gamma, n0_eq=n0_eq
    )
    decay = np.exp(-gamma * traj.t)
    assert traj.x1 == pytest.approx(n0_eq + (a0 - n0_eq) * decay, rel=1e-10)
    assert traj.x1m == pytest.approx(n0_eq + 0.4 * decay, rel=1e-10)
    assert traj.x2 == pytest.approx(np.ones_like(decay), rel=1e-12)


def test_passive_mode_is_exactly_exponential():
    # log-linear fit over the driven trajectory: the passive occupation decays
    # independently of the drive
    gamma = 700.0
    initial = dataclasses.replace(VACUUM, x1m=0.7)
    traj = evolve_moments(initial, drive(1e3, t_max=3e-3, dt=1e-5), gamma)
    coeffs, residuals, *_ = np.polyfit(traj.t, np.log(traj.x1m), 1, full=True)
    assert coeffs[0] == pytest.approx(-gamma, rel=1e-10)
    assert residuals[0] < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 300.0, 3000.0])
def test_decoupled_moments_decay_as_scalar_exponentials(gamma):
    # Re c and x1m couple to nothing: from a start with Re c != 0 they decay
    # by exp(-gamma t/2) and exp(-gamma t) while the coupled moments follow
    # the adaptive Runge-Kutta reference
    rabi, n0_eq = 1e3, 0.1
    initial = MomentState(t=0.0, x1=1.0, x1m=0.4, x2=1.5, c=0.3 + 0.2j)
    traj = evolve_moments(initial, drive(rabi, t_max=3e-3, dt=3e-5), gamma, n0_eq=n0_eq)
    x1, x2, c = dop853_moments(rabi, gamma, traj.t, initial, n0_eq=n0_eq)
    scale = 1e-9 * np.maximum(1.0, x2)
    assert np.all(np.abs(traj.x1 - x1) <= scale)
    assert np.all(np.abs(traj.x2 - x2) <= scale)
    assert np.all(np.abs(traj.c - c) <= scale)
    assert np.abs(traj.c.real - 0.3 * np.exp(-0.5 * gamma * traj.t)).max() <= 1e-13
    assert np.abs(traj.x1m - (n0_eq + 0.3 * np.exp(-gamma * traj.t))).max() <= 1e-13


def test_passive_mode_vacuum_stays_empty():
    traj = evolve_moments(VACUUM, drive(1e3, t_max=1e-3, dt=1e-4), gamma=400.0)
    assert not traj.x1m.any()


def test_time_zero_identity():
    initial = MomentState(t=0.0, x1=1.5, x1m=0.2, x2=2.5, c=1.0 + 0.5j)
    traj = evolve_moments(initial, drive(1e3, t_max=1e-5, dt=1e-5), gamma=100.0)
    assert traj.state(0) == initial


@pytest.mark.parametrize("gamma_ratio", [0.0, 0.1, 1.0])
def test_integrator_cross_check(gamma_ratio):
    # the matrix-exponential propagation agrees with adaptive Runge-Kutta on
    # the independent complex generator over 5 drive e-foldings
    rabi = 1e3
    cfg = drive(rabi, t_max=5e-3, dt=5e-5)
    gamma = gamma_ratio * rabi
    a = evolve_moments(VACUUM, cfg, gamma)
    assert len(a.t) == 101
    worst = 0.0
    for i, (x1, x2, c) in enumerate(zip(*dop853_moments(rabi, gamma, a.t, VACUUM))):
        worst = max(
            worst,
            rel_gap(a.x1[i], x1),
            rel_gap(a.x2[i], x2),
            abs(a.c[i] - c) / max(1.0, abs(a.c[i]), abs(c)),
        )
    assert worst < 1e-8


@pytest.mark.parametrize("gamma", [0.0, 100.0, 1e3])
def test_correlator_cone(gamma):
    # the propagated defect D = x1*x2 - |c|^2 is the cone bound |c|^2 <= x1*x2:
    # a vacuum start at T = 0 stays on the cone, so D is exactly 0 for every
    # gamma, and the moments agree with it to roundoff
    traj = evolve_moments(VACUUM, drive(1e3, t_max=5e-3, dt=1e-5), gamma)
    assert not traj.defect.any()
    bound = traj.x1 * traj.x2
    residual = np.abs(bound - np.abs(traj.c) ** 2 - traj.defect)
    assert np.all(residual <= 1e-12 * np.maximum(1.0, bound))
    # and s = x2 - x1 is exactly 1 when undamped
    if gamma == 0.0:
        assert np.all(traj.gap == 1.0)


def test_commutator_floor():
    for gamma in (0.0, 700.0):
        traj = evolve_moments(VACUUM, drive(1e3, t_max=5e-3, dt=2e-5), gamma)
        assert traj.x2.min() >= 1.0 - 1e-9


def test_anti_normal_floor_drives_growth():
    # the naive normal-ordered closure started from vacuum (all moments zero)
    # has nothing to grow from; the anti-normal floor x2 = 1 is the seed
    rabi, gamma, t = 1e3, 200.0, 2e-3
    naive = expm(_generator(rabi, gamma, 0.0) * t) @ np.zeros(5)
    assert np.array_equal(naive, np.zeros(5))
    traj = evolve_moments(VACUUM, drive(rabi, t_max=t, dt=t), gamma)
    assert traj.x2[0] - 1.0 == 0.0  # n_a(0) = 0 after vacuum subtraction
    assert traj.x2[-1] - 1.0 > 1.0  # while the pipeline grows


def test_integration_failure_carries_last_state():
    cfg = drive(rabi=1e8, t_max=6e-3, dt=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(IntegrationError) as err:
            evolve_moments(VACUUM, cfg, gamma=0.0)
    assert isinstance(err.value.last_valid, MomentState)
    assert math.isfinite(err.value.last_valid.x1)


def test_overflowing_generator_is_an_integration_error():
    # 2*rabi*dt overflows to inf: no propagator exists, and the first step
    # is reported instead of raising from inside the matrix exponential
    with pytest.raises(IntegrationError) as err:
        evolve_moments(VACUUM, drive(rabi=1e308, t_max=1e-3, dt=1e-4), gamma=0.0)
    assert err.value.last_valid == VACUUM


def _step_loop_exit(cfg: DriveConfig, mode: BogoliubovMode) -> tuple[str, float]:
    """Message and last valid time of the IntegrationError that the float64
    step loop's trajectory earns: its first sample whose moments, or the
    product x2 (x1 + x2), are not finite, else the readout's own failure."""
    loop = float64_step_loop(VACUUM, cfg, cfg.gamma_override)
    moments = np.stack([loop.x1, loop.x2, loop.defect, loop.c.imag, loop.gap], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = np.isfinite(moments).all(axis=1) & np.isfinite(loop.x2 * (loop.x1 + loop.x2))
    if not valid.all():
        bad = int(np.argmin(valid))
        return f"non-finite state at t = {loop.t[bad]}", float(loop.t[max(bad - 1, 0)])
    with pytest.raises(IntegrationError) as err:
        readout(loop, mode)
    return str(err.value), err.value.last_valid.t


@pytest.mark.parametrize("qbar, rabi, gamma, t_max, dt", [
    # the readout overflows first: x2 (x1 + x2) stays finite up to t_max
    (1e-10, 1e3, 0.0, 0.1779, 1e-4),
    (1e-10, 1e3, 0.0, 0.1779, 1e-5),
    (1e-3, 1e3, 0.0, 0.1779, 1e-4),
    (5.0, 1e3, 0.0, 0.1779, 1e-5),
    (1e8, 1e3, 0.0, 0.1779, 1e-4),
    # the moments overflow after 18 or 178 samples, inside a doubling level
    (1e-10, 1e5, 1e3, 6e-3, 1e-5),
    (1e-3, 1e5, 0.0, 0.1779, 1e-4),
    (5.0, 1e5, 0.0, 6e-3, 1e-5),
    (5.0, 1e5, 1e3, 0.1779, 1e-4),
    (1e3, 1e5, 1e3, 6e-3, 1e-5),
    (1e8, 1e5, 0.0, 0.1779, 1e-5),
    # the step matrix, or its first few powers, overflow
    (5.0, 5.8e6, 0.0, 6e-3, 1e-5),
    (1e3, 5.8e6, 1e3, 0.1779, 1e-4),
    (1e-3, 5.8e6, 1e3, 6e-3, 1e-5),
    (5.0, 1e8, 1e3, 6e-3, 1e-5),
    (1e-10, 1e8, 0.0, 0.1779, 1e-4),
])
def test_overflow_exit_matches_step_loop(qbar, rabi, gamma, t_max, dt):
    # a power of the step can overflow where the loop's products stay finite
    # (inf * 0 = nan), which must not end the run earlier than the loop did
    cfg = DriveConfig(
        rabi_effective=rabi, qbar_recoil=qbar, gamma_override=gamma, t_max=t_max, dt_output=dt
    )
    mode = bogoliubov_mode(qbar)
    message, last_t = _step_loop_exit(cfg, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            readout(evolve_moments(VACUUM, cfg, gamma), mode)
    assert str(err.value) == message
    assert err.value.last_valid.t == last_t


def test_evolve_validation():
    cfg = drive()
    with pytest.raises(ParameterError):
        evolve_moments(VACUUM, cfg, gamma=-1.0)
    with pytest.raises(ParameterError):
        evolve_moments(VACUUM, cfg, gamma=1.0, n0_eq=-0.5)
    bad = [
        MomentState(0.0, -0.1, 0.0, 1.0, 0.0j),       # negative occupation
        MomentState(0.0, 0.0, -0.1, 1.0, 0.0j),       # negative passive occupation
        MomentState(0.0, 0.0, 0.0, 0.5, 0.0j),        # below commutator floor
        MomentState(0.0, 1.0, 0.0, 2.0, 2.0 + 0.0j),  # |c|^2 > x1*x2
        MomentState(0.0, math.nan, 0.0, 1.0, 0.0j),   # non-finite
    ]
    for state in bad:
        with pytest.raises(ParameterError):
            evolve_moments(state, cfg, gamma=1.0)


def test_drive_config_validation():
    with pytest.raises(ParameterError):
        DriveConfig(rabi_effective=-1.0, qbar_recoil=5.0)
    with pytest.raises(ParameterError):
        DriveConfig(rabi_effective=1e3, qbar_recoil=0.0)
    with pytest.raises(ParameterError):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=-1.0)
    with pytest.raises(ParameterError):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, gamma_override=-2.0)


@pytest.mark.parametrize(
    "field", ["rabi_effective", "t_max", "dt_output", "gamma_override", "qbar_recoil"]
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_drive_config_rejects_non_finite(field, value):
    settings = {"rabi_effective": 1e3, "qbar_recoil": 5.0, field: value}
    with pytest.raises(ParameterError, match=field):
        DriveConfig(**settings)


def test_drive_config_step_cap():
    # construction alone is rejected, before anything is allocated
    with pytest.raises(ParameterError, match="output steps"):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=1.0, dt_output=1e-7)
    with pytest.raises(ParameterError, match="output steps"):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=1e300, dt_output=1e-300)
    capped = DriveConfig(
        rabi_effective=1e3, qbar_recoil=5.0, t_max=MAX_OUTPUT_STEPS * 1e-6, dt_output=1.0e-6
    )
    assert round(capped.t_max / capped.dt_output) == MAX_OUTPUT_STEPS


def test_drive_config_caps_the_rounded_step_count():
    # the cap counts the steps that the output grid takes, not the raw
    # ratio: t_max/dt_output = 1000000.0000000001 at a = 17 (0.017 s at
    # 17 ns) is 1 000 000 steps, and 63 of these configs were rejected
    for a in range(1, 1000):
        cfg = DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=a * 1e-3, dt_output=a * 1e-9)
        assert cfg.output_steps == MAX_OUTPUT_STEPS
    with pytest.raises(ParameterError, match="1000001 output steps exceeds the limit"):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=0.017, dt_output=0.017 / 1000001)


def test_drive_config_rejects_dt_output_beyond_t_max():
    with pytest.raises(ParameterError, match="dt_output .* exceeds t_max"):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=1e-6, dt_output=1e-5)
    with pytest.raises(ParameterError, match="exceeds t_max"):
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=0.3, dt_output=0.1 + 0.2)
    DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=1e-5, dt_output=1e-5)


@pytest.mark.parametrize("t_max, dt, samples", [
    (2.5e-6, 1e-6, 3),  # t_max/dt = 2.5000000000000004: the grid stops at 2e-6 s
    (2.6e-6, 1e-6, 3),
    (0.3, 0.1, 4),  # 2.9999999999999996 is 3 steps up to roundoff
    (6e-3, 1e-6, 6001),  # the dynamics-long grid
    (1e-5, 1e-5, 2),
])
def test_output_grid_never_passes_t_max(t_max, dt, samples):
    cfg = drive(0.0, t_max=t_max, dt=dt)
    traj = evolve_moments(VACUUM, cfg, gamma=100.0)
    assert len(traj.t) == samples == cfg.output_steps + 1
    assert traj.t[-1] <= t_max * (1.0 + 1e-12)
    assert traj.t[-1] + dt > t_max * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# occupations and squeezing


def test_vacuum_occupations():
    mode = bogoliubov_mode(5.0)
    n_a, n_b_plus, n_b_minus, _, _ = read_one(VACUUM, mode)
    assert n_a == 0.0
    assert n_b_plus == pytest.approx(3.702332976756625e-4, rel=1e-10)
    assert n_b_minus == n_b_plus  # symmetric depletion at vacuum


def test_occupations_free_particle_limit():
    state = MomentState(t=0.0, x1=0.7, x1m=0.0, x2=1.7, c=0.0j)
    n_a, n_b_plus, n_b_minus, _, _ = read_one(state, FREE_MODE)
    assert n_b_plus == pytest.approx(0.7, rel=1e-15)
    assert n_a == pytest.approx(0.7, rel=1e-12)
    assert n_b_minus == 0.0


def test_xi3_initial_value():
    mode5 = bogoliubov_mode(5.0)
    assert read_one(VACUUM, mode5)[4] == pytest.approx(1.0 + mode5.v**2, abs=1e-12)
    mode1 = bogoliubov_mode(1.0)
    xi0 = read_one(VACUUM, mode1)[4]
    assert xi0 == pytest.approx(1.0 + mode1.v**2, abs=1e-12)
    assert xi0 > 1.07


def test_xi3_perfect_correlation_limit():
    # u=1, v=0: photon and atom numbers are copies, so the relative number
    # variance vanishes along the whole undamped trajectory
    traj = evolve_moments(VACUUM, drive(1e3, t_max=2e-3, dt=2e-4), gamma=0.0)
    assert np.all(np.abs(readout(traj, FREE_MODE).xi3[1:]) < 1e-9)


def test_xi_degenerate_flags():
    _, _, _, xi12, xi3 = read_one(VACUUM, FREE_MODE)
    assert math.isnan(xi12) and math.isnan(xi3)
    # a run reports them as NaN too: at qbar = 1e8 the vacuum depletion v^2
    # is below the degeneracy floor
    run = run_squeezing(SODIUM, dataclasses.replace(drive(gamma=0.0, t_max=1e-5), qbar_recoil=1e8))
    assert math.isnan(run.readout.xi12[0]) and math.isnan(run.readout.xi3[0])


physical_states = st.tuples(
    st.floats(min_value=1e-3, max_value=50.0),   # x1
    st.floats(min_value=0.0, max_value=5.0),     # x1m
    st.floats(min_value=1.0 + 1e-3, max_value=50.0),  # x2
    st.floats(min_value=0.0, max_value=1.0),     # pair-correlator saturation
    st.floats(min_value=0.0, max_value=2.0 * math.pi),  # arg c
)


def assert_xi12_matches_wick(state: MomentState, mode: BogoliubovMode) -> None:
    """The production closed form xi1 = xi2 against the oracle's Wick
    expansion, with zero pseudo-spin means."""
    mean1, mean2, wick_xi1, wick_xi2 = wick_spin(state, mode)
    assert mean1 == 0.0 and mean2 == 0.0
    xi12 = read_one(state, mode)[3]
    assert xi12 == pytest.approx(wick_xi1, rel=1e-10)
    assert xi12 == pytest.approx(wick_xi2, rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(physical_states, st.floats(min_value=0.1, max_value=10.0))
def test_xi12_matches_closed_form(raw, kbar):
    x1, x1m, x2, saturation, phase = raw
    # a physical Gaussian state obeys both pair-correlator bounds,
    # |c|^2 <= x1*x2 and |c|^2 <= (x1+1)(x2-1)
    c_max = math.sqrt(min(x1 * x2, (x1 + 1.0) * (x2 - 1.0)))
    c = saturation * c_max * complex(math.cos(phase), math.sin(phase))
    state = MomentState(t=0.0, x1=x1, x1m=x1m, x2=x2, c=c)
    assert_xi12_matches_wick(state, bogoliubov_mode(kbar))


def test_xi12_matches_wick_on_damped_trajectory():
    params = dataclasses.replace(SODIUM, temperature_T=3e-7)
    gamma = decay_rates(params, Channel.SINGLE_LEVEL, [5.0], [3e-7]).gamma_total[0, 0]
    assert gamma > 0.0
    traj = evolve_moments(VACUUM, drive(1e3, t_max=6e-3, dt=1e-6), gamma)
    mode = bogoliubov_mode(5.0)
    for i in range(0, len(traj.t), 100):
        assert_xi12_matches_wick(traj.state(i), mode)


def test_readout_matches_per_sample_loop():
    # the whole-array readout does the same arithmetic as a per-sample loop,
    # so occupations and xi3 agree exactly (written trajectories stay
    # byte-stable); xi1 = xi2 is checked against the Wick engine above
    mode = bogoliubov_mode(5.0)
    traj = evolve_moments(
        MomentState(t=0.0, x1=0.17, x1m=0.17, x2=1.0, c=0.0j),
        drive(1e3, t_max=6e-3, dt=1e-5), gamma=700.0, n0_eq=0.17,
    )
    r = readout(traj, mode)
    u2, v2 = mode.u * mode.u, mode.v * mode.v
    for i in range(len(traj.t)):
        x1, x1m, d, s = traj.x1[i], traj.x1m[i], traj.defect[i], traj.gap[i]
        w = v2 * (x1m + 1.0)
        n_a = traj.x2[i] - 1.0
        n_b = u2 * x1 + w
        n_b_minus = u2 * x1m + v2 * (x1 + 1.0)
        e = s - v2 * x1
        xi3 = (e * (e - 1.0) + w * (2.0 * u2 * x1 + w + 1.0) + 2.0 * u2 * d) / (n_a + n_b)
        assert (r.n_a[i], r.n_b_plus[i], r.n_b_minus[i], r.xi3[i]) == (n_a, n_b, n_b_minus, xi3)


def test_readout_rejects_non_positive_state():
    mode = bogoliubov_mode(5.0)
    traj = evolve_moments(VACUUM, drive(1e3, t_max=1e-4, dt=1e-5), gamma=0.0)
    readout(traj, mode)  # the true trajectory is positive
    # push sample 5 outside the cone: with s = 1 and x1m = 0 the {a, b^dag}
    # Gram block determinant u^2 (s - 1 + D) + v^2 x1m n_a is u^2 D < 0
    sample_4 = traj.state(4)
    traj.defect[5] = -0.01 * traj.x1[5] * traj.x2[5]
    with pytest.raises(IntegrationError, match="not positive") as err:
        readout(traj, mode)
    assert err.value.last_valid == sample_4


@pytest.mark.parametrize("gamma", [0.0, 603.18, 3384.28])
def test_xi3_matches_50_digit_propagation(gamma):
    # the dynamics-long grid: 6001 samples at 1 us, where the undamped
    # moments reach 4e4 and n_a(n_a+1) + n_b(n_b+1) - 2 u^2 |c|^2 cancels
    # terms near 2e9 down to a numerator near 3e2
    traj = evolve_moments(VACUUM, drive(1e3, t_max=6e-3, dt=1e-6), gamma)
    reference = decimal_from_vacuum(1e3, gamma, 1e-6, len(traj.t) - 1)
    xi3 = decimal_xi3(reference, bogoliubov_mode(5.0))
    assert len(xi3) == 6001
    got = readout(traj, bogoliubov_mode(5.0)).xi3
    assert np.max(np.abs(got - xi3) / xi3) <= 1e-11
    gap = np.array([float(state[4]) for state in reference])
    assert np.max(np.abs(traj.gap - gap) / gap) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 603.18, 3384.28])
def test_xi3_matches_50_digit_doublings_up_to_the_step_cap(gamma):
    # a million 6 ns steps over the 6 ms trajectory, checked at t = 2^j dt,
    # j = 0..19; the worst error sits near j = 11, where n_a ~ 1e-4 is held
    # as x2 - 1 (measured 2.8e-10 / 2.0e-10 / 3.9e-11 for the doubling scan,
    # 2.6e-10 / 3.7e-10 / 5.1e-11 for a step-by-step loop)
    mode = bogoliubov_mode(5.0)
    cfg = drive(1e3, t_max=6e-3, dt=6e-9)
    traj = evolve_moments(VACUUM, cfg, gamma)
    assert len(traj.t) == MAX_OUTPUT_STEPS + 1
    reference = decimal_doublings(1e3, gamma, 6e-9, 19)
    at = 2 ** np.arange(20)
    sampled = Trajectory(*(field[at] for field in traj))
    xi3 = decimal_xi3(reference, mode)
    assert np.max(np.abs(readout(sampled, mode).xi3 - xi3) / xi3) <= 5e-10
    gap = np.array([float(state[4]) for state in reference])
    assert np.max(np.abs(sampled.gap - gap) / gap) <= 5e-11


@pytest.mark.parametrize("gamma", [531.0, 3384.0])
def test_thermal_start_matches_dop853(gamma):
    # a thermal start relaxing to n0_eq couples x2 into the defect's row
    # (D' = -gamma D + gamma n0_eq x2), which every T = 0 run leaves at 0
    n_th, rabi = 0.17, 1e3
    initial = MomentState(t=0.0, x1=n_th, x1m=n_th, x2=1.0, c=0.0j)
    traj = evolve_moments(initial, drive(rabi, t_max=5e-3, dt=5e-5), gamma, n0_eq=n_th)
    assert (traj.defect[0], traj.gap[0]) == pytest.approx((n_th, 1.0 - n_th), rel=1e-15)
    x1, x2, c = dop853_moments(rabi, gamma, traj.t, initial, n0_eq=n_th)
    defect, gap = x1 * x2 - np.abs(c) ** 2, x2 - x1
    scale = np.maximum(1.0, x2)
    assert np.max(np.abs(traj.x1 - x1) / scale) < 1e-9
    assert np.max(np.abs(traj.x2 - x2) / scale) < 1e-9
    assert np.max(np.abs(traj.c - c) / scale) < 1e-9
    assert np.max(np.abs(traj.gap - gap) / scale) < 1e-9
    assert np.max(np.abs(traj.defect - defect) / (scale * scale)) < 1e-9


def test_xi12_equal_along_driven_trajectory():
    mode = bogoliubov_mode(5.0)
    traj = evolve_moments(VACUUM, drive(1e3, t_max=1e-3, dt=1e-4), gamma=0.0)
    assert_xi12_matches_wick(traj.state(-1), mode)  # rabi * t = 1


# ---------------------------------------------------------------------------
# assembled squeezing runs


def test_run_uses_computed_width():
    cfg = drive(1e3, t_max=1e-4, dt=5e-5)
    for temperature in (0.0, 3e-7):
        params = dataclasses.replace(SODIUM, temperature_T=temperature)
        run = run_squeezing(params, cfg)
        rates = decay_rates(params, Channel.SINGLE_LEVEL, [5.0], [temperature])
        assert run.gamma_used == rates.gamma_total[0, 0]
        assert type(run.gamma_used) is float
        assert run.mode.kbar == 5.0


def test_run_respects_override():
    cfg = drive(1e3, gamma=123.0, t_max=1e-4, dt=5e-5)
    run = run_squeezing(SODIUM, cfg)
    assert run.gamma_used == 123.0


def test_run_initial_point():
    run = run_squeezing(SODIUM, drive(1e3, t_max=1e-4, dt=5e-5))
    r = run.readout
    assert run.t[0] == 0.0
    assert r.n_a[0] == 0.0
    assert r.n_b_plus[0] == pytest.approx(run.mode.v**2, rel=1e-10)
    assert r.xi3[0] == pytest.approx(1.0 + run.mode.v**2, abs=1e-12)
    assert run.depletion_valid[0]


def test_run_growth_and_crossing():
    run = run_squeezing(SODIUM, drive(1e3, t_max=3e-3, dt=1e-5))
    r = run.readout
    valid = run.depletion_valid
    assert (r.n_a[valid] >= -1e-12).all() and (r.n_b_plus[valid] >= -1e-12).all()
    # photon occupation starts below the atomic one (vacuum depletion) and
    # overtakes it
    assert r.n_a[0] < r.n_b_plus[0]
    crossed = r.n_a >= r.n_b_plus
    assert crossed.any()
    assert 0.0 < run.t[crossed.argmax()] < 1e-3


def test_run_monotone_growth_before_depletion():
    run = run_squeezing(SODIUM, drive(1e3, t_max=3e-3, dt=2e-5))
    assert run.depletion_valid.sum() > 10
    for column in (run.readout.n_a, run.readout.n_b_plus):
        valid = column[run.depletion_valid]
        assert (valid[1:] >= valid[:-1]).all()


def test_depletion_flag_trips_for_small_condensate():
    small = dataclasses.replace(SODIUM, atom_count_N0=1e4)
    run = run_squeezing(small, drive(1e3, gamma=0.0, t_max=6e-3, dt=2e-5))
    flags = run.depletion_valid.tolist()
    assert flags[0] is True
    assert flags[-1] is False
    # single transition: once invalid, stays invalid
    first_bad = flags.index(False)
    assert all(not f for f in flags[first_bad:])


def test_damped_squeezing_minimum_earlier_and_larger():
    damped = run_squeezing(SODIUM, drive(1e3, t_max=4e-3, dt=1e-5))
    free = run_squeezing(SODIUM, drive(1e3, gamma=0.0, t_max=4e-3, dt=1e-5))

    def xi3_minimum(run: SqueezingRun):
        i = int(np.nanargmin(run.readout.xi3))
        return run.t[i], run.readout.xi3[i]

    t_damped, xi_damped = xi3_minimum(damped)
    t_free, xi_free = xi3_minimum(free)
    assert t_damped < t_free
    assert xi_damped > xi_free


def test_short_time_damping_insensitivity():
    # for t << 1/gamma the computed-width run tracks the undamped one
    cfg = drive(1e3, t_max=2e-5, dt=5e-6)
    with_damping = run_squeezing(SODIUM, cfg)
    without = run_squeezing(SODIUM, dataclasses.replace(cfg, gamma_override=0.0))
    assert with_damping.gamma_used * cfg.t_max < 0.02
    p, q = with_damping.readout, without.readout
    assert p.n_a[1:] == pytest.approx(q.n_a[1:], rel=1e-2)
    assert p.xi3[1:] == pytest.approx(q.xi3[1:], rel=1e-2)
