"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion report;
every check is also enforced with plain asserts so the suite fails loudly.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from quasidamp.cli import main
from quasidamp.dynamics import (
    VACUUM,
    DriveConfig,
    Trajectory,
    evolve_moments,
    readout,
    run_squeezing,
)
from quasidamp.model import (
    HBAR,
    PRESETS,
    TwoLevelParams,
    bogoliubov_mode,
    derive_units,
    dispersion,
)
from quasidamp.oracle import (
    fit_decay_rate,
    flat_bath,
    integrate_discrete_bath,
    tms_fock_moment,
    tms_pair_table,
    wick_fourth_moment,
)
from quasidamp.rates import Channel, decay_rates

from moment_reference import dop853_from_vacuum, wick_spin

SODIUM = PRESETS["sodium-paper"]
SODIUM_TL = dataclasses.replace(
    SODIUM, two_level=TwoLevelParams(a_bc=SODIUM.scattering_length_a)
)


def check(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def single_level(qbar, T=0.0):
    """The single-level widths at one point, as a 1x1 grid."""
    return decay_rates(SODIUM, Channel.SINGLE_LEVEL, [qbar], [T])


def two_level(qbar, T=0.0):
    """The two-level widths at one point, as a 1x1 grid."""
    return decay_rates(SODIUM_TL, Channel.TWO_LEVEL, [qbar], [T])


@pytest.fixture(scope="module")
def squeezing_runs():
    """Damped (computed width) and undamped reproduction-preset trajectories."""
    drive = DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=4e-3, dt_output=1e-5)
    damped = run_squeezing(SODIUM, drive)
    free = run_squeezing(SODIUM, dataclasses.replace(drive, gamma_override=0.0))
    return damped, free


def test_criterion_01_rate_anchor():
    start = time.perf_counter()
    gamma = single_level(5.0).gamma_beliaev[0, 0]
    elapsed = time.perf_counter() - start
    ratio = gamma / (dispersion(5.0) * derive_units(SODIUM).omega0)
    ok = 2.1e-3 <= ratio <= 3.5e-3 and elapsed < 5.0
    check(1, ok, f"gamma_B/omega_q = {ratio:.6g} in [2.1e-3, 3.5e-3], {elapsed:.2f} s < 5 s")


def test_criterion_02_single_level_asymptote():
    units = derive_units(SODIUM)
    worst = 0.0
    for qbar in (0.02, 0.05):
        q = qbar * units.k0
        closed = 3.0 * HBAR * q**5 / (
            320.0 * math.pi * SODIUM.atomic_mass * SODIUM.condensate_density_n0
        )
        worst = max(worst, abs(single_level(qbar).gamma_beliaev[0, 0] / closed - 1.0))
    grid = np.geomspace(0.02, 0.1, 5)
    gammas = [single_level(q).gamma_beliaev[0, 0] for q in grid]
    slope = float(np.polyfit(np.log(grid), np.log(gammas), 1)[0])
    ok = worst <= 0.05 and abs(slope - 5.0) <= 0.1
    check(2, ok, f"max deviation from 3hq^5/(320 pi m n0) = {worst:.2e} <= 5%, "
                 f"slope = {slope:.4f} = 5.0 +- 0.1")


def test_criterion_03_two_level_asymptote():
    units = derive_units(SODIUM)
    worst = 0.0
    worst_ratio = 0.0
    for qbar in (0.02, 0.05):
        q = qbar * units.k0
        closed = HBAR * q**5 / (
            96.0 * math.pi * SODIUM.atomic_mass * SODIUM.condensate_density_n0
        )
        gamma2 = two_level(qbar).gamma_beliaev[0, 0]
        gamma1 = single_level(qbar).gamma_beliaev[0, 0]
        worst = max(worst, abs(gamma2 / closed - 1.0))
        worst_ratio = max(worst_ratio, abs(gamma2 / gamma1 / (10.0 / 9.0) - 1.0))
    ok = worst <= 0.05 and worst_ratio <= 0.02
    check(3, ok, f"max deviation from hq^5/(96 pi m n0) = {worst:.2e} <= 5%, "
                 f"channel ratio off 10/9 by {worst_ratio:.2e} <= 2%")


def test_criterion_04_landau_vanishes_at_zero_temperature():
    values = [
        rates(q).gamma_landau[0, 0]
        for rates in (single_level, two_level)
        for q in (0.1, 1.0, 5.0)
    ]
    ok = all(v == 0.0 for v in values)
    check(4, ok, f"both channels exactly 0 at T=0 (got {set(values)})")


def test_criterion_05_moment_integrator():
    rabi = 1e3
    drive = DriveConfig(rabi_effective=rabi, qbar_recoil=5.0, t_max=5e-3, dt_output=1e-5)

    # closed form, gamma = 0
    free = evolve_moments(VACUUM, drive, gamma=0.0)
    x1, x2 = np.sinh(rabi * free.t) ** 2, np.cosh(rabi * free.t) ** 2
    closed_worst = float(max(
        (np.abs(free.x1 - x1) / np.maximum(1.0, x1)).max(),
        (np.abs(free.x2 - x2) / np.maximum(1.0, x2)).max(),
    ))

    # cross-check against DOP853 on the tests' complex generator, and state
    # invariants, over gamma/Omega in {0, 0.1, 1}
    cross_worst = 0.0
    x2_min = math.inf
    cone_worst = -math.inf
    for gamma in (0.0, 0.1 * rabi, rabi):
        a = evolve_moments(VACUUM, drive, gamma)
        x1, x2, c = dop853_from_vacuum(rabi, gamma, a.t)
        scale = np.maximum(1.0, np.maximum(np.abs(a.x1), np.abs(a.x2)))
        cross_worst = max(
            cross_worst,
            (np.abs(a.x1 - x1) / scale).max(),
            (np.abs(a.x2 - x2) / scale).max(),
            (np.abs(a.c - c) / np.maximum(1.0, np.abs(a.c))).max(),
        )
        x2_min = min(x2_min, a.x2.min())
        cone_worst = max(cone_worst, (np.abs(a.c) ** 2 - a.x1 * a.x2).max())

    # passive-mode exponential decay: log-linear fit residual
    gamma = 700.0
    passive = evolve_moments(dataclasses.replace(VACUUM, x1m=0.7), drive, gamma)
    coeffs, residuals, *_ = np.polyfit(passive.t, np.log(passive.x1m), 1, full=True)
    residual = float(residuals[0])

    ok = (
        closed_worst <= 1e-8
        and cross_worst <= 1e-8
        and residual < 1e-10
        and x2_min >= 1.0 - 1e-9
        and cone_worst <= 1e-9
    )
    check(5, ok, f"closed form {closed_worst:.2e} <= 1e-8, cross-check {cross_worst:.2e}"
                 f" <= 1e-8, log-fit residual {residual:.2e} < 1e-10, "
                 f"x2 >= 1-1e-9 (min {x2_min:.12f}), |c|^2 - x1 x2 <= 1e-9 "
                 f"(max {cone_worst:.2e})")


def test_criterion_06_squeezing_initial_condition():
    vacuum = Trajectory(*(np.array([getattr(VACUUM, f)]) for f in Trajectory._fields))
    mode5 = bogoliubov_mode(5.0)
    xi_5 = float(readout(vacuum, mode5).xi3[0])
    diff = abs(xi_5 - (1.0 + mode5.v**2))
    mode1 = bogoliubov_mode(1.0)
    xi_1 = float(readout(vacuum, mode1).xi3[0])
    ok = diff <= 1e-10 and xi_1 > 1.07
    check(6, ok, f"xi3(0) - (1+v^2) = {diff:.2e} <= 1e-10 at kbar=5 "
                 f"(v^2 = {mode5.v**2:.4g}), xi3(0) = {xi_1:.4f} > 1.07 at kbar=1")


def test_criterion_07_figure_shapes(squeezing_runs):
    damped, free = squeezing_runs

    # (a) crossing and monotone growth before depletion cutoff
    crossed = damped.readout.n_a >= damped.readout.n_b_plus
    crossing = float(damped.t[crossed.argmax()]) if crossed.any() else None
    monotone = True
    for run in (damped, free):
        for column in (run.readout.n_a, run.readout.n_b_plus):
            valid = column[run.depletion_valid]
            monotone &= bool((valid[1:] >= valid[:-1]).all())
    part_a = crossing is not None and monotone

    # (b) damped minimum earlier and larger
    def xi3_minimum(run):
        """(t, xi3, xi1) at the first minimum of xi3."""
        i = int(np.nanargmin(run.readout.xi3))
        return run.t[i], run.readout.xi3[i], run.readout.xi12[i]

    (td, xi3_d, _), (tf, xi3_f, xi1_f) = xi3_minimum(damped), xi3_minimum(free)
    part_b = td < tf and xi3_d > xi3_f

    # (c) zero spin means and xi1 = xi2 by the oracle's Wick expansion, which
    # the production closed form matches
    mode = free.mode
    trajectory = evolve_moments(
        VACUUM,
        DriveConfig(rabi_effective=1e3, qbar_recoil=5.0, t_max=4e-3, dt_output=4e-4),
        gamma=0.0,
    )
    means_zero = True
    xi_equal = True
    for i, xi12 in enumerate(readout(trajectory, mode).xi12):
        mean1, mean2, xi1, xi2 = wick_spin(trajectory.state(i), mode)
        means_zero &= mean1 == 0.0 and mean2 == 0.0
        tolerance = 1e-9 * max(1.0, abs(xi1))
        xi_equal &= abs(xi1 - xi2) <= tolerance and abs(xi12 - xi1) <= tolerance
    part_c = means_zero and xi_equal

    # (d) spin variances at least one order above xi3 at the undamped minimum
    ratio = xi1_f / xi3_f
    part_d = ratio >= 10.0

    ok = part_a and part_b and part_c and part_d
    check(7, ok, f"(a) crossing at {crossing!r} s, monotone={monotone}; "
                 f"(b) damped min ({td:.4g} s, {xi3_d:.4g}) vs undamped "
                 f"({tf:.4g} s, {xi3_f:.4g}); (c) means zero, xi1=xi2; "
                 f"(d) xi1/xi3 = {ratio:.3g} >= 10")


def test_criterion_08_markov_oracle():
    gamma_gr = 2.0 * math.pi * 0.01**2 * 200.0  # kappa=0.01, rho=200
    bandwidth = 10.0
    errors = []
    elapsed_2000 = None
    # coarse-to-fine ladder: refinement must walk the fit toward the golden
    # rule; the finest bath must land within 10% and stay under the time cap
    for n_modes in (50, 200, 800, 2000):
        spacing = bandwidth / n_modes
        kappa = math.sqrt(gamma_gr * spacing / (2.0 * math.pi))
        bath = flat_bath(n_modes, spacing, kappa)
        start = time.perf_counter()
        series = integrate_discrete_bath(bath, 1.05 * 3.0 / gamma_gr, n_samples=4096)
        fitted, _ = fit_decay_rate(series, (5.0 / bandwidth, 3.0 / gamma_gr))
        if n_modes == 2000:
            elapsed_2000 = time.perf_counter() - start
        errors.append(abs(fitted - gamma_gr))
    spacing_fine = bandwidth / 2000.0
    within = errors[-1] <= 0.10 * gamma_gr
    monotone = all(late <= early for early, late in zip(errors, errors[1:]))

    coarse = flat_bath(40, 0.5, 0.05)
    warned = integrate_discrete_bath(coarse, 1.2 * coarse.revival_time, n_samples=256)

    ok = (
        spacing_fine <= gamma_gr / 20.0
        and within
        and monotone
        and warned.revival_warning
        and elapsed_2000 < 10.0
    )
    ladder = " >= ".join(f"{e:.6e}" for e in errors)
    check(8, ok, f"fit error {errors[-1] / gamma_gr:.2%} <= 10% at spacing "
                 f"{spacing_fine:.3g} <= gamma/20, refinement errors {ladder}, "
                 f"revival warning {warned.revival_warning}, "
                 f"2000 modes in {elapsed_2000:.2f} s < 10 s")


def test_criterion_09_wick_oracle():
    worst = 0.0
    count = 0
    for r in (0.1, 0.5, 1.0):
        table = tms_pair_table(r)
        for a1 in ("a", "ad"):
            for a2 in ("a", "ad"):
                for b1 in ("b", "bd"):
                    for b2 in ("b", "bd"):
                        ops = (a1, a2, b1, b2)
                        worst = max(
                            worst, abs(wick_fourth_moment(table, ops) - tms_fock_moment(r, ops))
                        )
                        count += 1
    ok = worst <= 1e-10 and count == 48
    check(9, ok, f"{count} fourth moments vs Fock series, worst |diff| = {worst:.2e} <= 1e-10")


def test_criterion_10_byte_determinism(tmp_path):
    cfg = {
        "preset": "sodium-paper",
        "drive": {"t_max": 2e-3, "dt_output": 1e-5},
        "rate_query": {"qbar": [0.05, 5.0], "temperature": [0.0, 1e-6]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    snapshots = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["rates", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(out)]) == 0
        snapshots.append(
            tuple(
                (out / name).read_bytes()
                for name in ("rates.csv", "rates.meta.json", "trajectory.csv", "summary.json")
            )
        )
    ok = snapshots[0] == snapshots[1]
    check(10, ok, "rates + dynamics outputs byte-identical across two runs")
