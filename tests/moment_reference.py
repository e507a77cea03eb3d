"""Test-side references for the moment equations and their readout.

The complex 3x3 generator below is written independently of the production
real 5x5 one, and `dop853_moments` integrates it with scipy's adaptive
Runge-Kutta; the tests compare the production matrix-exponential
propagation against it.  `decimal_from_vacuum` propagates the moments and
the invariants D and s in 50-digit decimal arithmetic, against which the
tests check xi3 where the double-precision closed form cancels;
`decimal_doublings` reaches the same 50-digit states at t = 2^j dt by
squaring the step, up to a million steps.  `float64_step_loop` steps the
production step matrix one sample at a time in doubles, the propagation
that evolve_moments' doubling scan replaced.
`wick_spin` evaluates the pseudo-spin means and variances by the oracle's
Wick expansion, against which the tests check the production closed form.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import solve_ivp

from quasidamp.dynamics import MomentState, Trajectory, _expm_taylor, _generator
from quasidamp.model import BogoliubovMode, DriveConfig, ParameterError
from quasidamp.oracle import GaussianSecondMoments, wick_fourth_moment


def drift_matrix(rabi: float, gamma: float) -> np.ndarray:
    """Complex 3x3 generator of the coupled moments.

    Acts on the vector (<beta^dag beta> - n0_eq, <a a^dag> + n0_eq,
    <a beta> - c.c.); the discarded combination <a beta> + c.c. obeys a
    closed decaying equation and stays zero when started at zero.  The
    production integrator steps the equivalent real system of (x1, x2, Im c)
    and the invariants D and s, and decays Re c and x1m as scalars — see
    dynamics._generator.
    """
    if gamma < 0.0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    if rabi < 0.0:
        raise ParameterError(f"rabi must be >= 0, got {rabi}")
    return np.array(
        [
            [-gamma, 0.0, 1j * rabi],
            [0.0, 0.0, 1j * rabi],
            [-2j * rabi, -2j * rabi, -0.5 * gamma],
        ],
        dtype=complex,
    )


def dop853_moments(rabi: float, gamma: float, t_eval: np.ndarray,
                   initial: MomentState, n0_eq: float = 0.0):
    """(x1, x2, c) on t_eval from initial (at initial.t), relaxing toward
    n0_eq, by DOP853.

    Re c obeys Re c' = -(gamma/2) Re c on its own, so it is the closed-form
    decay of its initial value, and c = Re c + (c - c.c.)/2.
    """
    generator = drift_matrix(rabi, gamma)
    sol = solve_ivp(
        lambda _t, y: generator @ y,
        (initial.t, t_eval[-1]),
        np.array([initial.x1 - n0_eq, initial.x2 + n0_eq, 2j * initial.c.imag]),
        t_eval=t_eval,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success, sol.message
    x1, x2, c_minus_cc = sol.y
    re_c = initial.c.real * np.exp(-0.5 * gamma * (t_eval - initial.t))
    return x1.real + n0_eq, x2.real - n0_eq, re_c + 0.5 * c_minus_cc


def _decimal_step(rabi, gamma, dt):
    """exp(G dt) of the 5x5 real generator, in the current decimal context.

    G is the generator of x1' = -gamma x1 - 2 rabi Im c, x2' = -2 rabi Im c,
    Im c' = -rabi (x1 + x2) - (gamma/2) Im c, D' = -gamma D, s' = gamma x1
    on (x1, x2, Im c, D, s); the step is a 40-term Taylor series summed from
    the exact values of the doubles rabi, gamma and dt.
    """
    rabi, gamma, dt = Decimal(rabi), Decimal(gamma), Decimal(dt)
    zero = Decimal(0)
    generator = [
        [-gamma, zero, -2 * rabi, zero, zero],
        [zero, zero, -2 * rabi, zero, zero],
        [-rabi, -rabi, -gamma / 2, zero, zero],
        [zero, zero, zero, -gamma, zero],
        [gamma, zero, zero, zero, zero],
    ]
    x = [[entry * dt for entry in row] for row in generator]
    term = [[Decimal(int(i == j)) for j in range(5)] for i in range(5)]
    step = [row[:] for row in term]
    for k in range(1, 40):
        term = [[v / k for v in row] for row in _decimal_matmul(term, x)]
        step = [[step[i][j] + term[i][j] for j in range(5)] for i in range(5)]
    return step


def _decimal_matmul(a, b):
    return [[sum(a[i][m] * b[m][j] for m in range(5)) for j in range(5)] for i in range(5)]


def _decimal_vacuum():
    return [Decimal(0), Decimal(1), Decimal(0), Decimal(0), Decimal(1)]


def decimal_from_vacuum(rabi: float, gamma: float, dt: float, steps: int):
    """(x1, x2, Im c, D, s) at t = 0, dt, ..., steps*dt from the vacuum at
    n0_eq = 0, each a 50-digit Decimal, stepped by the 50-digit exp(G dt).

    Its D and s rows are as exact as the generator's.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        step = _decimal_step(rabi, gamma, dt)
        states = [_decimal_vacuum()]
        for _ in range(steps):
            y = states[-1]
            states.append([sum(row[j] * y[j] for j in range(5)) for row in step])
        return states


def decimal_doublings(rabi: float, gamma: float, dt: float, doublings: int):
    """(x1, x2, Im c, D, s) at t = 2^j dt for j = 0, ..., doublings from the
    vacuum at n0_eq = 0, each a 50-digit Decimal.

    The state at 2^j dt is exp(G dt) squared j times, applied to the vacuum,
    so a million-step time costs twenty 5x5 products instead of a million
    steps.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        power = _decimal_step(rabi, gamma, dt)
        vacuum = _decimal_vacuum()
        states = []
        for j in range(doublings + 1):
            if j:
                power = _decimal_matmul(power, power)
            states.append([sum(row[i] * vacuum[i] for i in range(5)) for row in power])
        return states


def float64_step_loop(initial: MomentState, drive: DriveConfig, gamma: float,
                      n0_eq: float = 0.0) -> Trajectory:
    """Every sample of evolve_moments' output grid, stepped one sample at a
    time in doubles: z[i + 1] = step @ z[i] with the production step matrix,
    and Re c and x1m - n0_eq multiplied by their decay factors each step.

    Non-finite samples are kept, not reported, so a test can find where this
    loop first overflows.
    """
    ratio = drive.t_max / drive.dt_output
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-12 * ratio:
        n_steps = math.floor(ratio)
    dt = drive.dt_output
    step = _expm_taylor(_generator(drive.rabi_effective, gamma, n0_eq) * dt)
    shift = np.array([-n0_eq, n0_eq, n0_eq * n0_eq, 0.0, 2.0 * n0_eq])
    z = np.empty((n_steps + 1, 5))
    z[0] = (initial.x1, initial.x2, initial.defect, initial.c.imag, initial.gap)
    z[0] += shift
    c = np.empty(n_steps + 1, dtype=complex)
    x1m = np.empty(n_steps + 1)
    c[0], x1m[0] = initial.c.real, initial.x1m - n0_eq
    decay_c, decay_x1m = math.exp(-0.5 * gamma * dt), math.exp(-gamma * dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            z[i + 1] = step @ z[i]
            c.real[i + 1] = c.real[i] * decay_c
            x1m[i + 1] = x1m[i] * decay_x1m
        z -= shift
    c.imag = z[:, 3]
    return Trajectory(
        t=initial.t + dt * np.arange(n_steps + 1), x1=z[:, 0], x1m=x1m + n0_eq, x2=z[:, 1],
        c=c, defect=z[:, 2], gap=z[:, 4],
    )


def decimal_xi3(states, mode: BogoliubovMode) -> np.ndarray:
    """xi3 = [n_a(n_a+1) + n_b(n_b+1) - 2 u^2 |c|^2] / (n_a + n_b) of each
    state of decimal_from_vacuum, evaluated in 50 digits with x1m = 0, Re c = 0
    and u^2 = 1 + v^2 from the double v."""
    with localcontext() as ctx:
        ctx.prec = 50
        v2 = Decimal(mode.v) ** 2
        u2 = 1 + v2
        xi3 = []
        for x1, x2, im_c, _, _ in states:
            n_a = x2 - 1
            n_b = u2 * x1 + v2
            xi3.append((n_a * (n_a + 1) + n_b * (n_b + 1) - 2 * u2 * im_c * im_c) / (n_a + n_b))
        return np.array([float(value) for value in xi3])


def pair_table(state: MomentState, mode: BogoliubovMode) -> GaussianSecondMoments:
    """Pair expectations over {a, a^dag, b, b^dag}, b = u beta_+ + v beta_-^dag."""
    n_a = state.x2 - 1.0
    n_b = mode.u**2 * state.x1 + mode.v**2 * (state.x1m + 1.0)
    ab = mode.u * state.c
    pairs = {
        ("a", "ad"): complex(state.x2),
        ("ad", "a"): complex(n_a),
        ("b", "bd"): complex(n_b + 1.0),
        ("bd", "b"): complex(n_b),
        ("a", "b"): ab,
        ("b", "a"): ab,
        ("ad", "bd"): np.conj(ab),
        ("bd", "ad"): np.conj(ab),
    }
    return GaussianSecondMoments(
        operators=("a", "ad", "b", "bd"),
        dagger={"a": "ad", "ad": "a", "b": "bd", "bd": "b"},
        modes=(("a", "ad"), ("b", "bd")),
        pairs=pairs,
    )


def wick_spin(state: MomentState, mode: BogoliubovMode):
    """(<J1>, <J2>, xi1, xi2) of J1 = (a^dag b + b^dag a)/2 and
    J2 = (a^dag b - b^dag a)/(2i), with xi_i = Var(J_i)/(J/2) and
    J/2 = (n_a + n_b)/4, from the Wick expansion of the state's pair table."""
    table = pair_table(state, mode)
    ad_b, bd_a = table.pair("ad", "b"), table.pair("bd", "a")
    mean1 = (0.5 * (ad_b + bd_a)).real
    mean2 = (-0.5j * (ad_b - bd_a)).real
    cross = wick_fourth_moment(table, ("ad", "b", "bd", "a")) + wick_fourth_moment(
        table, ("bd", "a", "ad", "b")
    )
    squares = wick_fourth_moment(table, ("ad", "b", "ad", "b")) + wick_fourth_moment(
        table, ("bd", "a", "bd", "a")
    )
    half_j = 0.25 * (table.pair("ad", "a") + table.pair("bd", "b")).real
    xi1 = (0.25 * (squares + cross).real - mean1 * mean1) / half_j
    xi2 = (-0.25 * (squares - cross).real - mean2 * mean2) / half_j
    return mean1, mean2, xi1, xi2
