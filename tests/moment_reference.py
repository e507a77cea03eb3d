"""Test-side references for the moment equations and their readout.

The complex 3x3 generator below is written independently of the production
real 5x5 one, and `dop853_from_vacuum` integrates it with scipy's adaptive
Runge-Kutta; the tests compare the production matrix-exponential
propagation against it.  `wick_spin` evaluates the pseudo-spin means and
variances by the oracle's Wick expansion, against which the tests check
the production closed form.
"""

import numpy as np
from scipy.integrate import solve_ivp

from quasidamp.dynamics import MomentState
from quasidamp.model import BogoliubovMode, ParameterError
from quasidamp.oracle import GaussianSecondMoments, wick_fourth_moment


def drift_matrix(rabi: float, gamma: float) -> np.ndarray:
    """Complex 3x3 generator of the coupled moments.

    Acts on the vector (<beta^dag beta> - n0_eq, <a a^dag> + n0_eq,
    <a beta> - c.c.); the discarded combination <a beta> + c.c. obeys a
    closed decaying equation and stays zero when started at zero.  The
    production integrator evolves the equivalent real system of
    (x1, x2, Re c, Im c) — see dynamics._real_generator.
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


def dop853_from_vacuum(rabi: float, gamma: float, t_eval: np.ndarray):
    """(x1, x2, c) on t_eval for a vacuum start (n0_eq = 0), by DOP853.

    From the vacuum Re c stays 0, so c = (c - c.c.)/2.
    """
    generator = drift_matrix(rabi, gamma)
    sol = solve_ivp(
        lambda _t, y: generator @ y,
        (0.0, t_eval[-1]),
        np.array([0.0, 1.0, 0.0], dtype=complex),
        t_eval=t_eval,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success, sol.message
    x1, x2, c_minus_cc = sol.y
    return x1.real, x2.real, 0.5 * c_minus_cc


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
