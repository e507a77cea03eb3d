"""Damped atom-photon moment equations and squeezing observables.

The driven pair process creates one photon in the scattered mode `a` together
with one quasiparticle in the driven mode (annihilation operator beta_+), on
top of a passive counter-propagating mode (beta_-).  For a vacuum or thermal
initial state the second moments close on four quantities,

    x1  = <beta_+^dag beta_+>      driven quasiparticle occupation
    x1m = <beta_-^dag beta_->      passive partner occupation
    x2  = <a a^dag>                ANTI-normally ordered photon moment
    c   = <a beta_+>               pair correlator (complex)

with linear equations of motion

    x1'  = -gamma (x1 - n0_eq) - 2 Omega Im c
    x2'  = -2 Omega Im c
    c'   = -(gamma/2) c - i Omega (x1 + x2)
    x1m' = -gamma (x1m - n0_eq)

The photon moment evolved is the anti-normal one: its vacuum floor x2 = 1 is
what seeds spontaneous pair creation (a normal-ordered closure started from
vacuum stays identically zero), and x2 >= 1 is the commutator-preservation
check on any trajectory.  Physical occupations are recovered at readout,
n_a = x2 - 1, and the quasiparticle-to-particle map uses the mode
coefficients: n_b+/- = u^2 x1(+/-) + v^2 (x1(-/+) + 1).

Two quadratic invariants of the flow obey linear equations of their own:
the cone defect D = x1 x2 - |c|^2 and the gap s = x2 - x1,

    D' = -gamma D + gamma n0_eq x2
    s' = gamma (x1 - n0_eq)

so they are propagated as two more components of the state, exactly like
the moments.  D >= 0 is the Cauchy-Schwarz bound |c|^2 <= x1 x2, and from a
vacuum start D stays exactly 0; undamped, s stays exactly 1.  The readout
takes xi3 and positivity from D and s, whose closed forms carry none of the
O(n^2) cancellation of |c|^2 against x1 x2.

In the shifted variables (x1 - n0_eq, x2 + n0_eq, D + n0_eq^2, Im c,
s + 2 n0_eq) the coupled moments obey a homogeneous linear system, so the
5-component state at output sample i is step^i applied to the initial one,
with step = exp(G dt) taken once in numpy by Taylor scaling and squaring.
A doubling scan fills the grid in ceil(log2(n + 1)) levels: once samples
0..m-1 are known, the next m are step^m times them, and squaring step^m
gives the next level's power, so no Python code runs per sample.  Re c and
x1m - n0_eq couple to nothing and decay by the scalar factors
exp(-gamma dt/2) and exp(-gamma dt) per step, as running products.  The
tests check the result against an adaptive Runge-Kutta integration of the
complex equations, against a 50-digit propagation and against a
step-by-step float64 loop.

The trajectory stays in numpy arrays from the propagation through the
readout to the SqueezingRun that run_squeezing returns: occupations, xi3,
and the pseudo-spin variances in closed form,
xi1 = xi2 = (2 u^2 |c|^2 + 2 n_a n_b + n_a + n_b)/(n_a + n_b), are computed
over the whole trajectory in one pass, which also checks positivity of the
state's pair table on every sample in closed form.  This module does not
use the oracle; the tests check the closed form against the oracle's Wick
fourth-moment engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    BogoliubovMode,
    Channel,
    DriveConfig,
    IntegrationError,
    ParameterError,
    PhysicalParams,
    bogoliubov_mode,
)
from .rates import decay_rates

#: Below this mode total the squeezing denominators are reported undefined.
_DEGENERACY_FLOOR = 1e-30


@dataclass(frozen=True)
class MomentState:
    """Second moments at one instant (definitions in the module docstring)."""

    t: float
    x1: float
    x1m: float
    x2: float
    c: complex

    @property
    def defect(self) -> float:
        """The cone defect D = x1 x2 - |c|^2."""
        return self.x1 * self.x2 - abs(self.c) ** 2

    @property
    def gap(self) -> float:
        """The gap s = x2 - x1."""
        return self.x2 - self.x1


class Trajectory(NamedTuple):
    """Moments on the output grid, one array entry per sample (c complex).

    defect and gap are the propagated invariants D and s; x1, x2, defect
    and gap are views of one propagated array.
    """

    t: np.ndarray
    x1: np.ndarray
    x1m: np.ndarray
    x2: np.ndarray
    c: np.ndarray
    defect: np.ndarray
    gap: np.ndarray

    def state(self, i: int) -> MomentState:
        """Sample i as a MomentState."""
        return MomentState(
            t=float(self.t[i]),
            x1=float(self.x1[i]),
            x1m=float(self.x1m[i]),
            x2=float(self.x2[i]),
            c=complex(self.c[i]),
        )


def _generator(rabi: float, gamma: float, n0_eq: float) -> np.ndarray:
    """Real generator on (x1 - n0, x2 + n0, D + n0^2, Im c, s + 2 n0)."""
    return np.array(
        [
            [-gamma, 0.0, 0.0, -2.0 * rabi, 0.0],
            [0.0, 0.0, 0.0, -2.0 * rabi, 0.0],
            [0.0, gamma * n0_eq, -gamma, 0.0, 0.0],
            [-rabi, -rabi, 0.0, -0.5 * gamma, 0.0],
            [gamma, 0.0, 0.0, 0.0, 0.0],
        ]
    )


#: Taylor degree for exp(X) at ||X||_1 <= 1/2, where the remainder
#: 0.5^17/17! ~ 2e-20 is far below roundoff.
_TAYLOR_DEGREE = 16


def _expm_taylor(x: np.ndarray) -> np.ndarray:
    """exp(x) of a small real matrix by scaling and squaring a Taylor series.

    Entries overflow to inf/nan instead of raising when exp(x) is not
    representable.
    """
    norm = float(np.abs(x).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full_like(x, math.nan)
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    x = np.ldexp(x, -squarings)
    eye = np.eye(len(x))
    result = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        result = eye + (x @ result) / k
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    return result


def _validate_initial(state: MomentState) -> None:
    if not all(
        math.isfinite(v) for v in (state.t, state.x1, state.x1m, state.x2)
    ) or not (math.isfinite(state.c.real) and math.isfinite(state.c.imag)):
        raise ParameterError("initial state has non-finite entries")
    if state.x1 < 0.0 or state.x1m < 0.0:
        raise ParameterError("occupations x1, x1m must be >= 0")
    if state.x2 < 1.0 - 1e-9:
        raise ParameterError(f"x2 = {state.x2} below the commutator floor 1")
    bound = state.x1 * state.x2
    if abs(state.c) ** 2 > bound * (1.0 + 1e-9) + 1e-9:
        raise ParameterError(f"|c|^2 = {abs(state.c)**2} exceeds x1*x2 = {bound}")


def evolve_moments(
    initial: MomentState,
    drive: DriveConfig,
    gamma: float,
    n0_eq: float = 0.0,
) -> Trajectory:
    """Evolve the moments on the output grid t = initial.t + i*dt_output.

    The grid takes drive.output_steps steps, so it ends at the last sample
    at or, within roundoff, before initial.t + t_max.  Propagates by powers
    of one matrix exponential, step^m applied to samples 0..m-1 for m = 1,
    2, 4, ..., which is exact for this linear system up to roundoff.
    Relaxation targets n0_eq (0 at zero temperature).  Raises IntegrationError, carrying the
    last finite state, when the moments or their products overflow.

    Known precision limit: the photon occupation is held as x2 - 1, so
    early samples on fine grids lose its low digits; xi3 then carries up to
    ~3e-10 relative error (2.8e-10 at t = 2048 dt with dt = 6 ns, qbar 5,
    Omega 1e3 s^-1, where n_a ~ 1e-4).
    """
    if gamma < 0.0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    if n0_eq < 0.0:
        raise ParameterError(f"n0_eq must be >= 0, got {n0_eq}")
    _validate_initial(initial)

    n_steps = drive.output_steps  # >= 1, as DriveConfig keeps dt_output <= t_max
    dt = drive.dt_output
    # Re c and x1m - n0 decay by one factor per step, as running products
    step = _expm_taylor(_generator(drive.rabi_effective, gamma, n0_eq) * dt)
    shift = np.array([-n0_eq, n0_eq, n0_eq * n0_eq, 0.0, 2.0 * n0_eq])
    z = np.empty((n_steps + 1, 5))
    z[0] = (initial.x1, initial.x2, initial.defect, initial.c.imag, initial.gap)
    z[0] += shift
    c = np.full(n_steps + 1, math.exp(-0.5 * gamma * dt), dtype=complex)
    c[0] = initial.c.real
    x1m = np.full(n_steps + 1, math.exp(-gamma * dt))
    x1m[0] = initial.x1m - n0_eq
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # with samples 0..m-1 known and power = step^m, the next k <= m follow
        # as z[m + j] = step^m z[j]; one matrix-vector product per component
        # keeps BLAS off its packed matrix-matrix path and its buffers
        power, m = step, 1
        while m <= n_steps:
            k = min(m, n_steps + 1 - m)
            for r in range(5):
                z[m:m + k, r] = z[:k] @ power[r]
            power = power @ power
            m += k
        z -= shift
        # the readout multiplies moments, so their products must stay finite too
        valid = np.isfinite(z).all(axis=1) & np.isfinite(z[:, 1] * (z[:, 0] + z[:, 1]))
    np.multiply.accumulate(c.real, out=c.real)
    c.imag = z[:, 3]
    np.multiply.accumulate(x1m, out=x1m)
    x1m += n0_eq
    n_valid = n_steps + 1 if valid.all() else int(np.argmin(valid))
    z = z[:n_valid]
    trajectory = Trajectory(
        t=initial.t + dt * np.arange(n_valid), x1=z[:, 0], x1m=x1m[:n_valid], x2=z[:, 1],
        c=c[:n_valid], defect=z[:, 2], gap=z[:, 4],
    )
    if n_valid <= n_steps:
        raise IntegrationError(
            f"non-finite state at t = {initial.t + n_valid * dt}",
            trajectory.state(n_valid - 1) if n_valid else initial,
        )
    return trajectory


class Readout(NamedTuple):
    """Per-sample readout arrays; xi entries are NaN where undefined."""

    n_a: np.ndarray
    n_b_plus: np.ndarray
    n_b_minus: np.ndarray
    xi12: np.ndarray
    xi3: np.ndarray


@dataclass(frozen=True)
class SqueezingRun:
    """A vacuum-start trajectory's readout and the damping rate behind it.

    depletion_valid marks the samples where the undepleted-condensate
    assumption still holds.
    """

    t: np.ndarray
    readout: Readout
    depletion_valid: np.ndarray
    gamma_used: float
    mode: BogoliubovMode


def readout(trajectory: Trajectory, mode: BogoliubovMode) -> Readout:
    """Occupations and squeezing parameters of every sample in one pass.

    n_a subtracts the vacuum from the anti-normal photon moment; the atomic
    side maps quasiparticle occupations through u, v, picking up the v^2
    quantum depletion of each partner mode: n_b+/- = u^2 x1(+/-) +
    v^2 (x1(-/+) + 1).  xi3 = [n_a(n_a+1) + n_b(n_b+1) - 2 u^2 |c|^2] /
    (n_a + n_b) is the relative-number squeezing, normalized to the
    coherent-state value.  With u^2 = 1 + v^2, w = v^2 (x1m + 1) and
    |c|^2 = x1 x2 - D its numerator is, term by term free of the O(n^2)
    cancellation,

        (s - v^2 x1)(s - v^2 x1 - 1) + w (2 u^2 x1 + w + 1) + 2 u^2 D,

    which is s(s - 1) + 2D at u = 1.  xi12 is xi1 = xi2 of the pseudo-spin
    J1 = (a^dag b + b^dag a)/2, J2 = (a^dag b - b^dag a)/(2i), whose means
    vanish identically for these states since <a^dag b> = 0; it reads
    u^2 |c|^2 as u^2 (x1 x2 - D).  Raises IntegrationError, carrying the
    last valid state, when a sample is not a physical Gaussian state or its
    squeezing parameters overflow.
    """
    t, x1, x1m, x2, _, defect, gap = trajectory
    u2 = mode.u * mode.u
    v2 = mode.v * mode.v
    w = v2 * (x1m + 1.0)
    n_a = x2 - 1.0
    n_b_plus = u2 * x1 + w

    # The pair table over {a, a^dag, b, b^dag} is Hermitian and satisfies
    # both commutators by construction (<a a^dag> - <a^dag a> = x2 - n_a = 1,
    # <b b^dag> = n_b + 1, <a b> = <b a> = u c), so positivity of its Gram
    # matrix G[x, y] = <x^dag y> is the one condition a trajectory can break.
    # G splits into the blocks {a, b^dag} = [[n_a, u c*], [u c, n_b + 1]] and
    # {a^dag, b} = [[x2, u c], [u c*, n_b]], whose determinants are
    # u^2 (s - 1 + D) + v^2 x1m n_a and w x2 + u^2 D.  The smallest
    # eigenvalue is about det/trace, and must stay above -1e-10 of the
    # largest diagonal entry (pure states sit on 0).  At large u^2 the floor
    # times a trace can overflow to -inf, which any finite determinant passes;
    # such a sample fails the finiteness check below.
    floor = -1e-10 * np.maximum(1.0, np.maximum(x2, n_b_plus + 1.0))
    with np.errstate(over="ignore"):
        positive = u2 * (gap - 1.0 + defect) + v2 * x1m * n_a >= floor * (n_a + n_b_plus + 1.0)
        positive &= w * x2 + u2 * defect >= floor * (x2 + n_b_plus)
    del floor
    if not positive.all():
        bad = int(np.argmin(positive))
        last = max(bad - 1, 0)
        raise IntegrationError(
            f"moment table not positive at t = {t[bad]}", trajectory.state(last)
        )

    # xi3 = [Var n_a + Var n_b - 2 Cov(n_a, n_b)] / (n_a + n_b) and, for
    # J1 = (a^dag b + b^dag a)/2, J2 = (a^dag b - b^dag a)/(2i) with zero
    # means, xi1 = xi2 = Var(J_i)/(J/2), J/2 = (n_a + n_b)/4, which the Wick
    # expansion of the Gaussian state reduces to the closed forms of the
    # docstring.  xi3 is summed in place, term by term, so that few
    # temporaries are alive at once.
    total = n_a + n_b_plus
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        xi3 = gap - v2 * x1  # e = s - v^2 x1, then e (e - 1)
        xi3 *= xi3 - 1.0
        xi3 += w * (2.0 * u2 * x1 + w + 1.0)
        xi3 += 2.0 * u2 * defect
        xi3 /= total
        del w
        xi12 = (2.0 * u2 * (x1 * x2 - defect) + 2.0 * n_a * n_b_plus + n_a + n_b_plus) / total
    undefined3 = total < _DEGENERACY_FLOOR
    undefined12 = 0.25 * total < _DEGENERACY_FLOOR
    del total
    xi3[undefined3] = np.nan
    xi12[undefined12] = np.nan
    # past a degenerate denominator, a non-finite xi is an overflow of the
    # moment products, which evolve_moments keeps finite only up to x2 (x1 + x2)
    finite = (np.isfinite(xi3) | undefined3) & (np.isfinite(xi12) | undefined12)
    del undefined3, undefined12
    if not finite.all():
        bad = int(np.argmin(finite))
        raise IntegrationError(
            f"squeezing parameters overflow at t = {t[bad]}", trajectory.state(max(bad - 1, 0))
        )
    n_b_minus = v2 * (x1 + 1.0)
    n_b_minus += u2 * x1m
    return Readout(n_a, n_b_plus, n_b_minus, xi12, xi3)


VACUUM = MomentState(t=0.0, x1=0.0, x1m=0.0, x2=1.0, c=0.0 + 0.0j)


def run_squeezing(params: PhysicalParams, drive: DriveConfig) -> SqueezingRun:
    """Vacuum-start trajectory of occupations and squeezing parameters.

    The damping rate is drive.gamma_override when given, otherwise the
    computed total collisional width of the driven quasiparticle mode at
    qbar_recoil.  Samples are taken every dt_output; depletion_valid marks
    where the scattered-atom total stays below 10% of the condensate.
    """
    mode = bogoliubov_mode(drive.qbar_recoil)
    if drive.gamma_override is not None:
        gamma = drive.gamma_override
    else:
        rates = decay_rates(
            params, Channel.SINGLE_LEVEL, [drive.qbar_recoil], [params.temperature_T]
        )
        gamma = float(rates.gamma_total[0, 0])

    trajectory = evolve_moments(VACUUM, drive, gamma)
    r = readout(trajectory, mode)
    depletion_valid = r.n_b_plus + r.n_b_minus < 0.1 * params.atom_count_N0
    return SqueezingRun(trajectory.t, r, depletion_valid, gamma, mode)
