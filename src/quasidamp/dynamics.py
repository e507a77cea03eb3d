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

In the shifted variables (x1 - n0_eq, x2 + n0_eq, Re c, Im c, x1m - n0_eq)
the system is homogeneous, so it is integrated by a single matrix
exponential per output step, taken once in numpy: Re c and x1m decouple
into scalar exponentials, and the coupled (x1, x2, Im c) block is
exponentiated by Taylor scaling and squaring.  The tests check the result
against an adaptive Runge-Kutta integration of the complex equations.

The trajectory stays in numpy arrays from the propagator through the
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

from .model import BogoliubovMode, ParameterError, PhysicalParams, bogoliubov_mode
from .rates import Channel, decay_rates

#: Below this mode total the squeezing denominators are reported undefined.
_DEGENERACY_FLOOR = 1e-30

#: Longest trajectory, in output steps, that a DriveConfig accepts.
MAX_OUTPUT_STEPS = 1_000_000


@dataclass(frozen=True)
class DriveConfig:
    """Drive and output-grid settings.

    rabi_effective : pair-creation drive strength Omega (s^-1), collective
                     enhancement included
    qbar_recoil    : recoil momentum of the driven quasiparticle mode, in k0
    gamma_override : fixed damping rate (s^-1) instead of the computed one
    t_max          : trajectory length (s)
    dt_output      : output sample spacing (s)
    """

    rabi_effective: float
    qbar_recoil: float
    gamma_override: float | None = None
    t_max: float = 6e-3
    dt_output: float = 1e-5

    def __post_init__(self) -> None:
        if not (self.rabi_effective >= 0.0 and math.isfinite(self.rabi_effective)):
            raise ParameterError(
                f"rabi_effective must be >= 0 and finite, got {self.rabi_effective}"
            )
        if not (self.qbar_recoil > 0.0 and math.isfinite(self.qbar_recoil)):
            raise ParameterError(
                f"qbar_recoil must be > 0 and finite, got {self.qbar_recoil}"
            )
        for name, value in (("t_max", self.t_max), ("dt_output", self.dt_output)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ParameterError(f"{name} must be > 0 and finite, got {value}")
        if self.gamma_override is not None and not (
            self.gamma_override >= 0.0 and math.isfinite(self.gamma_override)
        ):
            raise ParameterError(
                f"gamma_override must be >= 0 and finite, got {self.gamma_override}"
            )
        if self.t_max / self.dt_output > MAX_OUTPUT_STEPS:
            raise ParameterError(
                f"t_max/dt_output = {self.t_max / self.dt_output:.6g} output steps "
                f"exceeds the limit of {MAX_OUTPUT_STEPS}"
            )


@dataclass(frozen=True)
class MomentState:
    """Second moments at one instant (definitions in the module docstring)."""

    t: float
    x1: float
    x1m: float
    x2: float
    c: complex


class Trajectory(NamedTuple):
    """Moments on the output grid, one array entry per sample (c complex)."""

    t: np.ndarray
    x1: np.ndarray
    x1m: np.ndarray
    x2: np.ndarray
    c: np.ndarray

    def state(self, i: int) -> MomentState:
        """Sample i as a MomentState."""
        return MomentState(
            t=float(self.t[i]),
            x1=float(self.x1[i]),
            x1m=float(self.x1m[i]),
            x2=float(self.x2[i]),
            c=complex(self.c[i]),
        )


class IntegrationError(RuntimeError):
    """Integration failed; carries the last valid state."""

    def __init__(self, message: str, last_valid: MomentState):
        super().__init__(message)
        self.last_valid = last_valid


def _real_generator(rabi: float, gamma: float) -> np.ndarray:
    """Real 5x5 generator on (x1 - n0, x2 + n0, Re c, Im c, x1m - n0)."""
    return np.array(
        [
            [-gamma, 0.0, 0.0, -2.0 * rabi, 0.0],
            [0.0, 0.0, 0.0, -2.0 * rabi, 0.0],
            [0.0, 0.0, -0.5 * gamma, 0.0, 0.0],
            [-rabi, -rabi, 0.0, -0.5 * gamma, 0.0],
            [0.0, 0.0, 0.0, 0.0, -gamma],
        ]
    )


#: (x1 - n0, x2 + n0, Im c): the block of the real generator the drive couples.
_COUPLED = np.ix_((0, 1, 3), (0, 1, 3))

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


def _propagator(rabi: float, gamma: float, dt: float) -> np.ndarray:
    """exp(G dt) for the real generator G = _real_generator(rabi, gamma).

    Re c and x1m - n0 decouple and decay as plain exponentials; only the
    3x3 block on (x1 - n0, x2 + n0, Im c) needs a matrix exponential.
    """
    prop = np.zeros((5, 5))
    prop[2, 2] = math.exp(-0.5 * gamma * dt)
    prop[4, 4] = math.exp(-gamma * dt)
    prop[_COUPLED] = _expm_taylor(_real_generator(rabi, gamma)[_COUPLED] * dt)
    return prop


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


def _clip_to_cone(x1: np.ndarray, x2: np.ndarray, cr: np.ndarray, ci: np.ndarray) -> None:
    """Project c back inside |c|^2 <= x1*x2 where roundoff pokes it outside.

    The exact flow never leaves the cone (the defect x1*x2 - |c|^2 obeys
    d/dt defect = -gamma*defect, so it stays >= 0), but the emitted doubles
    can land a few ulp outside, which would read as a Cauchy-Schwarz
    violation downstream.  Only roundoff-sized excesses (relative < 1e-10)
    are corrected; anything larger is a real problem and is left visible.
    Rescales cr and ci in place by sqrt(x1*x2/|c|^2), then steps the samples
    still outside one ulp toward 0 until none is.
    """
    bound = x1 * x2
    mag2 = cr * cr + ci * ci
    clip = np.flatnonzero(
        (mag2 > bound) & (bound >= 0.0) & (mag2 <= bound * (1.0 + 1e-10) + 1e-10)
    )
    scale = np.sqrt(bound[clip] / mag2[clip])
    cr[clip] *= scale
    ci[clip] *= scale
    while clip.size:
        clip = clip[cr[clip] * cr[clip] + ci[clip] * ci[clip] > bound[clip]]
        cr[clip] = np.nextafter(cr[clip], 0.0)
        ci[clip] = np.nextafter(ci[clip], 0.0)


def evolve_moments(
    initial: MomentState,
    drive: DriveConfig,
    gamma: float,
    n0_eq: float = 0.0,
) -> Trajectory:
    """Evolve the moments on the output grid t = initial.t + i*dt_output.

    Propagates with one matrix exponential per output step, exact for this
    linear system up to roundoff.  Relaxation targets n0_eq (0 at zero
    temperature).  Raises IntegrationError, carrying the last finite state,
    when the moments or their products overflow.
    """
    if gamma < 0.0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    if n0_eq < 0.0:
        raise ParameterError(f"n0_eq must be >= 0, got {n0_eq}")
    _validate_initial(initial)

    n_steps = max(1, round(drive.t_max / drive.dt_output))
    dt = drive.dt_output
    propagator = _propagator(drive.rabi_effective, gamma, dt)
    z = np.empty((n_steps + 1, 5))
    z[0] = (
        initial.x1 - n0_eq,
        initial.x2 + n0_eq,
        initial.c.real,
        initial.c.imag,
        initial.x1m - n0_eq,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for i in range(n_steps):
            z[i + 1] = propagator @ z[i]

    x1 = z[:, 0] + n0_eq
    x2 = z[:, 1] - n0_eq
    with np.errstate(over="ignore", invalid="ignore"):
        # the cone check and the readout multiply moments, so their
        # products must stay finite too
        valid = np.isfinite(z).all(axis=1) & np.isfinite(
            x1 * x2 + z[:, 2] ** 2 + z[:, 3] ** 2
        )
    n_valid = n_steps + 1 if valid.all() else int(np.argmin(valid))
    x1, x2, z = x1[:n_valid], x2[:n_valid], z[:n_valid]
    _clip_to_cone(x1, x2, z[:, 2], z[:, 3])
    c = np.empty(n_valid, dtype=complex)
    c.real, c.imag = z[:, 2], z[:, 3]
    trajectory = Trajectory(
        t=initial.t + dt * np.arange(n_valid), x1=x1, x1m=z[:, 4] + n0_eq, x2=x2, c=c
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


def _block_eigmin(p: np.ndarray, q: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian 2x2 [[p, w*], [w, q]], |w|^2 = off2."""
    half_gap = 0.5 * (p - q)
    return 0.5 * (p + q) - np.sqrt(half_gap * half_gap + off2)


def readout(trajectory: Trajectory, mode: BogoliubovMode) -> Readout:
    """Occupations and squeezing parameters of every sample in one pass.

    n_a subtracts the vacuum from the anti-normal photon moment; the atomic
    side maps quasiparticle occupations through u, v, picking up the v^2
    quantum depletion of each partner mode: n_b+/- = u^2 x1(+/-) +
    v^2 (x1(-/+) + 1).  xi3 = [n_a(n_a+1) + n_b(n_b+1) - 2 u^2 |c|^2] /
    (n_a + n_b) is the relative-number squeezing, normalized to the
    coherent-state value.  xi12 is xi1 = xi2 of the pseudo-spin
    J1 = (a^dag b + b^dag a)/2, J2 = (a^dag b - b^dag a)/(2i), whose means
    vanish identically for these states since <a^dag b> = 0.  Raises
    IntegrationError, carrying the last valid state, when a sample is not a
    physical Gaussian state.
    """
    t, x1, x1m, x2, c = trajectory
    u2 = mode.u * mode.u
    v2 = mode.v * mode.v
    n_a = x2 - 1.0
    n_b_plus = u2 * x1 + v2 * (x1m + 1.0)
    n_b_minus = u2 * x1m + v2 * (x1 + 1.0)
    # |<a b>|^2 with b = u beta_+ + v beta_-^dag.  float_power is libm's
    # pow(|c|, 2), the same as Python's `abs(c) ** 2`; a plain square differs
    # in the last bit for ~0.1% of samples, which the cancellation in xi3
    # amplifies into changed digits of written trajectories.
    covariance = u2 * np.float_power(np.abs(c), 2.0)

    # The pair table over {a, a^dag, b, b^dag} is Hermitian and satisfies
    # both commutators by construction (<a a^dag> - <a^dag a> = x2 - n_a = 1,
    # <b b^dag> = n_b + 1, <a b> = <b a> = u c), so positivity of its Gram
    # matrix G[x, y] = <x^dag y> is the one condition a trajectory can break.
    # G splits into the blocks {a, b^dag} = [[n_a, u c*], [u c, n_b + 1]] and
    # {a^dag, b} = [[x2, u c], [u c*, n_b]]; both smallest eigenvalues must
    # stay above -1e-10 of the largest diagonal entry (pure states sit on 0).
    floor = -1e-10 * np.maximum(1.0, np.maximum(x2, n_b_plus + 1.0))
    positive = (_block_eigmin(n_a, n_b_plus + 1.0, covariance) >= floor) & (
        _block_eigmin(x2, n_b_plus, covariance) >= floor
    )
    if not positive.all():
        bad = int(np.argmin(positive))
        last = max(bad - 1, 0)
        raise IntegrationError(
            f"moment table not positive at t = {t[bad]}", trajectory.state(last)
        )

    # xi3 = [Var n_a + Var n_b - 2 Cov(n_a, n_b)] / (n_a + n_b) and, for
    # J1 = (a^dag b + b^dag a)/2, J2 = (a^dag b - b^dag a)/(2i) with zero
    # means, xi1 = xi2 = Var(J_i)/(J/2), J/2 = (n_a + n_b)/4, which the Wick
    # expansion of the Gaussian state reduces to the closed form below.
    total = n_a + n_b_plus
    with np.errstate(divide="ignore", invalid="ignore"):
        xi3 = (n_a * (n_a + 1.0) + n_b_plus * (n_b_plus + 1.0) - 2.0 * covariance) / total
        xi12 = (2.0 * covariance + 2.0 * n_a * n_b_plus + n_a + n_b_plus) / total
    xi3[total < _DEGENERACY_FLOOR] = np.nan
    xi12[0.25 * total < _DEGENERACY_FLOOR] = np.nan
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
