"""Collisional decay widths of condensate quasiparticles.

A mode at dimensionless momentum qbar either splits into two lower-lying
quasiparticles (spontaneous channel, survives at T=0, ~ q^5 deep in the
phonon regime) or absorbs a thermal quasiparticle (stimulated channel,
identically zero at T=0).  The momentum sums over final states are reduced
analytically before any numerics: momentum conservation fixes one final
momentum, the angular integral is evaluated against the energy-conserving
delta distribution — Jacobian pbar*/(qbar*kbar*omega_bar'(pbar*)) for a
quasiparticle final state, 1/(2*qbar*kbar) for a free-particle one — and the
remaining one-dimensional magnitude integral runs under adaptive
Gauss-Kronrod quadrature.

The quadrature is QUADPACK's G10K21 rule with its error estimate (Piessens
et al., QUADPACK, 1983), written in numpy: the subinterval with the largest
error estimate is bisected until the summed estimate meets
max(epsabs, epsrel*|result|), with at most 200 subintervals per integral.

`decay_rates(params, channel, qbar, temperature)` is the one rate entry
point: it sweeps a (temperature, qbar) grid and returns a RateGrid of
(len(temperature), len(qbar)) arrays, and a single width is the 1x1 grid.
Its setup runs per axis value, not per point: the units once, the Bose
exponent and the single-level cutoff per temperature, the mode frequency,
prefactors and scales per qbar, combined at each point by single IEEE
operations, so every point holds the bits of a one-point setup.  The
integrals of each channel are then refined together as column arrays, one
bisection per unfinished integral per pass.  Each integral's refinement
depends on its own integrand alone, so a width is bit-identical whichever
other points share the sweep.  The refinement's work arrays are only as
wide as the subintervals in use, rounded up to a multiple of 8 up to 96
columns and to the full 200 beyond, so a sweep whose integrals need a
handful of subintervals holds a few columns per integral, not 200.  The
rounding keeps every sum bit-identical to one over full 200-column rows:
numpy adds a row in 8 interleaved accumulators and splits a 200-entry row
after its first 96, so zero padding up to such a width adds no rounding.

Everything is evaluated in natural units (momenta in k0, frequencies in
omega0); the dimensionless gas parameter k0^3/n0 carries the overall scale
and rates convert to s^-1 only on return.  Vertex functions are written in
the sign-convention-free combinations

    s = u - v   (density channel,  s^2 = kbar^2/omega_bar)
    d = u + v   (phase channel,    d^2 = omega_bar/kbar^2,  s*d = 1)

of the mode coefficients, with u, v taken positive as in `model`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import (
    HBAR,
    K_BOLTZMANN,
    ParameterError,
    PhysicalParams,
    derive_units,
    dispersion,
    inverse_dispersion,
)

#: Default quadrature tolerances: absolute on gamma in units of omega0,
#: relative on the reduced integral.
EPSABS_OMEGA0 = 1e-10
EPSREL = 1e-8


class Channel(Enum):
    SINGLE_LEVEL = "single_level"
    TWO_LEVEL = "two_level"


class QuadratureError(RuntimeError):
    """Adaptive refinement hit its cap; carries the partial result."""

    def __init__(self, message: str, partial_rate_s: float, error_estimate_s: float):
        super().__init__(message)
        self.partial_rate_s = partial_rate_s
        self.error_estimate_s = error_estimate_s


# ---------------------------------------------------------------------------
# spectrum, vertex functions and occupations on arrays
#
# The array forms of model.dispersion, model.inverse_dispersion and
# model.group_velocity, without their argument checks: quadrature nodes are
# interior to windows the callers have already validated.


def _omega(kbar):
    return kbar * np.sqrt(2.0 + kbar * kbar)


def _momentum(omega_bar):
    return omega_bar / np.sqrt(1.0 + np.hypot(1.0, omega_bar))


def _sd(kbar, omega_bar):
    """Density and phase combinations (s, d) = (u-v, u+v) at kbar, whose
    frequency omega_bar the caller already holds."""
    s = kbar / np.sqrt(omega_bar)
    return s, 1.0 / s


def _final_state(pbar):
    """(s, d, omega_bar'(pbar)) of a final-state quasiparticle: its frequency
    and its group velocity share pbar^2 and sqrt(2 + pbar^2)."""
    pp = pbar * pbar
    root = np.sqrt(2.0 + pp)
    s, d = _sd(pbar, pbar * root)
    return s, d, 2.0 * (1.0 + pp) / root


def _beliaev_vertex(sq, dq, sk, dk, sp, dp):
    """Splitting amplitude q -> k + p, symmetric under k <-> p.

    The d*d (phase-phase) part enters with opposite sign to the 3 s*s
    density part; both apparent 1/sqrt(k) edge divergences of the d factors
    cancel against it, leaving an amplitude that vanishes like sqrt(k) at
    either edge of the window.
    """
    return (sq * (3.0 * sk * sp - dk * dp) + dq * (sk * dp + dk * sp)) / 4.0


def _landau_vertex(sq, dq, si, di, sj, dj):
    """Absorption amplitude q + i -> j (j carries the combined energy)."""
    return (sq * (3.0 * si * sj + di * dj) + dq * (si * dj - di * sj)) / 4.0


def _bose(x):
    """Planck occupation 1/(e^x - 1) at x = hbar*omega/(kB*T), as in
    model.thermal_population; exactly 0 at x = inf (T = 0)."""
    return np.where(x > 700.0, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 700.0)))


def _inverse_temperature(temperature_T: float, omega0: float) -> float:
    """hbar*omega0/(kB*T): the Bose exponent per unit omega_bar, inf at T = 0.

    Grouped so that hbar*omega0 cannot underflow at tiny temperatures.
    """
    if temperature_T == 0.0:
        return math.inf
    return (HBAR / K_BOLTZMANN) * (omega0 / temperature_T)


def _bose_cutoff_kbar(omega_bar_low: float, temperature_T: float, omega0: float) -> float:
    """Upper integration limit for stimulated integrals.

    Truncates where the thermal occupation has fallen ~1e-14 below its value
    at the larger of (window lower edge, thermal frequency k_B T/hbar); the
    +3 margin covers the 1/(1-e^-x) enhancement of the Bose tail.
    """
    omega_bar_thermal = K_BOLTZMANN * temperature_T / (HBAR * omega0)
    if omega_bar_thermal == 0.0:
        # k_B*T or hbar*omega0 underflowed; regrouped, it is nonzero
        # whenever _inverse_temperature is finite
        omega_bar_thermal = (K_BOLTZMANN / HBAR) * (temperature_T / omega0)
    x_ref = max(omega_bar_low, omega_bar_thermal) / omega_bar_thermal
    x_cut = x_ref + math.log(1e14) + 3.0
    return inverse_dispersion(x_cut * omega_bar_thermal)


# ---------------------------------------------------------------------------
# integrands: f(x, *args) on node arrays, args broadcast per integral


def _spontaneous_integrand(theta, qbar, wq, sq, dq, beta):
    """k M^2 (1 + n_k + n_p*) pbar*/omega_bar'(pbar*) dk/dtheta at
    k = qbar*sin^2(theta), with pbar* fixed by energy conservation."""
    sin_t = np.sin(theta)
    kbar = qbar * sin_t * sin_t
    wk = _omega(kbar)
    wp = wq - wk
    pbar = _momentum(wp)
    sk, dk = _sd(kbar, wk)
    sp, dp, velocity = _final_state(pbar)
    vertex = _beliaev_vertex(sq, dq, sk, dk, sp, dp)
    occupation = 1.0 + _bose(beta * wk) + _bose(beta * wp)
    jacobian = qbar * np.sin(2.0 * theta)  # dk/dtheta
    value = kbar * vertex * vertex * occupation * pbar / velocity * jacobian
    return np.where((kbar > 0.0) & (wp > 0.0), value, 0.0)


def _stimulated_integrand(kbar, wq, sq, dq, beta):
    """k L^2 (n_k - n_{k+q}) Pbar*/omega_bar'(Pbar*), with Pbar* carrying
    the combined energy."""
    wk = _omega(kbar)
    wj = wq + wk
    jbar = _momentum(wj)
    si, di = _sd(kbar, wk)
    sj, dj, velocity = _final_state(jbar)
    vertex = _landau_vertex(sq, dq, si, di, sj, dj)
    delta_n = _bose(beta * wk) - _bose(beta * wj)
    value = kbar * vertex * vertex * delta_n * jbar / velocity
    return np.where(kbar > 0.0, value, 0.0)


def _stimulated_free_integrand(kbar, eq, beta):
    """k s_k^2 (n_b(w_k) - n_free(eq + w_k)) for a free-particle final state."""
    wk = _omega(kbar)
    s, _ = _sd(kbar, wk)
    delta_n = _bose(beta * wk) - _bose(beta * (eq + wk))
    return np.where(kbar > 0.0, kbar * s * s * delta_n, 0.0)


# ---------------------------------------------------------------------------
# batched adaptive Gauss-Kronrod quadrature

# QUADPACK qk21: the Kronrod abscissae on [0, 1] in descending order (centre
# last), their weights, and the weights of the embedded 10-point Gauss rule,
# whose abscissae are every second Kronrod one, _XGK[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208067005698,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

#: The 21 nodes on [-1, 1] in ascending order, with both rules' weights.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]

_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)

#: Subintervals per integral before refinement gives up (QUADPACK's limit).
_LIMIT = 200

#: Integrals refined together in one pass.  It caps a pass's working memory
#: at four float arrays of _BATCH rows, each as wide as _width allows for the
#: subintervals in use (32 KB per array at 8 columns, 0.8 MB at _LIMIT);
#: longer sweeps run in consecutive passes, which cannot change any result.
_BATCH = 512

#: Widest work array narrower than _LIMIT.  numpy sums a row of at most 128
#: entries in 8 interleaved accumulators and splits a longer one after its
#: first 96 entries, so a zero-padded row whose width is a multiple of 8 and
#: at most 96 sums to the bits of the full _LIMIT-wide row.
_NARROW_MAX = 96

#: Smallest Bose exponent hbar*omega_q/(k_B*T) accepted at the decaying
#: mode.  Bisection can put nodes ~1e-120 of omega_q from the window edge,
#: where 1/(e^x - 1) must still be a finite double.
_MIN_BOSE_EXPONENT = 1e-150

#: Bose exponent above which 1/(e^x - 1) underflows to exactly 0.0: a
#: stimulated window whose lower edge lies beyond it has zero width.
_MAX_BOSE_EXPONENT = 746.0


def _qk21(f: Callable, args: list[np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """G10K21 on each subinterval [lo, hi] (QUADPACK qk21, vectorised).

    Returns (result, abserr, resasc), each shaped like lo.  Row sums run
    over a fixed 21 nodes, so every entry depends on its own subinterval
    alone.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    with np.errstate(all="ignore"):  # masked-out nodes may compute inf/nan
        fx = f(centre[..., None] + half[..., None] * _NODES, *args)
    resk = (fx * _KRONROD).sum(axis=-1)
    resg = (fx * _GAUSS).sum(axis=-1)
    dhalf = np.abs(half)
    resabs = (np.abs(fx) * _KRONROD).sum(axis=-1) * dhalf
    resasc = (np.abs(fx - 0.5 * resk[..., None]) * _KRONROD).sum(axis=-1) * dhalf
    abserr = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
    abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
    abserr = np.where(
        resabs > _UFLOW / (50.0 * _EPMACH),
        np.maximum(50.0 * _EPMACH * resabs, abserr),
        abserr,
    )
    return resk * half, abserr, resasc


def _width(columns: int) -> int:
    """Work-array width that holds `columns` subintervals: the next multiple
    of 8 up to _NARROW_MAX, _LIMIT beyond it."""
    width = -(-columns // 8) * 8
    return width if width <= _NARROW_MAX else _LIMIT


def _refine(f, args, lo, hi, epsabs, epsrel):
    """One pass of adaptive G10K21 over at most _BATCH integrals of f.

    Integral i runs over [lo[i], hi[i]] with args[j][i] as the integrand's
    j-th parameter.  Returns (value, abserr, converged) per integral.

    Every unfinished integral is bisected once per pass, so all of them hold
    the same number of subintervals, `used`.  The work arrays grow with it
    (see _width); their unused columns stay zero, which changes no argmax
    and, by the rule of _NARROW_MAX, no row sum.
    """
    n = lo.size
    args = [arg[:, None, None] for arg in args]
    whole, whole_err, resasc = _qk21(f, args, lo[:, None], hi[:, None])
    width = _width(2)
    work = np.zeros((4, n, width))
    a, b, res, err = work
    a[:, 0], b[:, 0] = lo, hi
    res[:, 0], err[:, 0] = whole[:, 0], whole_err[:, 0]
    area, errsum = whole[:, 0], whole_err[:, 0]
    # QUADPACK distrusts a whole-interval estimate that equals resasc
    done = (errsum == 0.0) | (
        (errsum <= np.maximum(epsabs, epsrel * np.abs(area))) & (errsum != resasc[:, 0])
    )
    used = 1
    active = np.flatnonzero(~done)
    while active.size and used < _LIMIT:
        if used == width:
            grown = _width(used + 1)
            work = np.pad(work, ((0, 0), (0, 0), (0, grown - width)))
            a, b, res, err = work
            width = grown
        worst = err[active].argmax(axis=1)
        left, right = a[active, worst], b[active, worst]
        mid = 0.5 * (left + right)
        halves, halves_err, _ = _qk21(
            f,
            [arg[active] for arg in args],
            np.stack((left, mid), axis=1),
            np.stack((mid, right), axis=1),
        )
        b[active, worst] = mid
        res[active, worst], err[active, worst] = halves[:, 0], halves_err[:, 0]
        a[active, used], b[active, used] = mid, right
        res[active, used], err[active, used] = halves[:, 1], halves_err[:, 1]
        used += 1
        area[active] = res[active].sum(axis=1)
        errsum[active] = err[active].sum(axis=1)
        met = errsum[active] <= np.maximum(epsabs[active], epsrel * np.abs(area[active]))
        done[active] = met
        active = active[~met]
    return area, errsum, done


class _Columns(NamedTuple):
    """One integrand's integrals over a grid, as columns.

    Integral k belongs to the grid point point[k] (flat, in T-major order);
    its width in s^-1 is scale[k] * int_lo[k]^hi[k] integrand(x, *args[:][k]) dx,
    refined to the absolute tolerance epsabs[k] on the reduced integral.
    Points whose channel has no allowed final state hold no integral: their
    width is exactly 0.
    """

    integrand: Callable
    point: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    args: list[np.ndarray]
    epsabs: np.ndarray
    scale: np.ndarray


def _solve(integrals: _Columns, epsrel: float):
    """(value, abserr, converged) of every integral, refined _BATCH at a time."""
    n = integrals.lo.size
    value, abserr = np.empty(n), np.empty(n)
    converged = np.empty(n, dtype=bool)
    for start in range(0, n, _BATCH):
        part = slice(start, start + _BATCH)
        value[part], abserr[part], converged[part] = _refine(
            integrals.integrand, [arg[part] for arg in integrals.args],
            integrals.lo[part], integrals.hi[part], integrals.epsabs[part], epsrel,
        )
    return value, abserr, converged


# ---------------------------------------------------------------------------
# the integrals of each channel over a grid

#: Ratio of the two-level to single-level small-q coefficients,
#: (1/96) / (3/320) = 10/9: the interspecies vertex couples through the
#: density combination alone, while the intraspecies one mixes density and
#: phase channels; the phonon-splitting kinematics is common to both.
TWO_LEVEL_FACTOR = 10.0 / 9.0


def _valid_qbar(qbar) -> float:
    qbar = float(qbar)  # JSON integers arrive as int; qbar*qbar must not leave the doubles
    if not (sys.float_info.min <= qbar < math.inf):  # a subnormal qbar squares to 0
        raise ParameterError(f"qbar must be > 0 and a normal double, got {qbar}")
    return qbar


def _valid_temperature(temperature_T) -> float:
    temperature_T = float(temperature_T)
    if not (temperature_T >= 0.0 and math.isfinite(temperature_T)):
        raise ParameterError(f"temperature_T must be >= 0 and finite, got {temperature_T}")
    return abs(temperature_T)  # -0.0 passes the check; it is the temperature 0


def _valid_axes(qbar, temperature) -> tuple[list[float], list[float]]:
    """Both grid axes as checked floats.

    The checks run in the order a T-major walk over the points meets them:
    the first point checks qbar[0], then temperature[0]; the rest of its row
    checks the other qbar, and the later rows the other temperatures.
    """
    qbar, temperature = list(qbar), list(temperature)
    if qbar and temperature:
        _valid_qbar(qbar[0])
        _valid_temperature(temperature[0])
    return [_valid_qbar(q) for q in qbar], [_valid_temperature(t) for t in temperature]


def _normal(x):
    """x is a normal double: finite, and neither 0 nor subnormal."""
    return (x >= sys.float_info.min) & (x < math.inf)


def _raise_first(shape: tuple[int, int], checks) -> None:
    """Raise the error of the first failing point, if any point fails.

    checks are (mask, error) pairs in the order a point is checked: mask
    marks the points that fail the check and broadcasts to the grid, and
    error(i, j) is the check's exception at point (i, j).  Points are taken
    in T-major order, and at the first failing point its first failing check
    is raised, as a point-by-point sweep would.
    """
    failed = np.zeros(shape, dtype=bool)
    for mask, _ in checks:
        failed |= mask
    if failed.any():
        i, j = np.unravel_index(failed.argmax(), shape)
        for mask, error in checks:
            if np.broadcast_to(mask, shape)[i, j]:
                raise error(i, j)


def _range_error(channel: str, name: str, value: float, qbar: float) -> ParameterError:
    return ParameterError(
        f"{channel} {name} {value:.3g} is out of double range at qbar = {qbar:.3g}"
    )


def _setup(params: PhysicalParams, channel: Channel, qbar: list[float],
           temperature: list[float]) -> tuple[_Columns, _Columns]:
    """The spontaneous and the stimulated integrals of a (temperature, qbar) grid.

    Spontaneous, s^-1: gamma/omega0 = (k0^3/n0)/(pi*qbar) * I with

        I = int_0^qbar dk k M^2 (1 + n_k + n_p*) pbar*/omega_bar'(pbar*)

    and pbar* fixed by energy conservation.  Integration runs over
    k = qbar*sin^2(theta), which is exact and keeps the quadrature nodes
    clustered at the window edges where the integrand shuts off.  In the
    two-level channel the interspecies decay is, in the phonon regime, the
    same splitting process with a different coupling combination, so the
    widths differ by the constant factor 10/9 (the ratio of the
    small-momentum coefficients 1/(96 pi) and 3/(320 pi)) times the coupling
    ratio (a_bc/a_bb)^2; the intraspecies integral supplies the momentum
    dependence.

    Stimulated, exactly 0 at T = 0.  Single level, s^-1:
    gamma/omega0 = 2(k0^3/n0)/(pi*qbar) * I with

        I = int_0^inf dk k L^2 (n_k - n_{k+q}) Pbar*/omega_bar'(Pbar*)

    Pbar* carries the combined energy; the triangle constraint holds for all
    k > 0 (the dispersion is superadditive), so the window is the full axis,
    truncated where the thermal tail is negligible.  Two level: a free
    particle at qbar absorbs a thermal quasiparticle k and stays a free
    particle at energy qbar^2 + w_k:

        gamma/omega0 = (a_bc/a_bb)^2 (k0^3/n0)/(4 pi qbar)
                       * int_{kmin} dk k s_k^2 (n_b(w_k) - n_free(qbar^2 + w_k))

    The free-particle angular Jacobian is 1/(2 qbar kbar); |cos theta*| <= 1
    forces kbar >= max(0, 1/(2 qbar) - qbar).  When no thermal quasiparticle
    is left at that threshold (its occupation underflows, or at tiny qbar
    its frequency overflows) the window is empty.

    Setup runs per axis value: the medium's units once, the Bose exponent
    and the single-level cutoff per temperature, the mode frequency,
    prefactors and scales per qbar.  A point combines them with single IEEE
    operations, so every column entry has the bits of a one-point setup.
    The two-level cutoff depends on both, and is computed at each point
    whose window is not empty.  Each width is reported per mode frequency,
    each prefactor divides the tolerance and each scale multiplies the
    integral, so all must be normal doubles; the first point that breaks a
    check raises ParameterError, see _raise_first.
    """
    two_level = channel is Channel.TWO_LEVEL
    units = derive_units(params)
    omega0 = units.omega0
    gas = units.k0**3 / params.condensate_density_n0
    shape = (len(temperature), len(qbar))

    beta = np.array([_inverse_temperature(t, omega0) for t in temperature]).reshape(-1, 1)
    thermal = beta < math.inf  # not T = 0, nor too cold for any thermal occupation

    # errors of the scalar calls, held until the first failing point is known
    mode_error = np.full(len(qbar), None)
    cutoff_error = np.full(shape, None)
    wq = np.empty(len(qbar))
    for j, q in enumerate(qbar):
        try:
            wq[j] = dispersion(q)
        except ParameterError as exc:
            mode_error[j] = exc
            wq[j] = math.nan
    q = np.array(qbar)
    ratio = params.bc_scattering_length / params.scattering_length_a
    ratio_sq = ratio * ratio
    with np.errstate(all="ignore"):  # out-of-range values fail the checks below
        omega_q = wq * omega0
        sq = q / np.sqrt(wq)
        prefactor = gas / (math.pi * q)
        scale = prefactor * omega0
        if two_level:
            scale = TWO_LEVEL_FACTOR * ratio_sq * scale
            stimulated_prefactor = ratio_sq * gas / (4.0 * math.pi * q)
            kmin = np.maximum(0.0, 0.5 / q - q)
            omega_low = _omega(kmin)  # inf when kmin^2 overflows
            lo = np.broadcast_to(kmin, shape)
            # past the Bose tail at the threshold the window is empty
            window = thermal & ~(beta * omega_low > _MAX_BOSE_EXPONENT)
        else:
            stimulated_prefactor = 2.0 * gas / (math.pi * q)
            lo = np.zeros(shape)
            window = np.broadcast_to(thermal, shape)
        stimulated_scale = stimulated_prefactor * omega0
        too_hot = ~(beta * wq >= _MIN_BOSE_EXPONENT)

    # the Bose cutoff: per open window in the two-level channel, and per
    # temperature in the single-level one, whose window is the full axis
    hi = lo.copy()
    if two_level:
        for i, j in zip(*np.nonzero(window)):
            try:
                cutoff = _bose_cutoff_kbar(float(omega_low[j]), temperature[i], omega0)
                hi[i, j] = max(float(kmin[j]), cutoff)
            except ParameterError as exc:
                cutoff_error[i, j] = exc
    else:
        for i in np.flatnonzero(thermal):
            try:
                hi[i] = _bose_cutoff_kbar(0.0, temperature[i], omega0)
            except ParameterError as exc:
                cutoff_error[i] = exc

    _raise_first(shape, (
        (~(omega_q > 0.0), lambda i, j: mode_error[j] or ParameterError(
            f"mode frequency underflows at qbar = {qbar[j]:.3g}")),
        (~(omega_q < math.inf), lambda i, j: ParameterError(
            f"mode frequency overflows at qbar = {qbar[j]:.3g}")),
        (too_hot, lambda i, j: ParameterError(
            f"T = {temperature[i]:.3g} K is too hot at qbar = {qbar[j]:.3g}: the "
            f"thermal occupation exceeds {1.0 / _MIN_BOSE_EXPONENT:.0e}")),
        (two_level and not _normal(ratio_sq), lambda i, j: ParameterError(
            f"interspecies coupling (a_bc/a)^2 = {ratio_sq:.3g} is out of double range")),
        (~_normal(prefactor), lambda i, j: _range_error(
            "spontaneous", "width prefactor", prefactor[j], qbar[j])),
        (~_normal(scale), lambda i, j: _range_error(
            "spontaneous", "width scale", scale[j], qbar[j])),
        (cutoff_error.astype(bool), lambda i, j: cutoff_error[i, j]),
        (thermal & ~_normal(stimulated_prefactor), lambda i, j: _range_error(
            "stimulated", "width prefactor", stimulated_prefactor[j], qbar[j])),
        (thermal & ~_normal(stimulated_scale), lambda i, j: _range_error(
            "stimulated", "width scale", stimulated_scale[j], qbar[j])),
    ))

    def columns(integrand, live, lo, hi, args, prefactor, scale) -> _Columns:
        point = np.flatnonzero(live)
        at = np.unravel_index(point, shape)

        def pick(value):
            return np.broadcast_to(value, shape)[at]

        return _Columns(integrand, point, pick(lo), pick(hi), [pick(a) for a in args],
                        EPSABS_OMEGA0 / pick(prefactor), pick(scale))

    spontaneous = columns(
        _spontaneous_integrand, np.ones(shape, dtype=bool), 0.0, 0.5 * math.pi,
        (q, wq, sq, 1.0 / sq, beta), prefactor, scale,
    )
    if two_level:
        integrand, args = _stimulated_free_integrand, (q * q, beta)
    else:
        integrand, args = _stimulated_integrand, (wq, sq, 1.0 / sq, beta)
    stimulated = columns(
        integrand, window & (hi > lo), lo, hi, args, stimulated_prefactor, stimulated_scale,
    )
    return spontaneous, stimulated


# ---------------------------------------------------------------------------
# public operations


class RateGrid(NamedTuple):
    """Decay widths in s^-1 over a (temperature, qbar) grid.

    Each field is a (len(temperature), len(qbar)) array.  gamma_beliaev is
    the spontaneous width and gamma_landau the stimulated one, in the
    grid's channel; the error estimate covers both.
    """

    gamma_beliaev: np.ndarray
    gamma_landau: np.ndarray
    gamma_total: np.ndarray
    quadrature_error_estimate: np.ndarray


def decay_rates(params: PhysicalParams, channel: Channel, qbar: Sequence[float],
                temperature: Sequence[float], epsrel: float = EPSREL) -> RateGrid:
    """Both channels at every (temperature, qbar) point, in one batched sweep.

    Every width is bit-identical to the 1x1 grid at its point.  Raises
    ParameterError for the first bad point in T-major order, and
    QuadratureError for the first point (spontaneous channel before
    stimulated) whose refinement hits the cap.
    """
    qbar, temperature = _valid_axes(qbar, temperature)
    integrals = _setup(params, channel, qbar, temperature)
    if not (epsrel >= 0.0 and math.isfinite(epsrel)):
        raise ParameterError(f"epsrel must be >= 0 and finite, got {epsrel}")
    shape = (len(temperature), len(qbar))
    widths, errors, stalled = [], [], []
    for columns in integrals:
        value, abserr, converged = _solve(columns, epsrel)
        width, error = np.zeros(shape), np.zeros(shape)
        failed = np.zeros(shape, dtype=bool)
        width.flat[columns.point] = columns.scale * value
        error.flat[columns.point] = columns.scale * abserr
        failed.flat[columns.point] = ~converged
        widths.append(width)
        errors.append(error)
        stalled.append(failed)
    _raise_first(shape, [
        (failed, lambda i, j, name=name, width=width, error=error: QuadratureError(
            f"quadrature did not converge within {_LIMIT} subintervals: "
            f"{name} width at qbar = {qbar[j]:.6g}, T = {temperature[i]:.6g} K",
            partial_rate_s=float(width[i, j]),
            error_estimate_s=float(error[i, j]),
        ))
        for name, failed, width, error in zip(("spontaneous", "stimulated"), stalled, widths, errors)
    ])
    gamma_beliaev, gamma_landau = widths
    negative = gamma_landau[gamma_landau < 0.0]
    if negative.size:
        raise RuntimeError(
            f"stimulated width came out negative ({negative[0]} s^-1): population "
            "factor ordering violated"
        )
    return RateGrid(gamma_beliaev, gamma_landau, gamma_beliaev + gamma_landau,
                    errors[0] + errors[1])

