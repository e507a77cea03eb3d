"""Collisional decay widths of condensate quasiparticles.

A mode at dimensionless momentum qbar either splits into two lower-lying
quasiparticles (spontaneous channel, survives at T=0, ~ q^5 deep in the
phonon regime) or absorbs a thermal quasiparticle (stimulated channel,
identically zero at T=0).  The momentum sums over final states are reduced
analytically before any numerics: momentum conservation fixes one final
momentum, the angular integral is evaluated against the energy-conserving
delta distribution -- Jacobian pbar*/(qbar*kbar*omega_bar'(pbar*)) for a
quasiparticle final state, 1/(2*qbar*kbar) for a free-particle one -- and the
remaining one-dimensional magnitude integral runs under a nested
double-exponential rule (Takahashi & Mori, Publ. RIMS 9, 721 (1974)).

The spontaneous window, theta in [0, pi/2] with k = qbar*sin^2(theta), runs
under tanh-sinh on t in [-3.3, 3.3]; the stimulated one, kbar >= lo, under
exp-sinh k = lo + s e^((pi/2) sinh t) on t in [-4.5, 4], s the momentum step
above lo that raises the energy by k_B T, with no upper cutoff.  The
trapezoidal sum I_L in steps 2^-L holds I_(L-1) on its even nodes: every
integral takes level 5 (211 and 213 nodes that can be nonzero) and the
estimate |I_5 - I_4|, at least 50 ulps of I_5, and one whose estimate
exceeds EPSREL*|I_L| gains the odd nodes of the next level, up to level 7,
past which it is unconverged.  The estimate is the error of I_(L-1), so
where the rule converges double-exponentially it overstates the error of
I_L by orders.  No integrand factor is a cancelling difference: the vertex
below, and `_bose_drop`.

`decay_rates(params, channel, qbar, temperature)` is the one rate entry
point: it sweeps a (temperature, qbar) grid and returns a RateGrid of
(len(temperature), len(qbar)) arrays; a single width is the 1x1 grid.  Its
setup runs on whole arrays, each entry formed by the IEEE operations of a
one-point setup.  Integrands are evaluated in blocks of whole integrals of
at most _BLOCK_NODES nodes, and each integral's sums run along its own row
of nodes, so a width is bit-identical whichever points share its sweep or
block.  A spontaneous width depends on T only through the occupation
1 + n_k + n_p*, at the same nodes: a block computes the kinematics and
vertex once per qbar (`_splitting`), the occupation per T (`_occupied`).

Everything is evaluated in natural units (momenta in k0, frequencies in
omega0); the dimensionless gas parameter k0^3/n0 carries the overall scale
and rates convert to s^-1 only on return.  Both channels share one vertex,
of z <-> x + y with z the mode of highest energy, in s = u - v of the mode
coefficients (u, v >= 0 as in `model`), s^2 = kbar/c, c = sqrt(2 + kbar^2):

    V = [3 s_z s_x s_y + Sigma/(s_z s_x s_y)]/4
    Sigma = [s_x^2 (z^2 - x^2) + s_y^2 (z^2 - y^2)]/(2 + z^2)
    z^2 - x^2 = omega_y (omega_z + omega_x)/(2 + z^2 + x^2)

It is the textbook u_z u_x u_y - v_z v_x v_y - (u_z - v_z)(u_x v_y + v_x u_y)
(Giorgini, PRA 57, 2949 (1998); Pitaevskii & Stringari, PLA 235, 398 (1997))
in s and 1/s = u + v, whose Sigma = s_x^2 + s_y^2 - s_z^2 energy conservation
turns into the positive sum above: no terms of order q^(-1/2) cancel.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from functools import partial
from typing import NamedTuple

import numpy as np

from .model import (
    HBAR,
    K_BOLTZMANN,
    Channel,
    ParameterError,
    PhysicalParams,
    QuadratureError,
    as_double,
)

#: Relative tolerance of every reduced integral.
EPSREL = 1e-8


# ---------------------------------------------------------------------------
# spectrum, vertex and occupations on arrays
#
# The array form of model.dispersion and its inverse, without argument
# checks: quadrature nodes are interior to windows the callers have already
# validated.


def _omega(kbar):
    return kbar * np.sqrt(2.0 + kbar * kbar)


def _momentum(omega_bar):
    # not the equivalent sqrt(sqrt(1 + omega_bar^2) - 1), which loses half
    # the significant digits for omega_bar << 1
    return omega_bar / np.sqrt(1.0 + np.hypot(1.0, omega_bar))


def _vertex(z, x, y):
    """Amplitude of z <-> x + y, each mode a (kbar^2, omega_bar, s) triple,
    z the one of highest energy and omega_z = omega_x + omega_y.

    Every term is positive (see the module docstring), so the amplitude
    keeps its relative precision down to the smallest momenta.
    """
    (zz, wz, sz), (xx, wx, sx), (yy, wy, sy) = z, x, y
    cz2 = 2.0 + zz
    sigma = (sx * sx * wy * ((wz + wx) / (cz2 + xx))
             + sy * sy * wx * ((wz + wy) / (cz2 + yy))) / cz2
    product = sz * sx * sy
    return (3.0 * product + sigma / product) / 4.0


def _bose_drop(beta, omega_bar, gap):
    """n(omega_bar) - n(omega_bar + gap) at Bose exponent beta per unit
    omega_bar, as e^-x b/(a (a + e^-x b)), a = 1 - e^-x, b = 1 - e^-y, x =
    beta omega_bar, y = beta gap: positive factors, which neither cancel
    nor overflow, so e^-x reaches x ~ 745, where a whole window may lie."""
    x = -beta * omega_bar
    eb = np.exp(x) * -np.expm1(-beta * gap)
    am = np.expm1(x)  # -a
    return eb / (am * (am - eb))


# ---------------------------------------------------------------------------
# integrands on node arrays, parameters broadcast per integral


def _nan_to_zero(value):
    """value, in place, with its nan entries 0: a negative one stays."""
    value[np.isnan(value)] = 0.0
    return value


def _splitting(sin_t, cos_t, qbar, wq, sq):
    """The temperature-free factors of the spontaneous integrand at
    k = qbar*sin^2(theta), given sin(theta) and cos(theta):
    (k V^2 pbar*/omega_bar'(pbar*) dk/dtheta, w_k, w_p*)."""
    kbar = qbar * sin_t * sin_t
    kk = kbar * kbar
    ck = np.sqrt(2.0 + kk)
    wk = kbar * ck
    qq = qbar * qbar
    # omega_q - omega_k = (q - k)(q + k)(2 + q^2 + k^2)/(omega_q + omega_k), q - k = q cos^2
    wp = qbar * cos_t * cos_t * (qbar + kbar) * ((2.0 + qq + kk) / (wq + wk))
    pbar = _momentum(wp)
    pp = pbar * pbar
    cp = np.sqrt(2.0 + pp)
    vertex = _vertex((qq, wq, sq), (kk, wk, np.sqrt(kbar / ck)), (pp, wp, np.sqrt(pbar / cp)))
    jacobian = 2.0 * qbar * sin_t * cos_t  # dk/dtheta
    velocity = 2.0 * (1.0 + pp) / cp  # omega_bar'(pbar)
    return kbar * vertex * vertex * pbar / velocity * jacobian, wk, wp


def _occupied(rate, wk, wp, beta):
    """The spontaneous integrand from its `_splitting` factors at Bose
    exponent beta: their temperature-free part times 1 + n_k + n_p*, with
    n = 1/(e^x - 1) exactly 0 where e^x - 1 overflows (beta = inf at T = 0);
    0 where that is nan, at a node whose kbar or pbar* underflows to 0."""
    return _nan_to_zero(rate * (1.0 + 1.0 / np.expm1(beta * wk) + 1.0 / np.expm1(beta * wp)))


def _stimulated_integrand(kbar, qq, wq, sq, beta):
    """k V^2 (n_k - n_{k+q}) jbar*/omega_bar'(jbar*), jbar* carrying the
    combined energy omega_j; 0 where that is nan, far out in the thermal
    tail where the occupation drop is 0 and the vertex may overflow.  With
    r = sqrt(1 + omega_j^2) = 1 + jbar^2 (omega_j past 1e150, and a square
    root 4x faster than np.hypot below), s_j^2 = jbar/c_j = omega_j/(1 + r)
    and jbar*/omega_bar'(jbar*) = omega_j/(2 r)."""
    kk = kbar * kbar
    ck = np.sqrt(2.0 + kk)
    wk = kbar * ck
    wj = wq + wk
    root = np.where(wj < 1e150, np.sqrt(1.0 + wj * wj), wj)
    ssj = wj / (1.0 + root)
    vertex = _vertex((ssj * wj, wj, np.sqrt(ssj)), (qq, wq, sq), (kk, wk, np.sqrt(kbar / ck)))
    return _nan_to_zero(kbar * vertex * vertex * _bose_drop(beta, wk, wq) * wj / (2.0 * root))


def _stimulated_free_integrand(kbar, eq, beta):
    """k s_k^2 (n_b(w_k) - n_free(eq + w_k)), a free-particle final state."""
    ck = np.sqrt(2.0 + kbar * kbar)
    return _nan_to_zero(kbar * kbar / ck * _bose_drop(beta, kbar * ck, eq))


# ---------------------------------------------------------------------------
# nested double-exponential quadrature (see the module docstring)

#: Every integral takes the first level, steps 2^-5, and at most the last.
_FIRST_LEVEL = 5
_LAST_LEVEL = 7

#: Smallest relative error estimate, 50 ulps of the sum of positive terms
#: (QUADPACK's floor): where I_L and I_(L-1) agree to rounding, their
#: difference says nothing about the rounding of either.
_ROUNDING = 50.0 * float(np.finfo(float).eps)

#: Quadrature nodes per integrand evaluation, 32 KB per float temporary.  On
#: a 2016-point sweep 4096 ran fastest (35.8 ms; 3072: 39.4, 8192: 38.1) at
#: a traced peak of 0.90 MB (3072: 0.76 MB, 8192: 1.45 MB).
_BLOCK_NODES = 4096

#: Smallest Bose exponent hbar*omega_q/(k_B*T) accepted at the decaying
#: mode.  The tanh-sinh nodes reach ~1e-37 of qbar from the window edge
#: (theta ~ 2e-19), where 1/(e^x - 1) must still be a finite double.
_MIN_BOSE_EXPONENT = 1e-150

#: Bose exponent above which 1/(e^x - 1) underflows to exactly 0.0: a
#: stimulated window whose lower edge lies beyond it has zero width.
_MAX_BOSE_EXPONENT = 746.0


def _rule(nodes: Callable, t_lo: float, t_hi: float) -> tuple[list[tuple], int]:
    """The nested rule of the map `nodes` on t in [t_lo, t_hi]: levels[0]
    holds the nodes of level _FIRST_LEVEL, the `coarse` ones of the level
    below first, and levels[1:] the odd nodes each further level adds; each
    is what the integrand takes, then dx/dt times the level's step."""
    steps = []
    for level in range(_FIRST_LEVEL - 1, _LAST_LEVEL + 1):
        odd = level >= _FIRST_LEVEL  # a finer level adds its odd nodes
        j = np.arange(math.ceil(t_lo * 2**level) | odd, math.floor(t_hi * 2**level) + 1, 1 + odd)
        *args, weight = nodes(j * 2.0**-level)
        steps.append((*args, weight * 2.0**-max(level, _FIRST_LEVEL)))
    first = tuple(np.concatenate(pair) for pair in zip(*steps[:2]))
    return [first] + steps[2:], steps[0][0].size


def _sinh_cosh(t):
    """(sinh t, cosh t) by np.expm1 and np.exp, which the integrands use:
    np.sinh and np.cosh page 64 KB more of numpy into a cold run."""
    e = np.exp(t)
    return 0.5 * (np.expm1(t) - np.expm1(-t)), 0.5 * (e + 1.0 / e)


def _tanh_sinh(t):
    """(sin theta, cos theta, dtheta/dt) at theta = (pi/4)(1 + tanh u),
    u = (pi/2) sinh t, on [0, pi/2].  The distance to the nearer end,
    (pi/4)(1 - tanh|u|) = (pi/4)/(e^|u| cosh u), is formed directly, so
    nothing cancels next to pi/2."""
    sinh_t, cosh_t = _sinh_cosh(t)
    cosh_u = _sinh_cosh(0.5 * math.pi * sinh_t)[1]
    edge = 0.25 * math.pi / (np.exp(0.5 * math.pi * np.abs(sinh_t)) * cosh_u)
    near, far = np.sin(edge), np.cos(edge)
    low = t < 0.0
    weight = (0.125 * math.pi**2) * cosh_t / (cosh_u * cosh_u)
    return np.where(low, near, far), np.where(low, far, near), weight


def _exp_sinh(t):
    """((k - lo)/s, (dk/dt)/(k - lo)) at k = lo + s e^((pi/2) sinh t)."""
    sinh_t, cosh_t = _sinh_cosh(t)
    return np.exp(0.5 * math.pi * sinh_t), 0.5 * math.pi * cosh_t


#: The stimulated rule is exp-sinh on t in [-4.5, 4], but the dispersion is
#: convex and s raises the energy by k_B T, so the Bose exponent at
#: k = lo + s e^((pi/2) sinh t) exceeds that at lo by at least e^((pi/2)
#: sinh t) once that is above 1: past _MAX_BOSE_EXPONENT, at t > 2.14, every
#: stimulated integrand is exactly 0, and the rule stops there.
_SPLITTING_RULE = _rule(_tanh_sinh, -3.3, 3.3)
_ABSORPTION_RULE = _rule(_exp_sinh, -4.5,
                         math.asinh(math.log(_MAX_BOSE_EXPONENT) / (0.5 * math.pi)))


def _spontaneous_rows(rows, nodes, qbar, wq, sq, beta):
    """Integrand times dtheta/dt of the spontaneous integrals `rows` at
    tanh-sinh nodes, a row each.  The integrals run qbar-major: `_splitting`
    runs once per run of rows with one qbar, `_occupied` once per row, each
    elementwise in the same inputs."""
    sin_t, cos_t, weight = nodes
    q = qbar[rows]
    first = np.concatenate(([True], q[1:] != q[:-1]))  # the first row of each qbar
    at = rows[first, None]
    rate, *factors = _splitting(sin_t, cos_t, qbar[at], wq[at], sq[at])
    # np.cumsum(first) - 1, which pages 128 KB more of numpy into a cold run
    owner = np.zeros(rows.size, dtype=np.intp)
    owner[first] = np.arange(at.size)
    owner = np.maximum.accumulate(owner)
    return _occupied(*(factor[owner] for factor in (rate * weight, *factors)), beta[rows, None])


def _stimulated_rows(integrand, rows, nodes, lo, step, *args):
    """integrand times dk/dt of the stimulated integrals `rows` at exp-sinh
    nodes k = lo + step * e^((pi/2) sinh t), a row each."""
    offset, growth = nodes
    kbar = step[rows, None] * offset
    weight = kbar * growth
    kbar += lo[rows, None]
    return integrand(kbar, *(arg[rows, None] for arg in args)) * weight


class _Columns(NamedTuple):
    """One channel's integrals: integral k belongs to grid point point[k] (a
    flat T-major index; the spontaneous ones run qbar-major, the stimulated
    ones T-major), and its width in s^-1 is scale[k] times the integral of
    rows(rows, nodes, *args) under `rule`.  A point with no integral has 0."""

    rows: Callable
    rule: tuple[list[tuple], int]
    point: np.ndarray
    args: list[np.ndarray]
    scale: np.ndarray


def _integrate(columns: _Columns):
    """(value, abserr, converged) of every integral: I_L at the first level
    L whose estimate is at most EPSREL*|I_L|, or at _LAST_LEVEL unconverged."""
    (first, *finer), coarse = columns.rule
    n = columns.point.size
    value, abserr = np.empty(n), np.empty(n)

    def blocks(rows, nodes):  # of at most _BLOCK_NODES nodes, or of one row
        size = max(1, _BLOCK_NODES // nodes[0].size)
        return (rows[start:start + size] for start in range(0, rows.size, size))

    def sums(block, nodes, split):  # each integral's over nodes[:split], nodes[split:]
        fx = columns.rows(block, nodes, *columns.args)
        return fx[:, :split].sum(axis=-1), fx[:, split:].sum(axis=-1)

    def refine(block, half, odd):  # I_L = I_(L-1)/2 + the sum over L's odd nodes
        fine = half + odd
        abserr[block] = np.maximum(np.abs(odd - half), _ROUNDING * np.abs(fine))
        value[block] = fine

    with np.errstate(all="ignore"):  # non-finite widths fail decay_rates' checks
        for block in blocks(np.arange(n), first):
            refine(block, *sums(block, first, coarse))
        active = np.flatnonzero(~(abserr <= EPSREL * np.abs(value)))
        for nodes in finer:
            for block in blocks(active, nodes):
                refine(block, 0.5 * value[block], sums(block, nodes, 0)[1])
            active = active[~(abserr[active] <= EPSREL * np.abs(value[active]))]
        return value, abserr, abserr <= EPSREL * np.abs(value)  # the test each stopped at


# ---------------------------------------------------------------------------
# the integrals of each channel over a grid

#: Ratio of the two-level to single-level small-q coefficients,
#: (1/96) / (3/320) = 10/9: the interspecies vertex couples through the
#: density combination alone, while the intraspecies one mixes density and
#: phase channels; the phonon-splitting kinematics is common to both.
TWO_LEVEL_FACTOR = 10.0 / 9.0


def _valid_qbar(qbar) -> float:
    qbar = as_double("qbar", qbar)  # an int from Python too; qbar*qbar must not leave the doubles
    if not (sys.float_info.min <= qbar < math.inf):  # a subnormal qbar squares to 0
        raise ParameterError(f"qbar must be > 0 and a normal double, got {qbar}")
    return qbar


def _valid_temperature(temperature_T) -> float:
    temperature_T = as_double("temperature_T", temperature_T)
    if not (temperature_T >= 0.0 and math.isfinite(temperature_T)):
        raise ParameterError(f"temperature_T must be >= 0 and finite, got {temperature_T}")
    return abs(temperature_T)  # -0.0 passes the check; it is the temperature 0


def _normal(x):
    """x is a normal double: finite, and neither 0 nor subnormal."""
    return (x >= sys.float_info.min) & (x < math.inf)


def _check(bad, error) -> None:
    """Raise error(*index) at the first True entry of the mask bad, in
    index order (T-major on the grid), if there is one."""
    if bad.any():
        raise error(*np.unravel_index(bad.argmax(), bad.shape))


def _setup(params: PhysicalParams, channel: Channel, qbar: list[float],
           temperature: list[float]) -> tuple[_Columns, _Columns, np.ndarray]:
    """The spontaneous and the stimulated integrals of a (temperature, qbar)
    grid, and the mode frequency omega_q in s^-1 per qbar.

    Spontaneous, s^-1: gamma/omega0 = (k0^3/n0)/(pi*qbar) * I with

        I = int_0^qbar dk k V^2 (1 + n_k + n_p*) pbar*/omega_bar'(pbar*)

    and pbar* fixed by energy conservation, over k = qbar*sin^2(theta).  The
    two-level decay is, in the phonon regime, the same splitting with
    another coupling combination: its width is 10/9 (the ratio of the
    small-momentum coefficients 1/(96 pi) and 3/(320 pi)) times (a_bc/a_bb)^2
    times the single-level one.

    Stimulated, exactly 0 at T = 0.  Single level, s^-1:
    gamma/omega0 = 2(k0^3/n0)/(pi*qbar) * I with

        I = int_0^inf dk k V^2 (n_k - n_{k+q}) jbar*/omega_bar'(jbar*)

    jbar* carries the combined energy; the triangle constraint holds for all
    k > 0 (the dispersion is superadditive), so the window is the full axis.
    Two level: a free particle at qbar absorbs a thermal quasiparticle k and
    stays a free particle at energy qbar^2 + w_k:

        gamma/omega0 = (a_bc/a_bb)^2 (k0^3/n0)/(4 pi qbar)
                       * int_{kmin} dk k s_k^2 (n_b(w_k) - n_free(qbar^2 + w_k))

    The free-particle angular Jacobian is 1/(2 qbar kbar); |cos theta*| <= 1
    forces kbar >= max(0, 1/(2 qbar) - qbar).  When no thermal quasiparticle
    is left at that threshold (its occupation underflows, or at tiny qbar
    its frequency overflows) the window is empty.  The exp-sinh scale is
    s = kbar(omega_bar(lo) + k_B T/(hbar omega0)) - lo.

    The Bose exponent is a temperature column, the mode frequency,
    prefactors and scales a qbar row, and both channels' window edges and
    scales one expression on the grid.  A width is its integral times a
    scale, the prefactor times omega0, so all three must be normal doubles.
    Checks raise ParameterError at their first failing qbar or T-major
    point, in this order: the coupling ratio, the mode frequencies, a qbar
    whose 1 + qbar^2 + omega_bar overflows, too-hot points, and the
    spontaneous then the stimulated prefactors and scales.
    """
    two_level = channel is Channel.TWO_LEVEL
    omega0 = params.omega0
    gas = params.k0**3 / params.condensate_density_n0
    shape = (len(temperature), len(qbar))
    ratio = params.bc_scattering_length / params.scattering_length_a
    ratio_sq = ratio * ratio
    if two_level and not _normal(ratio_sq):
        raise ParameterError(
            f"interspecies coupling (a_bc/a)^2 = {ratio_sq:.3g} is out of double range")

    t = np.array(temperature).reshape(-1, 1)
    q = np.array(qbar)
    with np.errstate(all="ignore"):  # out-of-range values fail the checks below
        # hbar*omega0/(k_B*T) per unit omega_bar, grouped so that hbar*omega0
        # cannot underflow; inf at T = 0 and where omega0/T overflows
        beta = (HBAR / K_BOLTZMANN) * (omega0 / t)
        thermal = beta < math.inf  # not T = 0, nor too cold for any thermal occupation
        cq = np.sqrt(2.0 + q * q)
        wq = q * cq
        omega_q = wq * omega0
        mode_sum = 1.0 + q * q + wq  # the size of the integrands' 2 + q^2 + k^2, w_q + w_k
        sq = np.sqrt(q / cq)
        prefactor = gas / (math.pi * q)
        scale = prefactor * omega0
        if two_level:
            scale = TWO_LEVEL_FACTOR * ratio_sq * scale
            stimulated_prefactor = ratio_sq * gas / (4.0 * math.pi * q)
            kmin = np.maximum(0.0, 0.5 / q - q)
        else:
            stimulated_prefactor = 2.0 * gas / (math.pi * q)
            kmin = 0.0  # the single-level window is the full axis
        stimulated_scale = stimulated_prefactor * omega0
        too_hot = ~(beta * wq >= _MIN_BOSE_EXPONENT)
        omega_low = _omega(kmin)  # inf when kmin^2 overflows
        # past the Bose tail at the threshold the window is empty
        window = thermal & ~(beta * omega_low > _MAX_BOSE_EXPONENT)
        step = _momentum(omega_low + 1.0 / beta) - kmin  # 1/beta = k_B T/(hbar omega0)

    _check(~(omega_q > 0.0), lambda j: ParameterError(
        f"mode frequency underflows at qbar = {qbar[j]:.3g}"))
    _check(~(omega_q < math.inf), lambda j: ParameterError(
        f"mode frequency overflows at qbar = {qbar[j]:.3g}"))
    _check(~(mode_sum < math.inf), lambda j: ParameterError(
        f"qbar = {qbar[j]:.3g} is too large: 1 + kbar^2 + omega_bar overflows"))
    _check(too_hot, lambda i, j: ParameterError(
        f"T = {temperature[i]:.3g} K is too hot at qbar = {qbar[j]:.3g}: the "
        f"thermal occupation exceeds {1.0 / _MIN_BOSE_EXPONENT:.0e}"))
    ranges = [("spontaneous width prefactor", prefactor), ("spontaneous width scale", scale)]
    if thermal.any():  # only T > 0 sets up stimulated integrals
        ranges += [("stimulated width prefactor", stimulated_prefactor),
                   ("stimulated width scale", stimulated_scale)]
    for name, value in ranges:
        _check(~_normal(value), lambda j: ParameterError(
            f"{name} {value[j]:.3g} is out of double range at qbar = {qbar[j]:.3g}"))

    def columns(rows, rule, point, args, scale) -> _Columns:
        at = np.unravel_index(point, shape)

        def pick(value):
            return np.broadcast_to(value, shape)[at]

        return _Columns(rows, rule, point, [pick(a) for a in args], pick(scale))

    spontaneous = columns(  # qbar-major: each qbar's temperatures side by side
        _spontaneous_rows, _SPLITTING_RULE, np.arange(t.size * q.size).reshape(shape).T.ravel(),
        [q, wq, sq, beta], scale,
    )
    if two_level:
        integrand, args = _stimulated_free_integrand, [q * q, beta]
    else:
        integrand, args = _stimulated_integrand, [q * q, wq, sq, beta]
    stimulated = columns(partial(_stimulated_rows, integrand), _ABSORPTION_RULE,
                         np.flatnonzero(np.broadcast_to(window, shape)), [kmin, step] + args,
                         stimulated_scale)
    return spontaneous, stimulated, omega_q


# ---------------------------------------------------------------------------
# public operations


class RateGrid(NamedTuple):
    """Decay widths in s^-1 over a (temperature, qbar) grid.

    Each field is a (len(temperature), len(qbar)) array.  gamma_beliaev is
    the spontaneous width and gamma_landau the stimulated one, in the
    grid's channel; the error estimate covers both.  gamma_over_omega is
    gamma_total per mode frequency omega_q.
    """

    gamma_beliaev: np.ndarray
    gamma_landau: np.ndarray
    gamma_total: np.ndarray
    quadrature_error_estimate: np.ndarray
    gamma_over_omega: np.ndarray


def decay_rates(params: PhysicalParams, channel: Channel, qbar: Sequence[float],
                temperature: Sequence[float]) -> RateGrid:
    """Both channels at every (temperature, qbar) point, in one batched sweep.

    Every width is bit-identical to the 1x1 grid at its point.  Raises
    ParameterError for a bad qbar, then a bad temperature, then as _setup
    checks, then at the first T-major point where a width, their total, the
    error estimate or gamma_over_omega is not a finite double; then
    QuadratureError at the first point whose spontaneous integral does not
    converge, then whose spontaneous width is negative; then ParameterError
    where the spontaneous integral (of order qbar^6, so below qbar ~1e-51 at
    T = 0 in the sodium preset) is not a normal double and the width would
    lose digits or read 0; then the QuadratureErrors of the stimulated one.
    """
    qbar = [_valid_qbar(q) for q in qbar]
    temperature = [_valid_temperature(t) for t in temperature]
    shape = (len(temperature), len(qbar))
    *channels, omega_q = _setup(params, channel, qbar, temperature)
    solved = []
    for columns in channels:
        value, abserr, converged = _integrate(columns)

        def grid(column):
            """column scattered to its points on the grid, zero elsewhere."""
            out = np.zeros(shape, dtype=column.dtype)
            out.flat[columns.point] = column
            return out

        with np.errstate(all="ignore"):  # overflows fail the check below
            solved.append((grid(columns.scale * value), grid(columns.scale * abserr),
                           grid(~converged), grid(~_normal(value))))
    (gamma_beliaev, beliaev_error, *_), (gamma_landau, landau_error, *_) = solved
    with np.errstate(all="ignore"):
        gamma_total = gamma_beliaev + gamma_landau
        error = beliaev_error + landau_error
        gamma_over_omega = gamma_total / omega_q
    _check(~np.isfinite(gamma_over_omega + error), lambda i, j: ParameterError(
        f"width overflows at qbar = {qbar[j]:.3g}, T = {temperature[i]:.3g} K: a width, "
        "its error estimate or gamma/omega is not a finite double"))
    for name, (width, width_error, unconverged, subnormal) in zip(
            ("spontaneous", "stimulated"), solved):
        for bad, fault in ((unconverged, f"did not converge at step 2^-{_LAST_LEVEL}"),
                           (width < 0.0, "gave a negative width")):
            _check(bad, lambda i, j: QuadratureError(
                f"quadrature {fault}: "
                f"{name} width at qbar = {qbar[j]:.6g}, T = {temperature[i]:.6g} K",
                partial_rate_s=float(width[i, j]),
                error_estimate_s=float(width_error[i, j]),
            ))
        if name == "spontaneous":
            _check(subnormal, lambda i, j: ParameterError(
                f"spontaneous width underflows at qbar = {qbar[j]:.3g}, "
                f"T = {temperature[i]:.3g} K: its reduced integral is not a normal "
                "double (at T = 0 the width there is the q^5 law)"))
    return RateGrid(gamma_beliaev, gamma_landau, gamma_total, error, gamma_over_omega)
