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
error estimate is bisected until the summed estimate is at most
EPSREL*|result|, with no absolute floor and at most 200 subintervals per
integral.  So every integrand factor is a product of positive terms, never
a cancelling difference: the vertex below, and `_bose_drop`.

`decay_rates(params, channel, qbar, temperature)` is the one rate entry
point: it sweeps a (temperature, qbar) grid and returns a RateGrid of
(len(temperature), len(qbar)) arrays, and a single width is the 1x1 grid.
Its setup runs on whole arrays, with no loop over temperatures or points:
the units once, the Bose exponent as a temperature column, the mode
frequency, prefactors and scales as a qbar row, and one Bose-cutoff
expression for both channels on the grid they broadcast to.  Each entry is
formed by the IEEE operations of a one-point setup, so every point holds
its bits.  The integrals of each channel are then refined together as
column arrays, one bisection per unfinished integral per pass.  Each integral's refinement
depends on its own integrand alone, and its sums run over its own
subintervals alone, so a width is bit-identical whichever other points
share the sweep.  The refinement's work arrays double as the subintervals
in use grow, so a sweep whose integrals need a handful of subintervals
holds a few columns per integral, not 200.
A pass of _BATCH integrals bounds these work arrays; its integrands are
evaluated in blocks of at most _BLOCK_NODES quadrature nodes, which bound
their temporaries, and each node enters only its own subinterval's sums,
so neither the pass nor the block a width falls in moves a bit of it.
A spontaneous width depends on the temperature only through the occupation
1 + n_k + n_p*; the decay kinematics and the vertex depend on qbar and the
node alone.  Its integrals run qbar-major, and in a block each run of
neighbouring integrals with one qbar on the same nodes computes those
factors once (`_splitting`) and hands them to every row's occupation
(`_occupied`).  Each factor is elementwise in the same inputs, and the
product keeps its order, so every width keeps its bits.

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


def _bose(x):
    """Planck occupation 1/(e^x - 1) at x = hbar*omega/(kB*T), as
    e^-x/(1 - e^-x), which neither overflows nor cancels; exactly 0 at
    x = inf (T = 0)."""
    return np.exp(-x) / -np.expm1(-x)


def _bose_drop(beta, omega_bar, gap):
    """n(omega_bar) - n(omega_bar + gap) at Bose exponent beta per unit
    omega_bar, as n(omega_bar) (1 - e^(-beta gap))/(1 - e^(-beta (omega_bar
    + gap))): a product of positive factors, which keeps its relative
    precision where gap << omega_bar and the difference would cancel."""
    ratio = np.expm1(-beta * gap) / np.expm1(-beta * (omega_bar + gap))
    return _bose(beta * omega_bar) * ratio


def _bose_cutoff_kbar(omega_bar_low, temperature_T, omega0):
    """Upper integration limit for stimulated integrals, on arrays.

    Truncates where the thermal occupation has fallen ~1e-14 below its value
    at the larger of (window lower edge, thermal frequency k_B T/hbar); the
    +3 margin covers the 1/(1-e^-x) enhancement of the Bose tail.  inf
    where the cutoff frequency is not a finite double.
    """
    omega_bar_thermal = K_BOLTZMANN * temperature_T / (HBAR * omega0)
    # where k_B*T or hbar*omega0 underflowed; regrouped, it is nonzero
    # wherever the Bose exponent is finite
    omega_bar_thermal = np.where(omega_bar_thermal == 0.0,
                                 (K_BOLTZMANN / HBAR) * (temperature_T / omega0),
                                 omega_bar_thermal)
    x_ref = np.maximum(omega_bar_low, omega_bar_thermal) / omega_bar_thermal
    x_cut = x_ref + math.log(1e14) + 3.0
    omega_bar_cut = x_cut * omega_bar_thermal
    return np.where(omega_bar_cut < math.inf, _momentum(omega_bar_cut), math.inf)


# ---------------------------------------------------------------------------
# integrands: f(x, *args) on node arrays, args broadcast per integral


def _spontaneous_integrand(theta, qbar, wq, sq, beta):
    """k V^2 (1 + n_k + n_p*) pbar*/omega_bar'(pbar*) dk/dtheta at
    k = qbar*sin^2(theta), with pbar* fixed by energy conservation.

    On a block (theta of shape (rows, ...), args of (rows, 1, 1)) each run
    of neighbouring rows with the same qbar, wq, sq and nodes takes the
    temperature-free factors from its first row.
    """
    if np.ndim(theta) > 1 and len(theta) > 1:
        rows = len(theta)
        starts = np.ones(rows, dtype=bool)
        starts[1:] = (theta[1:] != theta[:-1]).reshape(rows - 1, -1).any(axis=1)
        for arg in (qbar, wq, sq):
            starts[1:] |= (arg[1:] != arg[:-1]).ravel()
        if not starts.all():
            first = np.flatnonzero(starts)
            # each row's run, as an index into first; np.cumsum(starts) - 1 is
            # the same, but pages in 128 KB more of numpy's code (peak RSS)
            owner = np.zeros(rows, dtype=np.intp)
            owner[first] = np.arange(first.size)
            owner = np.maximum.accumulate(owner)
            factors = _splitting(theta[first], qbar[first], wq[first], sq[first])
            return _occupied(*(factor[owner] for factor in factors), beta)
    return _occupied(*_splitting(theta, qbar, wq, sq), beta)


def _splitting(theta, qbar, wq, sq):
    """The temperature-free factors of the spontaneous integrand:
    (kbar V^2, pbar*, omega_bar'(pbar*), dk/dtheta, w_k, w_p*, live)."""
    sin_t, cos_t = np.sin(theta), np.cos(theta)
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
    return kbar * vertex * vertex, pbar, velocity, jacobian, wk, wp, (kbar > 0.0) & (wp > 0.0)


def _occupied(kvv, pbar, velocity, jacobian, wk, wp, live, beta):
    """The spontaneous integrand from its `_splitting` factors at Bose
    exponent beta, multiplied in the order k V^2 (1 + n_k + n_p*) pbar* /
    omega_bar'(pbar*) dk/dtheta."""
    occupation = 1.0 + _bose(beta * wk) + _bose(beta * wp)
    value = kvv * occupation * pbar / velocity * jacobian
    return np.where(live, value, 0.0)


def _stimulated_integrand(kbar, qbar, wq, sq, beta):
    """k V^2 (n_k - n_{k+q}) jbar*/omega_bar'(jbar*), with jbar* carrying
    the combined energy."""
    kk = kbar * kbar
    ck = np.sqrt(2.0 + kk)
    wk = kbar * ck
    wj = wq + wk
    jbar = _momentum(wj)
    jj = jbar * jbar
    cj = np.sqrt(2.0 + jj)
    vertex = _vertex((jj, wj, np.sqrt(jbar / cj)), (qbar * qbar, wq, sq),
                     (kk, wk, np.sqrt(kbar / ck)))
    delta_n = _bose_drop(beta, wk, wq)
    velocity = 2.0 * (1.0 + jj) / cj  # omega_bar'(jbar)
    value = kbar * vertex * vertex * delta_n * jbar / velocity
    return np.where(kbar > 0.0, value, 0.0)


def _stimulated_free_integrand(kbar, eq, beta):
    """k s_k^2 (n_b(w_k) - n_free(eq + w_k)) for a free-particle final state."""
    ck = np.sqrt(2.0 + kbar * kbar)
    wk = kbar * ck
    delta_n = _bose_drop(beta, wk, eq)
    return np.where(kbar > 0.0, kbar * kbar / ck * delta_n, 0.0)


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

#: Integrals refined together in one pass.  It caps a pass's work arrays at
#: four float arrays of _BATCH rows, each doubling in width as the
#: subintervals in use grow: 4 KB per array per column, 32 KB at the 8
#: columns of a 2016-point sweep over qbar 0.02-10 and T 0-1 uK, 0.8 MB at
#: _LIMIT.  It also sets the number of passes, each one _qk21 call per
#: bisection; longer sweeps run in consecutive passes, which cannot change
#: any result.
_BATCH = 512

#: Quadrature nodes per integrand evaluation in _qk21: 128 whole intervals
#: or 64 bisected integrals, 21 KB per float temporary, so the ~20 that an
#: integrand holds at once fit in a 2 MB L2 cache whatever _BATCH is.
#: Over a whole 512-integral pass each would be 172 KB, 3.3 MB at the peak.
_BLOCK_NODES = 2688

#: Smallest Bose exponent hbar*omega_q/(k_B*T) accepted at the decaying
#: mode.  Bisection can put nodes ~1e-120 of omega_q from the window edge,
#: where 1/(e^x - 1) must still be a finite double.
_MIN_BOSE_EXPONENT = 1e-150

#: Bose exponent above which 1/(e^x - 1) underflows to exactly 0.0: a
#: stimulated window whose lower edge lies beyond it has zero width.
_MAX_BOSE_EXPONENT = 746.0


def _qk21(f: Callable, args: list[np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """G10K21 on each subinterval [lo, hi] (QUADPACK qk21, vectorised).

    lo and hi are (rows, k) arrays, args broadcast per row.  Returns a
    (3,) + lo.shape array of (result, abserr, resasc).  f runs on blocks of
    whole rows of at most _BLOCK_NODES nodes (one row if a row holds more),
    so its temporaries stay the size of one block whatever the number of
    rows.  Row sums run over a fixed 21 nodes, so every entry depends on
    its own subinterval alone, not on the block it falls in.
    """
    out = np.empty((3,) + lo.shape)
    rows = max(1, _BLOCK_NODES // (21 * lo.shape[1]))
    for start in range(0, lo.shape[0], rows):
        block = slice(start, start + rows)
        out[:, block] = _qk21_block(f, [arg[block] for arg in args], lo[block], hi[block])
    return out


def _qk21_block(f: Callable, args: list[np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """_qk21 on one block: (result, abserr, resasc), each shaped like lo."""
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


def _refine(f, args, lo, hi, epsrel):
    """One pass of adaptive G10K21 over at most _BATCH integrals of f.

    Integral i runs over [lo[i], hi[i]] with args[j][i] as the integrand's
    j-th parameter.  Returns (value, abserr, converged) per integral.

    Every unfinished integral is bisected once per pass, so all of them hold
    the same number of subintervals, `used`, and every argmax and sum runs
    over those columns alone.  The work arrays double when they fill.
    """
    n = lo.size
    args = [arg[:, None, None] for arg in args]
    whole, whole_err, resasc = _qk21(f, args, lo[:, None], hi[:, None])
    work = np.zeros((4, n, 1))
    a, b, res, err = work
    a[:, 0], b[:, 0] = lo, hi
    res[:, 0], err[:, 0] = whole[:, 0], whole_err[:, 0]
    area, errsum = whole[:, 0], whole_err[:, 0]
    # QUADPACK distrusts a whole-interval estimate that equals resasc
    done = (errsum == 0.0) | ((errsum <= epsrel * np.abs(area)) & (errsum != resasc[:, 0]))
    used = 1
    active = np.flatnonzero(~done)
    while active.size and used < _LIMIT:
        if used == work.shape[2]:
            grown = np.zeros((4, n, used + min(used, _LIMIT - used)))
            grown[:, :, :used] = work
            work = grown
            a, b, res, err = work
        worst = err[active, :used].argmax(axis=1)
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
        area[active] = res[active, :used].sum(axis=1)
        errsum[active] = err[active, :used].sum(axis=1)
        met = errsum[active] <= epsrel * np.abs(area[active])
        done[active] = met
        active = active[~met]
    return area, errsum, done


class _Columns(NamedTuple):
    """One integrand's integrals over a grid, as columns.

    Integral k belongs to the grid point point[k] (a flat T-major index);
    the spontaneous integrals are listed qbar-major, each qbar's
    temperatures side by side, where their integrand shares its
    temperature-free factors, and the stimulated ones T-major;
    its width in s^-1 is scale[k] * int_lo[k]^hi[k] integrand(x, *args[:][k]) dx.
    Points whose channel has no allowed final state hold no integral: their
    width is exactly 0.
    """

    integrand: Callable
    point: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    args: list[np.ndarray]
    scale: np.ndarray


def _solve(integrals: _Columns):
    """(value, abserr, converged) of every integral, refined _BATCH at a time
    to the relative tolerance EPSREL."""
    n = integrals.lo.size
    value, abserr = np.empty(n), np.empty(n)
    converged = np.empty(n, dtype=bool)
    for start in range(0, n, _BATCH):
        part = slice(start, start + _BATCH)
        value[part], abserr[part], converged[part] = _refine(
            integrals.integrand, [arg[part] for arg in integrals.args],
            integrals.lo[part], integrals.hi[part], EPSREL,
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
    qbar = as_double("qbar", qbar)  # JSON ints arrive as int; qbar*qbar must not leave the doubles
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

        I = int_0^inf dk k V^2 (n_k - n_{k+q}) jbar*/omega_bar'(jbar*)

    jbar* carries the combined energy; the triangle constraint holds for all
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

    Setup runs on whole arrays, with no loop over temperatures or points:
    the medium's units once, the Bose exponent as a temperature column, the
    mode frequency, prefactors and scales as a qbar row.  The window edges
    and the Bose cutoff of both channels come from one expression on the
    grid (the single-level window starts at kbar = 0, the two-level one at
    the threshold above), so every column entry has the bits of a one-point
    setup.  Each width is reported per mode frequency and is its integral
    times a scale, the prefactor times omega0, so all three must be normal
    doubles, which keep their full precision.  Checks raise ParameterError
    at their first failing qbar or T-major point, in this order: the
    coupling ratio, the mode frequencies, a qbar whose 1 + qbar^2 +
    omega_bar overflows, too-hot points, the spontaneous then the
    stimulated prefactors and scales, and the Bose cutoffs.
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
        lo = np.broadcast_to(kmin, shape)
        omega_low = _omega(kmin)  # inf when kmin^2 overflows
        # past the Bose tail at the threshold the window is empty
        window = thermal & ~(beta * omega_low > _MAX_BOSE_EXPONENT)
        hi = np.where(window, np.maximum(lo, _bose_cutoff_kbar(omega_low, t, omega0)), lo)

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
    # the two-level cutoff depends on qbar too, through the window's lower edge
    _check(hi == math.inf, lambda i, j: ParameterError(
        "Bose cutoff overflows at " + (f"qbar = {qbar[j]:.3g}, " if two_level else "")
        + f"T = {temperature[i]:.3g} K"))

    def columns(integrand, point, lo, hi, args, scale) -> _Columns:
        at = np.unravel_index(point, shape)

        def pick(value):
            return np.broadcast_to(value, shape)[at]

        return _Columns(integrand, point, pick(lo), pick(hi), [pick(a) for a in args],
                        pick(scale))

    spontaneous = columns(  # qbar-major: each qbar's temperatures side by side
        _spontaneous_integrand, np.arange(t.size * q.size).reshape(shape).T.ravel(),
        0.0, 0.5 * math.pi, (q, wq, sq, beta), scale,
    )
    if two_level:
        integrand, args = _stimulated_free_integrand, (q * q, beta)
    else:
        integrand, args = _stimulated_integrand, (q, wq, sq, beta)
    stimulated = columns(integrand, np.flatnonzero(window & (hi > lo)), lo, hi, args,
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
    checks, and QuadratureError at the first point in T-major order whose
    spontaneous integral hits the refinement cap, then whose spontaneous
    width is negative; then ParameterError at the first point whose
    spontaneous integral (of order qbar^6, so below qbar ~1e-51 at T = 0 in
    the sodium preset) is not a normal double, where the width would lose
    digits or read 0 with no error; then the stall and negative-width checks
    on the stimulated channel.
    """
    qbar = [_valid_qbar(q) for q in qbar]
    temperature = [_valid_temperature(t) for t in temperature]
    shape = (len(temperature), len(qbar))
    widths, errors = [], []
    *channels, omega_q = _setup(params, channel, qbar, temperature)
    for name, columns in zip(("spontaneous", "stimulated"), channels):
        value, abserr, converged = _solve(columns)

        def grid(column):
            """column scattered to its points on the grid, zero elsewhere."""
            out = np.zeros(shape, dtype=column.dtype)
            out.flat[columns.point] = column
            return out

        width, error = grid(columns.scale * value), grid(columns.scale * abserr)
        for bad, fault in ((grid(~converged), f"did not converge within {_LIMIT} subintervals"),
                           (width < 0.0, "gave a negative width")):
            _check(bad, lambda i, j: QuadratureError(
                f"quadrature {fault}: "
                f"{name} width at qbar = {qbar[j]:.6g}, T = {temperature[i]:.6g} K",
                partial_rate_s=float(width[i, j]),
                error_estimate_s=float(error[i, j]),
            ))
        if name == "spontaneous":
            _check(grid(~_normal(value)), lambda i, j: ParameterError(
                f"spontaneous width underflows at qbar = {qbar[j]:.3g}, "
                f"T = {temperature[i]:.3g} K: its reduced integral is not a normal "
                "double (at T = 0 the width there is the q^5 law)"))
        widths.append(width)
        errors.append(error)
    gamma_beliaev, gamma_landau = widths
    gamma_total = gamma_beliaev + gamma_landau
    return RateGrid(gamma_beliaev, gamma_landau, gamma_total, errors[0] + errors[1],
                    gamma_total / omega_q)

