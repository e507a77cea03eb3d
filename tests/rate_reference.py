"""Test-side references for the decay widths.

Closed forms the production quadrature is checked against: the T = 0
phonon-regime (q^5) law of the spontaneous width, the low-temperature
(Hohenberg-Martin) and high-temperature (Szepfalusy-Kondor) laws of the
stimulated one, and the spontaneous integrand rewritten in the energy
variable with the textbook u, v vertex and the group velocity, an
independent reduction of the same width that the tests integrate with
scipy.  `refine_reference` is the batched refinement with work arrays
_LIMIT columns wide and each integral summed on its own, against which the
production one, whose arrays grow with the subintervals in use and whose
sums run over all active rows at once, must agree bit for bit.
`integrals` is the one-point setup of the two integrals of a point
(params, channel, qbar, T), which the production sweep builds per grid axis
and must match bit for bit; its Bose cutoff (`bose_cutoff_kbar`) is its
own scalar expression, not the production one.
"""

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from quasidamp.model import (
    HBAR,
    K_BOLTZMANN,
    ParameterError,
    PhysicalParams,
    bogoliubov_mode,
    dispersion,
)
from quasidamp import rates
from quasidamp.rates import (
    _LIMIT,
    _MAX_BOSE_EXPONENT,
    _MIN_BOSE_EXPONENT,
    TWO_LEVEL_FACTOR,
    Channel,
    _qk21,
    _spontaneous_integrand,
    _stimulated_free_integrand,
    _stimulated_integrand,
    _valid_qbar,
    _valid_temperature,
)
from vertex_reference import textbook_vertex


def beliaev_asymptote(qbar: float, channel: Channel, params: PhysicalParams) -> float:
    """Small-momentum closed form of the spontaneous width (s^-1).

    3*hbar*q^5/(320*pi*m*n0) for the intraspecies channel,
    hbar*q^5/(96*pi*m*n0) for the interspecies one (times (a_bc/a_bb)^2 when
    the interspecies scattering length differs), with q = qbar*k0.
    """
    if not (qbar > 0.0 and math.isfinite(qbar)):
        raise ParameterError(f"qbar must be > 0, got {qbar}")
    q = qbar * params.k0
    base = HBAR * q**5 / (math.pi * params.atomic_mass * params.condensate_density_n0)
    if channel is Channel.SINGLE_LEVEL:
        return 3.0 * base / 320.0
    ratio = params.bc_scattering_length / params.scattering_length_a
    return base / 96.0 * ratio * ratio


def landau_high_t(qbar: float, temperature_T: float, params: PhysicalParams) -> float:
    """High-temperature phonon damping (3*pi/8)*kB*T*a*q/hbar (s^-1).

    Szepfalusy & Kondor, Ann. Phys. 82, 1 (1974): the amplitude damping of a
    phonon at kB*T >> mu; the occupation width is twice this.
    """
    q = qbar * params.k0
    return 3.0 * math.pi / 8.0 * K_BOLTZMANN * temperature_T * params.scattering_length_a * q / HBAR


def landau_low_t(qbar: float, temperature_T: float, params: PhysicalParams) -> float:
    """Low-temperature phonon damping (3 pi^3/40)(kB T)^4 q/(m n0 hbar^3 c^4) (s^-1).

    Hohenberg & Martin; Pitaevskii & Stringari, Phys. Lett. A 235, 398
    (1997): the amplitude damping of a phonon at kB*T << mu, with the sound
    speed c = sqrt(mu/m) and mu = hbar*omega0; the occupation width is
    twice this.
    """
    q = qbar * params.k0
    mass, n0 = params.atomic_mass, params.condensate_density_n0
    c = math.sqrt(HBAR * params.omega0 / mass)
    thermal = K_BOLTZMANN * temperature_T
    return 3.0 * math.pi**3 / 40.0 * thermal**4 * q / (mass * n0 * HBAR**3 * c**4)


def refine_reference(f, args, lo, hi, epsrel):
    """Adaptive G10K21 over full (n, _LIMIT) work arrays.

    The same bisection as rates._refine, with every argmax and sum taken
    over one integral's own subintervals at a time.  Returns (value,
    abserr, converged, used), used being the subinterval count of each
    integral.
    """
    n = lo.size
    args = [arg[:, None, None] for arg in args]
    a = np.zeros((n, _LIMIT))
    b = np.zeros((n, _LIMIT))
    res = np.zeros((n, _LIMIT))
    err = np.zeros((n, _LIMIT))
    whole, whole_err, resasc = _qk21(f, args, lo[:, None], hi[:, None])
    a[:, 0], b[:, 0] = lo, hi
    res[:, 0], err[:, 0] = whole[:, 0], whole_err[:, 0]
    area, errsum = whole[:, 0], whole_err[:, 0]
    done = (errsum == 0.0) | ((errsum <= epsrel * np.abs(area)) & (errsum != resasc[:, 0]))
    used = np.ones(n, dtype=np.intp)
    active = np.flatnonzero(~done)
    while active.size:
        worst = np.array([err[i, :used[i]].argmax() for i in active])
        left, right = a[active, worst], b[active, worst]
        mid = 0.5 * (left + right)
        halves, halves_err, _ = _qk21(
            f,
            [arg[active] for arg in args],
            np.stack((left, mid), axis=1),
            np.stack((mid, right), axis=1),
        )
        slot = used[active]
        b[active, worst] = mid
        res[active, worst], err[active, worst] = halves[:, 0], halves_err[:, 0]
        a[active, slot], b[active, slot] = mid, right
        res[active, slot], err[active, slot] = halves[:, 1], halves_err[:, 1]
        used[active] += 1
        area[active] = [res[i, :used[i]].sum() for i in active]
        errsum[active] = [err[i, :used[i]].sum() for i in active]
        met = errsum[active] <= epsrel * np.abs(area[active])
        done[active] = met
        active = active[~met & (used[active] < _LIMIT)]
    return area, errsum, done, used


def inverse_dispersion(omega_bar: float) -> float:
    """Momentum kbar with dispersion(kbar) = omega_bar, for omega_bar >= 0,
    as kbar = omega_bar/sqrt(1 + sqrt(1 + omega_bar^2))."""
    return omega_bar / math.sqrt(1.0 + math.hypot(1.0, omega_bar))


def bose_cutoff_kbar(omega_bar_low: float, temperature: float, omega0: float) -> float:
    """Upper limit of a stimulated integral at T > 0, in scalar arithmetic.

    The momentum at which the Bose tail has fallen by ln(1e14) + 3 e-folds
    below its value at the larger of the window's lower edge and the
    thermal frequency k_B T/hbar; inf where that frequency overflows.
    """
    thermal = K_BOLTZMANN * temperature / (HBAR * omega0)
    if thermal == 0.0:  # k_B*T or hbar*omega0 underflowed
        thermal = (K_BOLTZMANN / HBAR) * (temperature / omega0)
    omega_bar_cut = (max(omega_bar_low, thermal) / thermal + math.log(1e14) + 3.0) * thermal
    return inverse_dispersion(omega_bar_cut) if omega_bar_cut < math.inf else math.inf


def group_velocity(kbar: float) -> float:
    """d(omega_bar)/d(kbar) = 2(1 + kbar^2)/sqrt(2 + kbar^2)."""
    return 2.0 * (1.0 + kbar * kbar) / math.sqrt(2.0 + kbar * kbar)


def beliaev_energy_integrand(qbar: float, omega_k: float) -> float:
    """T=0 spontaneous integrand in the energy variable omega_k.

    gamma/omega0 = (k0^3/n0)/(pi*qbar) * int_0^wq dw F(w); F is symmetric
    about wq/2 because the splitting amplitude is symmetric in its two final
    momenta.  The amplitude is the textbook u, v form on `model`'s mode
    coefficients, whose cancellation is harmless at the qbar >= 0.5 the
    tests use.
    """
    wq = dispersion(qbar)
    if not (0.0 < omega_k < wq):
        return 0.0
    kbar = inverse_dispersion(omega_k)
    pbar = inverse_dispersion(wq - omega_k)
    q, k, p = (bogoliubov_mode(m) for m in (qbar, kbar, pbar))
    vertex = textbook_vertex((q.u, q.v), (k.u, k.v), (p.u, p.v))
    return (kbar / group_velocity(kbar)) * vertex * vertex * (pbar / group_velocity(pbar))


# ---------------------------------------------------------------------------
# one-point setup of the two integrals of a (params, channel, qbar, T) point


@dataclass(frozen=True)
class Integral:
    """One reduced magnitude integral and its conversion to a width.

    The width in s^-1 is scale * int_lo^hi integrand(x, *args) dx.  lo == hi
    marks a channel with no allowed final state: its width is exactly 0.
    """

    integrand: Callable
    lo: float
    hi: float
    args: tuple[float, ...]
    scale: float


def _coupling_ratio_sq(params: PhysicalParams) -> float:
    ratio = params.bc_scattering_length / params.scattering_length_a
    ratio_sq = ratio * ratio
    if not sys.float_info.min <= ratio_sq < math.inf:
        raise ParameterError(
            f"interspecies coupling (a_bc/a)^2 = {ratio_sq:.3g} is out of double range"
        )
    return ratio_sq


def _reduced(integrand, lo, hi, args, prefactor, scale, point) -> Integral:
    for name, value in (("width prefactor", prefactor), ("width scale", scale)):
        if not sys.float_info.min <= value < math.inf:
            channel, qbar = point
            raise ParameterError(
                f"{channel} {name} {value:.3g} is out of double range at qbar = {qbar:.3g}"
            )
    return Integral(integrand, lo, hi, args, scale)


def integrals(params: PhysicalParams, channel: Channel, qbar: float,
              temperature: float) -> tuple[Integral, Integral]:
    """The spontaneous and the stimulated integral of one point, set up
    with scalar arithmetic and checks."""
    two_level = channel is Channel.TWO_LEVEL
    gas = params.k0**3 / params.condensate_density_n0
    # the Bose exponent hbar*omega0/(kB*T), inf at T = 0 and where omega0/T overflows
    beta = math.inf if temperature == 0.0 else (HBAR / K_BOLTZMANN) * (params.omega0 / temperature)
    cq = math.sqrt(2.0 + qbar * qbar)
    wq = qbar * cq
    if wq * params.omega0 == 0.0:
        raise ParameterError(f"mode frequency underflows at qbar = {qbar:.3g}")
    if wq * params.omega0 == math.inf:
        raise ParameterError(f"mode frequency overflows at qbar = {qbar:.3g}")
    if 1.0 + qbar * qbar + wq == math.inf:
        raise ParameterError(f"qbar = {qbar:.3g} is too large: 1 + kbar^2 + omega_bar overflows")
    if not beta * wq >= _MIN_BOSE_EXPONENT:
        raise ParameterError(
            f"T = {temperature:.3g} K is too hot at qbar = {qbar:.3g}: the "
            f"thermal occupation exceeds {1.0 / _MIN_BOSE_EXPONENT:.0e}"
        )
    sq = math.sqrt(qbar / cq)

    prefactor = gas / (math.pi * qbar)
    scale = prefactor * params.omega0
    if two_level:
        scale = TWO_LEVEL_FACTOR * _coupling_ratio_sq(params) * scale
    spontaneous = _reduced(
        _spontaneous_integrand, 0.0, 0.5 * math.pi, (qbar, wq, sq, beta),
        prefactor, scale, ("spontaneous", qbar),
    )

    point = ("stimulated", qbar)
    if beta == math.inf:
        stimulated = Integral(_stimulated_integrand, 0.0, 0.0, (), 1.0)
    elif not two_level:
        prefactor = 2.0 * gas / (math.pi * qbar)
        kmax = bose_cutoff_kbar(0.0, temperature, params.omega0)
        stimulated = _reduced(
            _stimulated_integrand, 0.0, kmax, (qbar, wq, sq, beta),
            prefactor, prefactor * params.omega0, point,
        )
    else:
        prefactor = _coupling_ratio_sq(params) * gas / (4.0 * math.pi * qbar)
        kmin = max(0.0, 0.5 / qbar - qbar)
        omega_low = kmin * math.sqrt(2.0 + kmin * kmin)  # the dispersion at kmin
        if beta * omega_low > _MAX_BOSE_EXPONENT:
            kmax = kmin
        else:
            kmax = max(kmin, bose_cutoff_kbar(omega_low, temperature, params.omega0))
        stimulated = _reduced(
            _stimulated_free_integrand, kmin, kmax, (qbar * qbar, beta),
            prefactor, prefactor * params.omega0, point,
        )
    return spontaneous, stimulated


def grid_queries(params, channel, qbar, temperature) -> list[tuple]:
    """(params, channel, qbar, T) of every grid point in T-major order, with
    qbar and T checked."""
    return [
        (params, channel, _valid_qbar(q), _valid_temperature(t))
        for t in temperature for q in qbar
    ]


def solve_alone(integral: Integral, epsrel: float) -> tuple[float, float, bool]:
    """(width, error, converged) of one integral refined on its own."""
    if not integral.hi > integral.lo:
        return 0.0, 0.0, True
    value, abserr, converged = rates._refine(
        integral.integrand, [np.array([arg]) for arg in integral.args],
        np.array([integral.lo]), np.array([integral.hi]), epsrel,
    )
    return integral.scale * float(value[0]), integral.scale * float(abserr[0]), bool(converged[0])
