"""Test-side references for the decay widths.

Closed forms the production quadrature is checked against: the T = 0
phonon-regime (q^5) law of the spontaneous width, the low-temperature
(Hohenberg-Martin) and high-temperature (Szepfalusy-Kondor) laws of the
stimulated one, and the spontaneous integrand rewritten in the energy
variable, an independent reduction of the same width that the tests
integrate with scipy.  `refine_reference` is the batched refinement with
work arrays _LIMIT columns wide, against which the production one, whose
arrays are only as wide as the subintervals in use, must agree bit for bit.
"""

import math

import numpy as np

from quasidamp.model import (
    HBAR,
    K_BOLTZMANN,
    ParameterError,
    PhysicalParams,
    derive_units,
    dispersion,
    group_velocity,
    inverse_dispersion,
)
from quasidamp.rates import _LIMIT, Channel, _beliaev_vertex, _qk21, _sd


def beliaev_asymptote(qbar: float, channel: Channel, params: PhysicalParams) -> float:
    """Small-momentum closed form of the spontaneous width (s^-1).

    3*hbar*q^5/(320*pi*m*n0) for the intraspecies channel,
    hbar*q^5/(96*pi*m*n0) for the interspecies one (times (a_bc/a_bb)^2 when
    the interspecies scattering length differs), with q = qbar*k0.
    """
    if not (qbar > 0.0 and math.isfinite(qbar)):
        raise ParameterError(f"qbar must be > 0, got {qbar}")
    units = derive_units(params)
    q = qbar * units.k0
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
    q = qbar * derive_units(params).k0
    return 3.0 * math.pi / 8.0 * K_BOLTZMANN * temperature_T * params.scattering_length_a * q / HBAR


def landau_low_t(qbar: float, temperature_T: float, params: PhysicalParams) -> float:
    """Low-temperature phonon damping (3 pi^3/40)(kB T)^4 q/(m n0 hbar^3 c^4) (s^-1).

    Hohenberg & Martin; Pitaevskii & Stringari, Phys. Lett. A 235, 398
    (1997): the amplitude damping of a phonon at kB*T << mu, with the sound
    speed c = sqrt(mu/m) and mu = hbar*omega0; the occupation width is
    twice this.
    """
    units = derive_units(params)
    q = qbar * units.k0
    mass, n0 = params.atomic_mass, params.condensate_density_n0
    c = math.sqrt(HBAR * units.omega0 / mass)
    thermal = K_BOLTZMANN * temperature_T
    return 3.0 * math.pi**3 / 40.0 * thermal**4 * q / (mass * n0 * HBAR**3 * c**4)


def refine_reference(f, args, lo, hi, epsabs, epsrel):
    """Adaptive G10K21 over full (n, _LIMIT) work arrays.

    The same bisection as rates._refine, with every argmax and sum taken
    over whole _LIMIT-wide rows.  Returns (value, abserr, converged, used),
    used being the subinterval count of each integral.
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
    done = (errsum == 0.0) | (
        (errsum <= np.maximum(epsabs, epsrel * np.abs(area))) & (errsum != resasc[:, 0])
    )
    used = np.ones(n, dtype=np.intp)
    active = np.flatnonzero(~done)
    while active.size:
        worst = err[active].argmax(axis=1)
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
        area[active] = res[active].sum(axis=1)
        errsum[active] = err[active].sum(axis=1)
        met = errsum[active] <= np.maximum(epsabs[active], epsrel * np.abs(area[active]))
        done[active] = met
        active = active[~met & (used[active] < _LIMIT)]
    return area, errsum, done, used


def beliaev_energy_integrand(qbar: float, omega_k: float) -> float:
    """T=0 spontaneous integrand in the energy variable omega_k.

    gamma/omega0 = (k0^3/n0)/(pi*qbar) * int_0^wq dw F(w); F is symmetric
    about wq/2 because the splitting amplitude is symmetric in its two final
    momenta.
    """
    wq = dispersion(qbar)
    if not (0.0 < omega_k < wq):
        return 0.0
    kbar = inverse_dispersion(omega_k)
    pbar = inverse_dispersion(wq - omega_k)
    sq, dq = _sd(qbar, wq)
    sk, dk = _sd(kbar, dispersion(kbar))
    sp, dp = _sd(pbar, dispersion(pbar))
    vertex = _beliaev_vertex(sq, dq, sk, dk, sp, dp)
    return float(
        (kbar / group_velocity(kbar)) * vertex * vertex * (pbar / group_velocity(pbar))
    )
