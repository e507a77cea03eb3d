"""Test-side references for the decay widths.

Closed forms the production quadrature is checked against: the T = 0
phonon-regime (q^5) law of the spontaneous width, the high-temperature
(Szepfalusy-Kondor) law of the stimulated one, and the spontaneous
integrand rewritten in the energy variable, an independent reduction of
the same width that the tests integrate with scipy.
"""

import math

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
from quasidamp.rates import Channel, _beliaev_vertex, _sd


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
    sq, dq = _sd(qbar)
    sk, dk = _sd(kbar)
    sp, dp = _sd(pbar)
    vertex = _beliaev_vertex(sq, dq, sk, dk, sp, dp)
    return float(
        (kbar / group_velocity(kbar)) * vertex * vertex * (pbar / group_velocity(pbar))
    )
