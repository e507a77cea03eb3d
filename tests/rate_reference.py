"""Test-side references for the decay widths.

Closed forms the production quadrature is checked against: the T = 0
phonon-regime (q^5) law of the spontaneous width, the low-temperature
(Hohenberg-Martin) and high-temperature (Szepfalusy-Kondor) laws of the
stimulated one, and the spontaneous integrand rewritten in the energy
variable with the textbook u, v vertex and the group velocity, an
independent reduction of the same width that the tests integrate with
scipy.  `reference_widths` integrates both channels by a route of its own,
QUADPACK with breakpoints in the energy variable (spontaneous) and the
momentum (stimulated), with its own kinematics and occupations; it takes
the production vertex, which the decimal tests pin to the textbook one.
`integrals` is the one-point setup of the two integrals of a
point (params, channel, qbar, T), which the production sweep builds per
grid axis and must match bit for bit; its exp-sinh scale is its own scalar
expression, not the production one.  `spontaneous_rows`, `stimulated_rows`
and `free_rows` are the integrands in expression form, which the
production ones (`quasidamp.integrands`) evaluate in place by the same IEEE
operations in the same order, and must match bit for bit.
"""

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad

from quasidamp.model import (
    HBAR,
    K_BOLTZMANN,
    ParameterError,
    PhysicalParams,
    bogoliubov_mode,
    dispersion,
)
from quasidamp.integrands import _free_rows, _spontaneous_rows, _stimulated_rows
from quasidamp.rates import (
    _MAX_BOSE_EXPONENT,
    _MIN_BOSE_EXPONENT,
    TWO_LEVEL_FACTOR,
    Channel,
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


def inverse_dispersion(omega_bar: float) -> float:
    """Momentum kbar with dispersion(kbar) = omega_bar, for omega_bar >= 0,
    as kbar = omega_bar/sqrt(1 + sqrt(1 + omega_bar^2))."""
    return omega_bar / math.sqrt(1.0 + math.hypot(1.0, omega_bar))


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
# the integrands in expression form, a row of nodes per integral


def _vertex(z, x, y):
    """Amplitude of z <-> x + y, each mode a (kbar^2, omega_bar, s) triple,
    z the one of highest energy and omega_z = omega_x + omega_y."""
    (zz, wz, sz), (xx, wx, sx), (yy, wy, sy) = z, x, y
    cz2 = 2.0 + zz
    sigma = (sx * sx * wy * ((wz + wx) / (cz2 + xx))
             + sy * sy * wx * ((wz + wy) / (cz2 + yy))) / cz2
    product = sz * sx * sy
    return (3.0 * product + sigma / product) / 4.0


def _bose_drop(beta, omega_bar, gap):
    """n(omega_bar) - n(omega_bar + gap) at Bose exponent beta per unit
    omega_bar, as e^-x b/(a (a + e^-x b)), a = 1 - e^-x, b = 1 - e^-y, x =
    beta omega_bar, y = beta gap."""
    x = -beta * omega_bar
    eb = np.exp(x) * -np.expm1(-beta * gap)
    am = np.expm1(x)  # -a
    return eb / (am * (am - eb))


def _nan_to_zero(value):
    value[np.isnan(value)] = 0.0
    return value


def _splitting(sin_t, cos_t, qbar, wq, sq):
    """(k V^2 pbar*/omega_bar'(pbar*) dk/dtheta, w_k, w_p*) at
    k = qbar*sin^2(theta)."""
    kbar = qbar * sin_t * sin_t
    kk = kbar * kbar
    ck = np.sqrt(2.0 + kk)
    wk = kbar * ck
    qq = qbar * qbar
    wp = qbar * cos_t * cos_t * (qbar + kbar) * ((2.0 + qq + kk) / (wq + wk))
    pbar = wp / np.sqrt(1.0 + np.hypot(1.0, wp))
    pp = pbar * pbar
    cp = np.sqrt(2.0 + pp)
    vertex = _vertex((qq, wq, sq), (kk, wk, np.sqrt(kbar / ck)), (pp, wp, np.sqrt(pbar / cp)))
    jacobian = 2.0 * qbar * sin_t * cos_t  # dk/dtheta
    velocity = 2.0 * (1.0 + pp) / cp  # omega_bar'(pbar)
    return kbar * vertex * vertex * pbar / velocity * jacobian, wk, wp


def _occupied(rate, wk, wp, beta):
    """rate times 1 + n_k + n_p*; 0 where that is nan."""
    return _nan_to_zero(rate * (1.0 + 1.0 / np.expm1(beta * wk) + 1.0 / np.expm1(beta * wp)))


def _stimulated_integrand(kbar, qq, wq, sq, beta):
    """k V^2 (n_k - n_{k+q}) jbar*/omega_bar'(jbar*); 0 where that is nan."""
    kk = kbar * kbar
    ck = np.sqrt(2.0 + kk)
    wk = kbar * ck
    wj = wq + wk
    root = np.where(wj < 1e150, np.sqrt(1.0 + wj * wj), wj)
    ssj = wj / (1.0 + root)
    vertex = _vertex((ssj * wj, wj, np.sqrt(ssj)), (qq, wq, sq), (kk, wk, np.sqrt(kbar / ck)))
    return _nan_to_zero(kbar * vertex * vertex * _bose_drop(beta, wk, wq) * wj / (2.0 * root))


def _stimulated_free_integrand(kbar, eq, beta):
    """k s_k^2 (n_b(w_k) - n_free(eq + w_k)); 0 where that is nan."""
    ck = np.sqrt(2.0 + kbar * kbar)
    return _nan_to_zero(kbar * kbar / ck * _bose_drop(beta, kbar * ck, eq))


def spontaneous_rows(nodes, qbar, wq, sq, beta):
    """`integrands._spontaneous_rows` in expression form, without a workspace."""
    sin_t, cos_t, weight = nodes
    rate, wk, wp = _splitting(sin_t, cos_t, qbar, wq, sq)
    return _occupied(rate * weight, wk, wp, beta)


def _absorbed(integrand, nodes, lo, step, *args):
    """integrand times dk/dt at exp-sinh nodes k = lo + step * e^((pi/2) sinh t)."""
    offset, growth = nodes
    kbar = step * offset
    weight = kbar * growth
    kbar += lo
    return integrand(kbar, *args) * weight


def stimulated_rows(nodes, step, qq, wq, sq, beta):
    """`integrands._stimulated_rows` in expression form, without a workspace."""
    return _absorbed(_stimulated_integrand, nodes, 0.0, step, qq, wq, sq, beta)


def free_rows(nodes, lo, step, eq, beta):
    """`integrands._free_rows` in expression form, without a workspace."""
    return _absorbed(_stimulated_free_integrand, nodes, lo, step, eq, beta)


# ---------------------------------------------------------------------------
# one-point setup of the two integrals of a (params, channel, qbar, T) point


@dataclass(frozen=True)
class Integral:
    """One reduced integral and its conversion to a width.

    The width in s^-1 is scale times the integral of the production
    integrand `rows` with parameters args, as the production columns hold
    them: (qbar, wq, sq, beta) of the spontaneous integral over theta in
    [0, pi/2], (s, qq, wq, sq, beta) of the single-level stimulated one over
    kbar >= 0 and (lo, s, eq, beta) of the two-level one over kbar >= lo, s
    the exp-sinh scale.  A channel with no allowed final state has no
    Integral.
    """

    rows: Callable
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


def _reduced(integrand, args, prefactor, scale, point) -> Integral:
    for name, value in (("width prefactor", prefactor), ("width scale", scale)):
        if not sys.float_info.min <= value < math.inf:
            channel, qbar = point
            raise ParameterError(
                f"{channel} {name} {value:.3g} is out of double range at qbar = {qbar:.3g}"
            )
    return Integral(integrand, args, scale)


def integrals(params: PhysicalParams, channel: Channel, qbar: float,
              temperature: float) -> tuple[Integral, Integral | None]:
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
    spontaneous = _reduced(_spontaneous_rows, (qbar, wq, sq, beta), prefactor, scale,
                           ("spontaneous", qbar))

    if beta == math.inf:
        return spontaneous, None
    if two_level:
        prefactor = _coupling_ratio_sq(params) * gas / (4.0 * math.pi * qbar)
        kmin = max(0.0, 0.5 / qbar - qbar)
    else:
        prefactor = 2.0 * gas / (math.pi * qbar)
        kmin = 0.0
    omega_low = kmin * math.sqrt(2.0 + kmin * kmin)  # the dispersion at kmin
    if beta * omega_low > _MAX_BOSE_EXPONENT:
        return spontaneous, None
    # the momentum step above kmin that raises the energy by k_B T
    step = inverse_dispersion(omega_low + 1.0 / beta) - kmin
    if two_level:
        rows, args = _free_rows, (kmin, step, qbar * qbar, beta)
    else:
        rows, args = _stimulated_rows, (step, qbar * qbar, wq, sq, beta)
    return spontaneous, _reduced(rows, args, prefactor, prefactor * params.omega0,
                                 ("stimulated", qbar))


def grid_queries(params, channel, qbar, temperature) -> list[tuple]:
    """(params, channel, qbar, T) of every grid point in T-major order, with
    qbar and T checked."""
    return [
        (params, channel, _valid_qbar(q), _valid_temperature(t))
        for t in temperature for q in qbar
    ]


# ---------------------------------------------------------------------------
# the widths by an independent route


def _occupation(x: float) -> float:
    """1/(e^x - 1) at x > 0."""
    return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)


def _occupation_drop(beta: float, omega: float, gap: float) -> float:
    """n(omega) - n(omega + gap) at Bose exponent beta per unit frequency,
    as e^-a (1 - e^-b)/((1 - e^-a)(1 - e^-(a + b))), a = beta*omega and
    b = beta*gap: positive factors, none of which overflows."""
    a, b = beta * omega, beta * gap
    return math.exp(-a) * math.expm1(-b) / (math.expm1(-a) * -math.expm1(-(a + b)))


def _mode(kbar: float) -> tuple[float, float, float]:
    """(kbar^2, omega_bar, s = u - v) of a mode, the vertex's arguments."""
    c = math.sqrt(2.0 + kbar * kbar)
    return kbar * kbar, kbar * c, math.sqrt(kbar / c)


def _splitting_energy_integrand(qbar: float, beta: float, omega_k: float) -> float:
    """(1 + n_k + n_p) (k/v_k) V^2 (p/v_p) at omega_k, omega_p = omega_q - omega_k.

    The amplitude is `_vertex`, bit for bit the production one, which the
    decimal tests pin to the textbook one: the textbook form in doubles
    cancels to 4% at qbar 1e-3.
    """
    z = _mode(qbar)
    omega_p = z[1] - omega_k
    kbar, pbar = inverse_dispersion(omega_k), inverse_dispersion(omega_p)
    vertex = _vertex(z, _mode(kbar), _mode(pbar))
    occupation = 1.0
    if beta < math.inf:
        occupation += _occupation(beta * omega_k) + _occupation(beta * omega_p)
    return (kbar / group_velocity(kbar)) * vertex * vertex * occupation * (
        pbar / group_velocity(pbar))


def _absorption_integrand(qbar: float, beta: float, kbar: float) -> float:
    """k V^2 (n_k - n_{k+q}) j/v_j, j carrying the combined energy."""
    q, k = _mode(qbar), _mode(kbar)
    omega_j = q[1] + k[1]
    jbar = inverse_dispersion(omega_j)
    vertex = _vertex(_mode(jbar), q, k)
    drop = _occupation_drop(beta, k[1], q[1])
    return kbar * vertex * vertex * drop * jbar / group_velocity(jbar)


def _free_absorption_integrand(qbar: float, beta: float, kbar: float) -> float:
    """k s_k^2 (n_b(w_k) - n_free(qbar^2 + w_k))."""
    kk, omega_k, _ = _mode(kbar)
    return kk / math.sqrt(2.0 + kk) * _occupation_drop(beta, omega_k, qbar * qbar)


def _quad(f, lo: float, hi: float, points) -> tuple[float, float]:
    """QUADPACK's integral of f over [lo, hi] with breakpoints inside it."""
    points = sorted({x for x in points if lo < x < hi})
    return quad(f, lo, hi, points=points or None, epsabs=0.0, epsrel=1e-13, limit=400)


def reference_widths(params: PhysicalParams, channel: Channel, qbar: float,
                     temperature: float) -> tuple[float, float, float, float]:
    """(spontaneous width, its error, stimulated width, its error) in s^-1
    at one point, by QUADPACK in the energy variable (spontaneous: twice
    the half window, the integrand being symmetric about omega_q/2) and in
    the momentum (stimulated), with breakpoints at decades of the window
    and of the thermal energy.  The stimulated integral stops where
    beta*omega passes 750, past which its occupations are 0 in doubles."""
    spontaneous, stimulated = integrals(params, channel, qbar, temperature)
    beta = spontaneous.args[3]
    half = 0.5 * dispersion(qbar)
    scales = [10.0**e for e in range(-16, 9)]
    if beta < math.inf:
        scales += [c / beta for c in (1e-3, 0.1, 1.0, 10.0)]
    value, error = _quad(partial(_splitting_energy_integrand, qbar, beta), 0.0, half,
                         [half * 10.0**-e for e in range(1, 17)] + scales)
    widths = [2.0 * spontaneous.scale * value, 2.0 * spontaneous.scale * error]
    if stimulated is None:
        return (*widths, 0.0, 0.0)
    lo = stimulated.args[0] if channel is Channel.TWO_LEVEL else 0.0
    omega_low = _mode(lo)[1]

    def above(energy):
        """The momentum at which the energy has risen by `energy` from lo."""
        return inverse_dispersion(omega_low + energy)

    if channel is Channel.TWO_LEVEL:
        f = partial(_free_absorption_integrand, qbar, beta)
    else:
        f = partial(_absorption_integrand, qbar, beta)
    points = [above(c / beta) for c in (1e-6, 1e-3, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)]
    value, error = _quad(f, lo, above(750.0 / beta), points)
    return (*widths, stimulated.scale * value, stimulated.scale * error)
