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
from dataclasses import dataclass
from enum import Enum

from scipy.integrate import quad

from .model import (
    HBAR,
    K_BOLTZMANN,
    ParameterError,
    PhysicalParams,
    derive_units,
    dispersion,
    group_velocity,
    inverse_dispersion,
    thermal_population,
)

#: Default quadrature tolerances: absolute on gamma in units of omega0,
#: relative on the reduced integral.
EPSABS_OMEGA0 = 1e-10
EPSREL = 1e-8


class Channel(Enum):
    SINGLE_LEVEL = "single_level"
    TWO_LEVEL = "two_level"


@dataclass(frozen=True)
class RateQuery:
    """One rate evaluation: decaying momentum, temperature, channel, medium."""

    qbar: float
    temperature_T: float
    channel: Channel
    params: PhysicalParams

    def __post_init__(self) -> None:
        if not (self.qbar > 0.0 and math.isfinite(self.qbar)):
            raise ParameterError(f"qbar must be > 0, got {self.qbar}")
        if not (self.temperature_T >= 0.0 and math.isfinite(self.temperature_T)):
            raise ParameterError(
                f"temperature_T must be >= 0 and finite, got {self.temperature_T}"
            )


@dataclass(frozen=True)
class RateResult:
    """Decay widths in s^-1 with quadrature diagnostics.

    kinematic_window is the support (in kbar) of the spontaneous-channel
    magnitude integral; it is (x, x) when no final state is allowed.
    """

    gamma_beliaev: float
    gamma_landau: float
    gamma_total: float
    quadrature_error_estimate: float
    kinematic_window: tuple[float, float]


class QuadratureError(RuntimeError):
    """Adaptive refinement hit its cap; carries the partial result."""

    def __init__(self, message: str, partial_rate_s: float, error_estimate_s: float):
        super().__init__(message)
        self.partial_rate_s = partial_rate_s
        self.error_estimate_s = error_estimate_s


# ---------------------------------------------------------------------------
# vertex functions and kinematics
# ---------------------------------------------------------------------------


def _sd(kbar: float) -> tuple[float, float]:
    """Density and phase combinations (s, d) = (u-v, u+v) at kbar."""
    s = kbar / math.sqrt(dispersion(kbar))
    return s, 1.0 / s


def _beliaev_vertex(sq, dq, sk, dk, sp, dp) -> float:
    """Splitting amplitude q -> k + p, symmetric under k <-> p.

    The d*d (phase-phase) part enters with opposite sign to the 3 s*s
    density part; both apparent 1/sqrt(k) edge divergences of the d factors
    cancel against it, leaving an amplitude that vanishes like sqrt(k) at
    either edge of the window.
    """
    return (sq * (3.0 * sk * sp - dk * dp) + dq * (sk * dp + dk * sp)) / 4.0


def _landau_vertex(sq, dq, si, di, sj, dj) -> float:
    """Absorption amplitude q + i -> j (j carries the combined energy)."""
    return (sq * (3.0 * si * sj + di * dj) + dq * (si * dj - di * sj)) / 4.0


def _bose(omega_bar: float, temperature_T: float, omega0: float) -> float:
    return thermal_population(omega_bar * omega0, temperature_T)


def _bose_cutoff_kbar(omega_bar_low: float, temperature_T: float, omega0: float) -> float:
    """Upper integration limit for stimulated integrals.

    Truncates where the thermal occupation has fallen ~1e-14 below its value
    at the larger of (window lower edge, thermal frequency k_B T/hbar); the
    +3 margin covers the 1/(1-e^-x) enhancement of the Bose tail.
    """
    omega_bar_thermal = K_BOLTZMANN * temperature_T / (HBAR * omega0)
    x_ref = max(omega_bar_low, omega_bar_thermal) / omega_bar_thermal
    x_cut = x_ref + math.log(1e14) + 3.0
    return inverse_dispersion(x_cut * omega_bar_thermal)


def _run_quad(integrand, lo: float, hi: float, epsabs: float, epsrel: float,
              prefactor_s: float) -> tuple[float, float]:
    """quad() wrapper returning (value, abserr); converts refinement failure
    into QuadratureError carrying the partial rate in s^-1."""
    out = quad(integrand, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200,
               full_output=1)
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature did not converge: {out[3]}",
            partial_rate_s=prefactor_s * out[0],
            error_estimate_s=prefactor_s * out[1],
        )
    return out[0], out[1]


# ---------------------------------------------------------------------------
# single-level channel
# ---------------------------------------------------------------------------


def _beliaev_single(qbar: float, temperature_T: float, params: PhysicalParams,
                    epsrel: float) -> tuple[float, float, tuple[float, float]]:
    """Spontaneous width, s^-1: gamma/omega0 = (k0^3/n0)/(pi*qbar) * I with

        I = int_0^qbar dk k M^2 (1 + n_k + n_p*) pbar*/omega_bar'(pbar*)

    and pbar* fixed by energy conservation.  Integration runs over
    k = qbar*sin^2(theta), which is exact and keeps the quadrature nodes
    clustered at the window edges where the integrand shuts off.
    """
    units = derive_units(params)
    gas = units.k0**3 / params.condensate_density_n0
    prefactor = gas / (math.pi * qbar)
    wq = dispersion(qbar)
    sq, dq = _sd(qbar)
    thermal = temperature_T > 0.0

    def integrand(theta: float) -> float:
        sin_t = math.sin(theta)
        kbar = qbar * sin_t * sin_t
        if kbar <= 0.0 or kbar >= qbar:
            return 0.0
        wk = dispersion(kbar)
        wp = wq - wk
        pbar = inverse_dispersion(wp)
        sk, dk = _sd(kbar)
        sp, dp = _sd(pbar)
        vertex = _beliaev_vertex(sq, dq, sk, dk, sp, dp)
        occupation = 1.0
        if thermal:
            occupation += _bose(wk, temperature_T, units.omega0)
            occupation += _bose(wp, temperature_T, units.omega0)
        jacobian = qbar * math.sin(2.0 * theta)  # dk/dtheta
        return kbar * vertex * vertex * occupation * pbar / group_velocity(pbar) * jacobian

    value, abserr = _run_quad(
        integrand, 0.0, 0.5 * math.pi,
        epsabs=EPSABS_OMEGA0 / prefactor, epsrel=epsrel,
        prefactor_s=prefactor * units.omega0,
    )
    scale = prefactor * units.omega0
    return scale * value, scale * abserr, (0.0, qbar)


def _landau_single(qbar: float, temperature_T: float, params: PhysicalParams,
                   epsrel: float) -> tuple[float, float, tuple[float, float]]:
    """Stimulated width, s^-1: gamma/omega0 = 2(k0^3/n0)/(pi*qbar) * I with

        I = int_0^inf dk k L^2 (n_k - n_{k+q}) Pbar*/omega_bar'(Pbar*)

    Pbar* carries the combined energy; the triangle constraint holds for all
    k > 0 (the dispersion is superadditive), so the window is the full axis,
    truncated where the thermal tail is negligible.  Exactly 0 at T = 0.
    """
    if temperature_T == 0.0:
        return 0.0, 0.0, (0.0, 0.0)
    units = derive_units(params)
    gas = units.k0**3 / params.condensate_density_n0
    prefactor = 2.0 * gas / (math.pi * qbar)
    wq = dispersion(qbar)
    sq, dq = _sd(qbar)
    kmax = _bose_cutoff_kbar(0.0, temperature_T, units.omega0)

    def integrand(kbar: float) -> float:
        if kbar <= 0.0:
            return 0.0
        wk = dispersion(kbar)
        jbar = inverse_dispersion(wq + wk)
        si, di = _sd(kbar)
        sj, dj = _sd(jbar)
        vertex = _landau_vertex(sq, dq, si, di, sj, dj)
        delta_n = _bose(wk, temperature_T, units.omega0) - _bose(
            wk + wq, temperature_T, units.omega0
        )
        return kbar * vertex * vertex * delta_n * jbar / group_velocity(jbar)

    value, abserr = _run_quad(
        integrand, 0.0, kmax,
        epsabs=EPSABS_OMEGA0 / prefactor, epsrel=epsrel,
        prefactor_s=prefactor * units.omega0,
    )
    scale = prefactor * units.omega0
    gamma = scale * value
    if gamma < 0.0:
        raise RuntimeError(
            f"stimulated width came out negative ({gamma} s^-1): population "
            "factor ordering violated"
        )
    return gamma, scale * abserr, (0.0, kmax)


# ---------------------------------------------------------------------------
# two-level channel
# ---------------------------------------------------------------------------

#: Ratio of the two-level to single-level small-q coefficients,
#: (1/96) / (3/320) = 10/9: the interspecies vertex couples through the
#: density combination alone, while the intraspecies one mixes density and
#: phase channels; the phonon-splitting kinematics is common to both.
TWO_LEVEL_FACTOR = 10.0 / 9.0


def _coupling_ratio_sq(params: PhysicalParams) -> float:
    ratio = params.bc_scattering_length / params.scattering_length_a
    return ratio * ratio


def _beliaev_two_level(qbar: float, temperature_T: float, params: PhysicalParams,
                       epsrel: float) -> tuple[float, float, tuple[float, float]]:
    """Interspecies spontaneous width, s^-1.

    In the phonon regime the interspecies decay is the same splitting
    process as the intraspecies one with a different coupling combination,
    so the widths differ by the constant factor 10/9 (the ratio of the
    small-momentum coefficients 1/(96 pi) and 3/(320 pi)) times the coupling
    ratio (a_bc/a_bb)^2.  The full intraspecies quadrature supplies the
    momentum dependence.
    """
    gamma, err, window = _beliaev_single(qbar, temperature_T, params, epsrel)
    scale = TWO_LEVEL_FACTOR * _coupling_ratio_sq(params)
    return scale * gamma, scale * err, window


def _landau_two_level(qbar: float, temperature_T: float, params: PhysicalParams,
                      epsrel: float) -> tuple[float, float, tuple[float, float]]:
    """Interspecies stimulated width, s^-1: a free particle at qbar absorbs a
    thermal quasiparticle k and stays a free particle at energy qbar^2 + w_k:

        gamma/omega0 = (a_bc/a_bb)^2 (k0^3/n0)/(4 pi qbar)
                       * int_{kmin} dk k s_k^2 (n_b(w_k) - n_free(qbar^2 + w_k))

    The free-particle angular Jacobian is 1/(2 qbar kbar); |cos theta*| <= 1
    forces kbar >= max(0, 1/(2 qbar) - qbar).  Exactly 0 at T = 0.
    """
    if temperature_T == 0.0:
        return 0.0, 0.0, (0.0, 0.0)
    units = derive_units(params)
    gas = units.k0**3 / params.condensate_density_n0
    prefactor = _coupling_ratio_sq(params) * gas / (4.0 * math.pi * qbar)
    kmin = max(0.0, 0.5 / qbar - qbar)
    kmax = _bose_cutoff_kbar(dispersion(kmin) if kmin > 0.0 else 0.0,
                             temperature_T, units.omega0)
    if kmax <= kmin:
        return 0.0, 0.0, (kmin, kmin)
    eq = qbar * qbar  # free-particle energy of the decaying mode, omega0 units

    def integrand(kbar: float) -> float:
        if kbar <= 0.0:
            return 0.0
        wk = dispersion(kbar)
        s, _ = _sd(kbar)
        delta_n = _bose(wk, temperature_T, units.omega0) - _bose(
            eq + wk, temperature_T, units.omega0
        )
        return kbar * s * s * delta_n

    value, abserr = _run_quad(
        integrand, kmin, kmax,
        epsabs=EPSABS_OMEGA0 / prefactor, epsrel=epsrel,
        prefactor_s=prefactor * units.omega0,
    )
    scale = prefactor * units.omega0
    gamma = scale * value
    if gamma < 0.0:
        raise RuntimeError(
            f"stimulated width came out negative ({gamma} s^-1): population "
            "factor ordering violated"
        )
    return gamma, scale * abserr, (kmin, kmax)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _require_channel(query: RateQuery, channel: Channel) -> None:
    if query.channel is not channel:
        raise ParameterError(
            f"query channel is {query.channel}, operation requires {channel}"
        )


def beliaev_rate_single(query: RateQuery, epsrel: float = EPSREL) -> float:
    """Spontaneous intraspecies width (s^-1) at query.qbar."""
    _require_channel(query, Channel.SINGLE_LEVEL)
    gamma, _, _ = _beliaev_single(query.qbar, query.temperature_T, query.params, epsrel)
    return gamma


def landau_rate_single(query: RateQuery, epsrel: float = EPSREL) -> float:
    """Stimulated intraspecies width (s^-1); exactly 0 at T = 0."""
    _require_channel(query, Channel.SINGLE_LEVEL)
    gamma, _, _ = _landau_single(query.qbar, query.temperature_T, query.params, epsrel)
    return gamma


def beliaev_rate_two_level(query: RateQuery, epsrel: float = EPSREL) -> float:
    """Spontaneous interspecies width (s^-1) at query.qbar."""
    _require_channel(query, Channel.TWO_LEVEL)
    gamma, _, _ = _beliaev_two_level(query.qbar, query.temperature_T, query.params, epsrel)
    return gamma


def landau_rate_two_level(query: RateQuery, epsrel: float = EPSREL) -> float:
    """Stimulated interspecies width (s^-1); exactly 0 at T = 0."""
    _require_channel(query, Channel.TWO_LEVEL)
    gamma, _, _ = _landau_two_level(query.qbar, query.temperature_T, query.params, epsrel)
    return gamma


def decay_rate(query: RateQuery, epsrel: float = EPSREL) -> RateResult:
    """Both channels combined into a RateResult (widths in s^-1)."""
    if query.channel is Channel.SINGLE_LEVEL:
        gb, eb, window = _beliaev_single(query.qbar, query.temperature_T,
                                         query.params, epsrel)
        gl, el, _ = _landau_single(query.qbar, query.temperature_T,
                                   query.params, epsrel)
    else:
        gb, eb, window = _beliaev_two_level(query.qbar, query.temperature_T,
                                            query.params, epsrel)
        gl, el, _ = _landau_two_level(query.qbar, query.temperature_T,
                                      query.params, epsrel)
    return RateResult(
        gamma_beliaev=gb,
        gamma_landau=gl,
        gamma_total=gb + gl,
        quadrature_error_estimate=eb + el,
        kinematic_window=window,
    )


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
    return base / 96.0 * _coupling_ratio_sq(params)


def _beliaev_energy_integrand(qbar: float, omega_k: float) -> float:
    """T=0 spontaneous integrand in the energy variable omega_k.

    gamma/omega0 = (k0^3/n0)/(pi*qbar) * int_0^wq dw F(w); F is symmetric
    about wq/2 because the splitting amplitude is symmetric in its two final
    momenta.  Exposed for the symmetric-halves consistency test.
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
    return (kbar / group_velocity(kbar)) * vertex * vertex * (pbar / group_velocity(pbar))
