"""Independent verification engines.

Two self-contained truth sources used to validate the production code without
assuming its approximations:

* a discretized-bath integrator that propagates one mode coupled to N bath
  modes exactly, by a Chebyshev expansion of the propagator of its arrowhead
  Hamiltonian, with no eigenvalues and no time steps; the golden-rule
  exponential decay *emerges* (or fails to) instead of being put in by
  hand — including the finite-bath revival at t = 2*pi/spacing;

* a Gaussian fourth-moment (Wick) calculator over an explicit pair table,
  checked against exact Schmidt-series sums for the two-mode squeezed vacuum.

Both are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterError

# ---------------------------------------------------------------------------
# discrete bath
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BathSpec:
    """One decaying mode coupled to a ladder of bath modes.

    detuning_grid : bath frequencies relative to the decaying mode (s^-1),
                    strictly increasing
    couplings     : real non-negative amplitudes kappa_m (s^-1)
    """

    detuning_grid: tuple[float, ...]
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.detuning_grid) != len(self.couplings):
            raise ParameterError("detuning_grid and couplings must have the same length")
        if self.mode_count < 1:
            raise ParameterError("need at least one bath mode")
        grid = np.asarray(self.detuning_grid, dtype=float)
        couplings = np.asarray(self.couplings, dtype=float)
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(couplings))):
            raise ParameterError("detuning_grid and couplings must be finite")
        if not np.all(grid[1:] > grid[:-1]):
            raise ParameterError("detuning_grid must be strictly increasing")
        if not np.all(couplings >= 0.0):
            raise ParameterError("couplings must be non-negative")

    @property
    def mode_count(self) -> int:
        return len(self.detuning_grid)

    @property
    def min_spacing(self) -> float:
        if self.mode_count < 2:
            return math.inf
        return float(np.min(np.diff(np.asarray(self.detuning_grid))))

    @property
    def revival_time(self) -> float:
        """Finite-bath recurrence horizon 2*pi / min spacing."""
        return 2.0 * math.pi / self.min_spacing if self.mode_count > 1 else math.inf


def flat_bath(mode_count: int, spacing: float, kappa: float) -> BathSpec:
    """Uniform grid centered on resonance with equal couplings.

    Golden-rule rate for this bath: 2*pi*kappa^2*rho with rho = 1/spacing.
    """
    if spacing <= 0.0 or kappa < 0.0:
        raise ParameterError("spacing must be > 0 and kappa >= 0")
    offset = 0.5 * (mode_count - 1)
    grid = tuple(spacing * (m - offset) for m in range(mode_count))
    return BathSpec(detuning_grid=grid, couplings=(kappa,) * mode_count)


def windowed_bath(mode_count: int, spacing: float, kappa_peak: float) -> BathSpec:
    """Same grid with a smooth cosine-squared coupling envelope."""
    if spacing <= 0.0 or kappa_peak < 0.0:
        raise ParameterError("spacing must be > 0 and kappa_peak >= 0")
    offset = 0.5 * (mode_count - 1)
    grid = tuple(spacing * (m - offset) for m in range(mode_count))
    half_width = 0.5 * spacing * mode_count
    couplings = tuple(
        kappa_peak * math.cos(0.5 * math.pi * d / half_width) ** 2 for d in grid
    )
    return BathSpec(detuning_grid=grid, couplings=couplings)


@dataclass(frozen=True)
class AmplitudeSeries:
    """|b(t)| samples of the decaying-mode amplitude."""

    t: np.ndarray
    amplitude: np.ndarray
    revival_time: float = math.inf
    revival_warning: bool = False


#: Largest spectral half-width times t_max the bath engine accepts.  The
#: Chebyshev series needs about that many terms, and its cost grows with
#: them (markov_suite needs about 211).
_MAX_PHASE = 1e5
#: Below this x = half-width * t, 1 - |b| <= x^2/2 is under half an ulp of 1.
_TINY_PHASE = 1e-8
#: A backward Bessel value past this is rescaled with its partial sums; one
#: step multiplies it by at most 2n/x + 1 < 1e14, so it cannot overflow.
_RESCALE = 1e250


def integrate_discrete_bath(
    bath: BathSpec, t_max: float, n_samples: int = 2048
) -> AmplitudeSeries:
    """Exact amplitude of the decaying mode coupled to the discrete bath.

    Solves  db/dt = -i sum_m kappa_m g_m,  dg_m/dt = -i Delta_m g_m - i kappa_m b
    from b(0)=1, g_m(0)=0, so b(t) = <0|exp(-iHt)|0> for the real symmetric
    arrowhead H = [[0, kappa^T], [kappa, diag(Delta)]].  Its spectrum lies in
    [min(Delta, 0) - |kappa|, max(Delta, 0) + |kappa|] (decoupled modes
    dropped), of centre c and half-width h.  With H' = (H - c)/h and x = h t,
    the Chebyshev expansion of the propagator (Tal-Ezer & Kosloff 1984;
    Weisse et al. 2006) is

        b(t) = exp(-ict) sum_n (2 - delta_n0) (-i)^n J_n(x) mu_n,

    whose phase exp(-ict) drops out of |b|.  The moments mu_n = <0|T_n(H')|0>
    come from the three-term recurrence, one arrowhead product per order, and
    the J_n(x) from Miller's backward recurrence, normalised by
    J_0 + 2 sum J_2k = 1 and summed as they come.  The series stops at order
    x_max + 10 x_max^(1/3) + 40, where J_n(x_max) is far below roundoff, so
    there is no step error, the finite-bath recurrences are faithful, and
    the cost is O(h t_max (N + n_samples)) in O(N + n_samples) memory, with
    h t_max at most _MAX_PHASE.
    """
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ParameterError(f"t_max must be > 0 and finite, got {t_max}")
    if n_samples < 2:
        raise ParameterError("need at least two samples")
    kappa = np.asarray(bath.couplings, dtype=float)
    keep = kappa > 0.0
    delta, kappa = np.asarray(bath.detuning_grid, dtype=float)[keep], kappa[keep]
    reach = math.hypot(*bath.couplings)
    lo = float(delta.min(initial=0.0)) - reach
    hi = float(delta.max(initial=0.0)) + reach
    half = 0.5 * (hi - lo) or 1.0
    x_max = half * t_max
    if not x_max <= _MAX_PHASE:
        raise ParameterError(
            f"bath half-width {half:.3g} s^-1 times t_max {t_max:.3g} s is "
            f"{x_max:.3g}, over the {_MAX_PHASE:.0e} the Chebyshev series allows"
        )
    order = int(x_max + 10.0 * x_max ** (1.0 / 3.0)) + 40
    # moments of H' = (H - centre)/half, the vector held as its decaying-mode
    # entry a and its bath entries g
    centre = 0.5 * (hi + lo)
    d, k, shift = (delta - centre) / half, kappa / half, -centre / half
    mu = np.empty(order + 1)
    a_prev, g_prev = 1.0, np.zeros(delta.size)
    a, g = shift, k.copy()
    mu[0], mu[1] = a_prev, a
    for n in range(2, order + 1):
        a, a_prev, g, g_prev = (
            2.0 * (float(k @ g) + shift * a) - a_prev, a,
            2.0 * (k * a + d * g) - g_prev, g,
        )
        mu[n] = a
    # (2 - delta_n0) (-i)^n mu_n: real for even n, imaginary for odd n
    coeff = 2.0 * mu * np.resize([1.0, -1.0, -1.0, 1.0], order + 1)
    coeff[0] = mu[0]
    t = np.linspace(0.0, t_max, n_samples)
    x = half * t
    x = x[x >= _TINY_PHASE]  # the later samples; |b| is 1 before them
    two_over_x = 2.0 / x
    # Miller: F_n proportional to J_n(x), downward from F_s = 1, F_(s+1) = 0
    # at each sample's own start s = x + 10 x^(1/3) + 60: the samples from
    # index first[n] on have started by order n.  F_n is positive and
    # grows while n > x, then stays within a factor 100 of its peak
    # (|J_n| <= 1 against a peak >= 0.67 x^(-1/3)), so its largest value
    # is the one to watch for overflow
    first = np.searchsorted(x + 10.0 * np.cbrt(x) + 60.0, np.arange(order + 21))
    f_next, f, spare = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    sums = np.zeros((3, x.size))  # even part, odd part, normaliser
    started = x.size
    for n in range(order + 20, -1, -1):
        j = first[n]
        f[j:started] = 1.0
        f_next[j:started] = 0.0
        started = j
        if n <= order:
            sums[n & 1, j:] += coeff[n] * f[j:]
        if n % 2 == 0:
            sums[2, j:] += (2.0 if n else 1.0) * f[j:]
        if n:
            np.multiply(two_over_x[j:], f[j:], out=spare[j:])
            spare[j:] *= n
            spare[j:] -= f_next[j:]
            f_next, f, spare = f, spare, f_next
            if f[j:].max(initial=0.0) > _RESCALE:
                big = f > _RESCALE
                f[big] /= _RESCALE
                f_next[big] /= _RESCALE
                sums[:, big] /= _RESCALE
    amplitude = np.ones(n_samples)
    amplitude[n_samples - x.size :] = np.hypot(sums[0], sums[1]) / np.abs(sums[2])
    return AmplitudeSeries(
        t=t,
        amplitude=amplitude,
        revival_time=bath.revival_time,
        revival_warning=bool(t_max > bath.revival_time),
    )


def fit_decay_rate(
    series: AmplitudeSeries, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares decay rate of |b|^2 over the window.

    Returns (gamma_fit, residual): gamma_fit is minus the slope of
    log|b(t)|^2, residual the RMS of the log-space fit residuals.  An input
    amplitude exp(-t/2) therefore fits gamma_fit = 1.  The line is fitted in
    closed form about the window's means, with no least-squares solver, so
    the fit adds only a few window-length arrays to the engine's memory.
    """
    t0, t1 = window
    t = series.t
    if t0 < t[0] - 1e-12 or t1 > t[-1] + 1e-12 or t1 <= t0:
        raise ParameterError(f"fit window {window} outside series range ({t[0]}, {t[-1]})")
    mask = (t >= t0) & (t <= t1)
    if int(mask.sum()) < 2:
        raise ParameterError("fit window contains fewer than two samples")
    amp = np.abs(series.amplitude[mask])
    if not np.all(amp > 0.0):
        raise ParameterError("amplitude must be nonzero inside the fit window")
    logp = 2.0 * np.log(amp)
    tc = t[mask] - np.mean(t[mask])
    yc = logp - np.mean(logp)
    slope = float(tc @ yc / (tc @ tc))
    residual = float(np.sqrt(np.mean((yc - slope * tc) ** 2)))
    return -slope + 0.0, residual


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------


class MomentTableError(ValueError):
    """The pair table is not a consistent Gaussian-state moment table."""


@dataclass(frozen=True)
class GaussianSecondMoments:
    """Complete table of ordered pair expectations <x y> for a zero-mean
    Gaussian state.

    operators : operator labels, e.g. ('a', 'ad', 'b', 'bd')
    dagger    : label -> adjoint label
    modes     : (annihilator, creator) label pairs, one per bosonic mode
    pairs     : (x, y) -> <x y>; missing entries are zero
    """

    operators: tuple[str, ...]
    dagger: dict[str, str]
    modes: tuple[tuple[str, str], ...]
    pairs: dict[tuple[str, str], complex]

    def pair(self, x: str, y: str) -> complex:
        for label in (x, y):
            if label not in self.operators:
                raise ParameterError(f"unknown operator label {label!r}")
        return self.pairs.get((x, y), 0.0 + 0.0j)

    def check(self) -> None:
        """Assert Hermitian symmetry, commutators, and positivity.

        Positivity is tested on the Gram matrix G[x,y] = <x^dag y>, whose
        smallest eigenvalue must be >= -1e-10 relative to its largest
        diagonal entry (pure states sit exactly on the boundary).
        """
        for x in self.operators:
            if self.dagger.get(x) not in self.operators:
                raise MomentTableError(f"operator {x!r} lacks an adjoint in the table")
        for x in self.operators:
            for y in self.operators:
                direct = self.pair(x, y)
                adjoint = np.conj(self.pair(self.dagger[y], self.dagger[x]))
                if abs(direct - adjoint) > 1e-9 * max(1.0, abs(direct)):
                    raise MomentTableError(
                        f"Hermitian symmetry violated on <{x} {y}>: "
                        f"{direct} vs conj(<{self.dagger[y]} {self.dagger[x]}>) = {adjoint}"
                    )
        for lower, raised in self.modes:
            comm = self.pair(lower, raised) - self.pair(raised, lower)
            if abs(comm - 1.0) > 1e-9 * max(1.0, abs(self.pair(lower, raised))):
                raise MomentTableError(
                    f"commutator <{lower}{raised}> - <{raised}{lower}> = {comm}, want 1"
                )
        gram = np.array(
            [[self.pair(self.dagger[x], y) for y in self.operators] for x in self.operators]
        )
        scale = max(1.0, float(np.max(np.abs(np.diag(gram)).real)))
        eigmin = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])
        if eigmin < -1e-10 * scale:
            raise MomentTableError(f"moment table not positive: eigmin = {eigmin}")


def wick_fourth_moment(
    moments: GaussianSecondMoments, operators: tuple[str, str, str, str]
) -> complex:
    """Three-pairing Wick sum <ABCD> = <AB><CD> + <AC><BD> + <AD><BC>.

    Valid for any ordered operator quadruple on a zero-mean Gaussian state;
    operator order is preserved inside each contraction.
    """
    if len(operators) != 4:
        raise ParameterError("need exactly four operator labels")
    moments.check()
    a, b, c, d = operators
    return (
        moments.pair(a, b) * moments.pair(c, d)
        + moments.pair(a, c) * moments.pair(b, d)
        + moments.pair(a, d) * moments.pair(b, c)
    )


def tms_pair_table(r: float) -> GaussianSecondMoments:
    """Pair table of the two-mode squeezed vacuum with real squeeze r."""
    sh, ch = math.sinh(r), math.cosh(r)
    ns, x = sh * sh, sh * ch
    pairs: dict[tuple[str, str], complex] = {
        ("ad", "a"): ns,
        ("a", "ad"): ns + 1.0,
        ("bd", "b"): ns,
        ("b", "bd"): ns + 1.0,
        ("a", "b"): x,
        ("b", "a"): x,
        ("ad", "bd"): x,
        ("bd", "ad"): x,
    }
    return GaussianSecondMoments(
        operators=("a", "ad", "b", "bd"),
        dagger={"a": "ad", "ad": "a", "b": "bd", "bd": "b"},
        modes=(("a", "ad"), ("b", "bd")),
        pairs={k: complex(v) for k, v in pairs.items()},
    )


def _tms_truncation(r: float) -> int:
    if not (0.0 <= r <= 2.0):
        raise ParameterError(
            f"squeeze parameter r = {r} outside [0, 2]; the tanh^(2n) tail bound "
            "cannot be certified at 1e-14 in that regime"
        )
    th = math.tanh(r)
    if th == 0.0:
        return 2
    n_max = int(math.ceil(math.log(1e-14) / (2.0 * math.log(th)))) + 2
    return max(n_max, 8)


def tms_fock_moment(r: float, ops: tuple[str, ...]) -> complex:
    """<ops[0] ... ops[-1]> on the two-mode squeezed vacuum, by direct
    application of the operator string to the Schmidt series
    sum_n tanh(r)^n / cosh(r) |n, n>.
    """
    n_max = _tms_truncation(r)
    th, ch = math.tanh(r), math.cosh(r)
    state = {(n, n): th**n / ch for n in range(n_max + 1)}
    ket = dict(state)
    for op in reversed(ops):
        new: dict[tuple[int, int], float] = {}
        for (na, nb), amp in ket.items():
            if op == "a":
                if na > 0:
                    key, fac = (na - 1, nb), math.sqrt(na)
                else:
                    continue
            elif op == "ad":
                key, fac = (na + 1, nb), math.sqrt(na + 1)
            elif op == "b":
                if nb > 0:
                    key, fac = (na, nb - 1), math.sqrt(nb)
                else:
                    continue
            elif op == "bd":
                key, fac = (na, nb + 1), math.sqrt(nb + 1)
            else:
                raise ParameterError(f"unknown operator label {op!r}")
            new[key] = new.get(key, 0.0) + amp * fac
        ket = new
    value = sum(state[k] * v for k, v in ket.items() if k in state)
    return complex(value)


# ---------------------------------------------------------------------------
# verdict suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    name: str
    expected: float
    observed: float
    tolerance: float
    passed: bool

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _verdict(name: str, expected: float, observed: float, tolerance: float) -> Verdict:
    return Verdict(
        name=name,
        expected=float(expected),
        observed=float(observed),
        tolerance=float(tolerance),
        passed=bool(abs(observed - expected) <= tolerance),
    )


#: Reference golden-rule rate for the Markov suite (kappa=0.01, rho=200).
GOLDEN_RULE_RATE = 2.0 * math.pi * 0.01**2 * 200.0
_BANDWIDTH = 10.0  # s^-1, held fixed across refinements


def markov_suite() -> list[Verdict]:
    """Golden-rule emergence from the discrete bath.

    Refines the bath at fixed 2*pi*kappa^2*rho: the fitted decay must approach
    the golden-rule value monotonically and land within 10% once the spacing
    is <= gamma/20; a small coarse bath checks the revival warning and that
    |b| only recovers near t = 2*pi/spacing.
    """
    verdicts: list[Verdict] = []
    deviations: list[float] = []
    # start the ladder coarse enough that discreteness is the error being
    # refined away; by 2000 modes the spacing is well under gamma/20
    for mode_count in (50, 200, 800, 2000):
        spacing = _BANDWIDTH / mode_count
        rho = 1.0 / spacing
        kappa = math.sqrt(GOLDEN_RULE_RATE / (2.0 * math.pi * rho))
        bath = flat_bath(mode_count, spacing, kappa)
        t_fit_end = 3.0 / GOLDEN_RULE_RATE
        series = integrate_discrete_bath(bath, 1.05 * t_fit_end, n_samples=4096)
        window = (5.0 / _BANDWIDTH, t_fit_end)
        gamma_fit, _residual = fit_decay_rate(series, window)
        deviations.append(abs(gamma_fit - GOLDEN_RULE_RATE))
        if mode_count == 2000:
            verdicts.append(
                _verdict(
                    "markov-golden-rule-2000-modes",
                    GOLDEN_RULE_RATE,
                    gamma_fit,
                    0.10 * GOLDEN_RULE_RATE,
                )
            )
    monotone = all(d1 < d0 for d0, d1 in zip(deviations, deviations[1:]))
    verdicts.append(
        _verdict("markov-refinement-monotone", 1.0, 1.0 if monotone else 0.0, 0.0)
    )

    # coarse bath: decay, then recurrence at 2*pi/spacing
    coarse = flat_bath(50, 0.2, 0.1)
    t_rev = coarse.revival_time
    series = integrate_discrete_bath(coarse, 1.2 * t_rev, n_samples=4096)
    verdicts.append(
        _verdict(
            "markov-revival-warning-flag", 1.0, 1.0 if series.revival_warning else 0.0, 0.0
        )
    )
    mid = (series.t > 0.4 * t_rev) & (series.t < 0.8 * t_rev)
    near = (series.t > 0.85 * t_rev) & (series.t < 1.15 * t_rev)
    quiet = float(np.max(series.amplitude[mid]))
    peak = float(np.max(series.amplitude[near]))
    verdicts.append(_verdict("markov-no-early-recurrence", 0.0, quiet, 0.5))
    verdicts.append(
        _verdict("markov-revival-return", 1.0, 1.0 if peak >= 0.5 else 0.0, 0.0)
    )
    return verdicts


def wick_suite() -> list[Verdict]:
    """All 16 two-a-two-b fourth moments vs. the Schmidt-series reference."""
    verdicts: list[Verdict] = []
    for r in (0.1, 0.5, 1.0):
        table = tms_pair_table(r)
        for a1 in ("a", "ad"):
            for a2 in ("a", "ad"):
                for b1 in ("b", "bd"):
                    for b2 in ("b", "bd"):
                        ops = (a1, a2, b1, b2)
                        via_wick = wick_fourth_moment(table, ops)
                        reference = tms_fock_moment(r, ops)
                        verdicts.append(
                            Verdict(
                                name=f"wick-r{r}-" + "-".join(ops),
                                expected=float(reference.real),
                                observed=float(via_wick.real),
                                tolerance=1e-10,
                                passed=bool(abs(via_wick - reference) <= 1e-10),
                            )
                        )
    return verdicts
