"""Independent verification engines.

Two self-contained truth sources used to validate the production code without
assuming its approximations:

* a discretized-bath integrator that solves the exact linear system of one
  mode coupled to N bath modes from the spectrum of its arrowhead
  Hamiltonian: eigenvalues from the secular equation, eigenvector weights in
  closed form, with no dense diagonalization; the golden-rule exponential
  decay *emerges* (or fails to) instead of being put in by hand — including
  the finite-bath revival at t = 2*pi/spacing;

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
        if self.mode_count > 1 and not np.all(np.diff(grid) > 0.0):
            raise ParameterError("detuning_grid must be strictly increasing")
        if not np.all(np.asarray(self.couplings, dtype=float) >= 0.0):
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


#: Matrix entries per block when the secular sums are evaluated: a block's
#: arrays stay in cache, and one spectrum needs a few MB whatever the bath
#: size (larger blocks measured slower at 2000 modes).
_BLOCK_ENTRIES = 1 << 16
#: Safeguarded sweeps allowed per block; the pole model needs about six.
_MAX_SWEEPS = 100


def _secular(
    base: np.ndarray, tau: np.ndarray, k2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Secular sums at lambda = origin + tau, one row per root.

    base[r, m] is origin_r - Delta_m, so base + tau is lambda - Delta_m
    with no cancellation next to the origin pole.  Returns
    sum k2/(lambda - Delta), and the slope sum k2/(lambda - Delta)^2 split
    into the poles below lambda and those above it.
    """
    inv = base + tau[:, None]
    np.reciprocal(inv, out=inv)
    pole_sum = inv @ k2
    below = inv > 0.0
    np.multiply(inv, inv, out=inv)
    slope = inv @ k2
    np.multiply(inv, below, out=inv)
    slope_below = inv @ k2
    return pole_sum, slope_below, slope - slope_below


def _arrowhead_spectrum(
    poles: np.ndarray, couplings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and decaying-mode weights of [[0, k^T], [k, diag(poles)]].

    The eigenvalues are the roots of the secular equation
    f(lambda) = lambda - sum_m k_m^2 / (lambda - Delta_m), one between each
    pair of adjacent poles and one beyond each end pole (Golub 1973;
    O'Leary & Stewart 1990).  The weights
    are |<0|j>|^2 = 1 / (1 + sum_m k_m^2 / (lambda_j - Delta_m)^2).  Modes
    with k_m = 0 do not couple and are dropped.  The roots are solved a
    block of rows at a time, so memory stays bounded.
    """
    keep = couplings != 0.0
    d = poles[keep]
    k2 = couplings[keep] ** 2
    n = d.size
    if n == 0:
        return np.zeros(1), np.ones(1)
    # brackets: root j lies between poles j-1 and j, the outer ones within
    # sqrt(sum k^2) beyond the end pole and 0; twice that keeps f nonzero
    # at the bound, so no step can land on it
    reach = 2.0 * math.sqrt(float(np.sum(k2)))
    lower = np.concatenate(([min(d[0], 0.0) - reach], d))
    upper = np.concatenate((d, [max(d[-1], 0.0) + reach]))
    tol = 4.0 * np.finfo(float).eps * (float(np.max(np.abs(d))) + reach)
    eigenvalues = np.empty(n + 1)
    weights = np.empty(n + 1)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n + 1, rows):
        j = np.arange(start, min(start + rows, n + 1))
        origin, tau = _solve_roots(d, k2, j, lower[j], upper[j], tol)
        inv = d[origin, None] - d[None, :] + tau[:, None]
        np.reciprocal(inv, out=inv)
        np.multiply(inv, inv, out=inv)
        weights[j] = 1.0 / (1.0 + inv @ k2)
        eigenvalues[j] = d[origin] + tau
    return eigenvalues, weights


def _solve_roots(
    d: np.ndarray, k2: np.ndarray, j: np.ndarray,
    lower: np.ndarray, upper: np.ndarray, tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots j of the secular equation, each in its bracket (lower, upper).

    Returns (origin, tau): root j is d[origin] + tau, an offset from the
    nearer pole, so lambda - Delta stays accurate next to it.  Each step
    is the "middle way" of LAPACK dlaed4: the pole sums below and above the
    iterate are each modelled by one pole that matches their value and
    slope there, and the model's root in the bracket is the next iterate; a
    step that leaves the bracket is replaced by bisection.  Iteration stops
    once a root moves by no more than tol.
    """
    n = d.size
    outer = (j == 0) | (j == n)
    origin = np.where(j == 0, 0, j - 1)
    half = 0.5 * (upper - lower)
    # inner roots: f at the middle of the bracket says which half holds the
    # root, and the pole at that end becomes the origin
    inner = ~outer
    mid_sum = _secular(d[origin[inner], None] - d[None, :], half[inner], k2)[0]
    high = np.zeros(j.size, dtype=bool)
    high[inner] = d[origin[inner]] + half[inner] - mid_sum < 0.0
    origin = np.where(high, j, origin)
    lo = np.where(high, -half, 0.0)
    hi = np.where(high, 0.0, half)
    # outer roots: the whole bracket, from the end pole
    lo = np.where(j == 0, lower - d[0], lo)
    hi = np.where(j == 0, 0.0, np.where(j == n, upper - d[-1], hi))
    tau = np.where(outer, 0.5 * (lo + hi), np.where(high, lo, hi))

    active = np.arange(j.size)
    for _ in range(_MAX_SWEEPS):
        if active.size == 0:
            return origin, tau
        jr, o, t = j[active], origin[active], tau[active]
        pole_sum, slope_lo, slope_hi = _secular(d[o, None] - d[None, :], t, k2)
        f = d[o] + t - pole_sum
        # f increases through the root: keep the side of the bracket it is on
        lo[active] = np.where(f < 0.0, t, lo[active])
        hi[active] = np.where(f > 0.0, t, hi[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # distances to the poles below and above (unused where absent)
            dl = d[o] - d[np.maximum(jr - 1, 0)] + t
            dh = d[o] - d[np.minimum(jr, n - 1)] + t
            # inner model f ~ c - s_lo/(y + dl) - s_hi/(y + dh) in the step
            # y, with the linear term's unit slope given to the nearer pole;
            # times (y + dl)(y + dh) it is a*y^2 + b*y + e, falling through
            # its root in the bracket
            near_lo = np.abs(dl) <= np.abs(dh)
            s_lo = (slope_lo + near_lo) * dl * dl
            s_hi = (slope_hi + ~near_lo) * dh * dh
            a = f + s_lo / dl + s_hi / dh
            b = a * (dl + dh) - s_lo - s_hi
            e = dl * dh * f
            # outer model f ~ f + y + s*y / (g*(g + y)) keeps the linear
            # term; times -g*(g + y) it is again a falling quadratic
            end = outer[active]
            g = np.where(jr == 0, dh, dl)
            s = (slope_lo + slope_hi) * g * g
            a = np.where(end, -g, a)
            b = np.where(end, -(g * f + g * g + s), b)
            e = np.where(end, -g * g * f, e)
            root = np.sqrt(np.maximum(b * b - 4.0 * a * e, 0.0))
            step = np.where(b > 0.0, (-b - root) / (2.0 * a), 2.0 * e / (root - b))
        step = np.where(f == 0.0, 0.0, step)
        # a step within tol ends the iteration, and is dropped if it rounds
        # onto the bracket's edge; a larger one that leaves the bracket bisects
        done = (np.abs(step) <= tol) | (hi[active] - lo[active] <= tol)
        new = t + step
        inside = (new > lo[active]) & (new < hi[active])
        tau[active] = np.where(
            inside, new, np.where(done, t, 0.5 * (lo[active] + hi[active]))
        )
        active = active[~done]
    raise ArithmeticError(f"secular equation unresolved after {_MAX_SWEEPS} sweeps")


def integrate_discrete_bath(
    bath: BathSpec, t_max: float, n_samples: int = 2048
) -> AmplitudeSeries:
    """Exact amplitude of the decaying mode coupled to the discrete bath.

    Solves  db/dt = -i sum_m kappa_m g_m,  dg_m/dt = -i Delta_m g_m - i kappa_m b
    from b(0)=1, g_m(0)=0.  The generator is (i times) a real symmetric
    arrowhead matrix, so b(t) = sum_j w_j exp(-i lambda_j t) exactly at every
    sample time, with the eigenvalues lambda_j the roots of its secular
    equation and the weights w_j = |<0|j>|^2 in closed form (see
    _arrowhead_spectrum) — no step error, and recurrences are faithful.  On
    the uniform grid t_k = (p*m + q)*dt with m = ceil(sqrt(n_samples)), the
    sum is one (p, j) @ (j, q) product of exponential tables.
    """
    if t_max <= 0.0:
        raise ParameterError(f"t_max must be > 0, got {t_max}")
    if n_samples < 2:
        raise ParameterError("need at least two samples")
    evals, weights = _arrowhead_spectrum(
        np.asarray(bath.detuning_grid, dtype=float),
        np.asarray(bath.couplings, dtype=float),
    )
    t = np.linspace(0.0, t_max, n_samples)
    dt = t_max / (n_samples - 1)
    m = math.isqrt(n_samples - 1) + 1
    coarse = np.exp(-1j * np.outer(np.arange(-(-n_samples // m)) * (m * dt), evals))
    fine = np.exp(-1j * np.outer(np.arange(m) * dt, evals))
    b = ((coarse * weights) @ fine.T).ravel()[:n_samples]
    return AmplitudeSeries(
        t=t,
        amplitude=np.abs(b),
        revival_time=bath.revival_time,
        revival_warning=bool(t_max > bath.revival_time),
    )


def fit_decay_rate(
    series: AmplitudeSeries, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares decay rate of |b|^2 over the window.

    Returns (gamma_fit, residual): gamma_fit is minus the slope of
    log|b(t)|^2, residual the RMS of the log-space fit residuals.  An input
    amplitude exp(-t/2) therefore fits gamma_fit = 1.
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
    slope, intercept = np.polyfit(t[mask], logp, 1)
    fitted = slope * t[mask] + intercept
    residual = float(np.sqrt(np.mean((logp - fitted) ** 2)))
    return float(-slope) + 0.0, residual


def default_fit_window(
    series: AmplitudeSeries, gamma_guess: float, transient: float = 0.0
) -> tuple[float, float]:
    """First three e-foldings of |b|^2 or half the revival time, whichever
    is shorter, starting after an optional transient."""
    t_end = min(3.0 / gamma_guess, 0.5 * series.revival_time, float(series.t[-1]))
    return (transient, t_end)


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


#: Named observables for tms_fock_reference: label -> [(coefficient, op string)].
_TMS_OBSERVABLES: dict[str, list[tuple[float, tuple[str, ...]]]] = {
    "n_a": [(1.0, ("ad", "a"))],
    "n_b": [(1.0, ("bd", "b"))],
    "n_a_n_b": [(1.0, ("ad", "a", "bd", "b"))],
    "number_difference_variance": [
        (1.0, ("ad", "a", "ad", "a")),
        (-1.0, ("ad", "a", "bd", "b")),
        (-1.0, ("bd", "b", "ad", "a")),
        (1.0, ("bd", "b", "bd", "b")),
    ],
}


def tms_fock_reference(r: float, observable) -> complex:
    """Exact two-mode squeezed-vacuum moment by Schmidt-series summation.

    `observable` is a named alias (see _TMS_OBSERVABLES) or a raw tuple of
    operator labels from {a, ad, b, bd}.
    """
    if isinstance(observable, str):
        try:
            terms = _TMS_OBSERVABLES[observable]
        except KeyError:
            raise ParameterError(f"unknown observable {observable!r}") from None
        return sum((coeff * tms_fock_moment(r, ops) for coeff, ops in terms), 0.0 + 0.0j)
    return tms_fock_moment(r, tuple(observable))


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
