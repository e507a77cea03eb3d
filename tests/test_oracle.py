"""Discrete-bath and Wick/Fock verification engines."""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasidamp
from quasidamp.model import ParameterError
from quasidamp.oracle import (
    GOLDEN_RULE_RATE,
    AmplitudeSeries,
    BathSpec,
    GaussianSecondMoments,
    MomentTableError,
    Verdict,
    fit_decay_rate,
    flat_bath,
    integrate_discrete_bath,
    markov_suite,
    tms_fock_moment,
    tms_pair_table,
    wick_fourth_moment,
    wick_suite,
    windowed_bath,
)

# ---------------------------------------------------------------------------
# independence


def _imported_names(module: str, module_level: bool = False) -> set[str]:
    """Dotted names a package module imports, read from its source.

    module_level keeps only the imports that run when the module is
    imported, leaving out those inside function bodies.
    """
    path = Path(quasidamp.__file__).with_name(f"{module}.py")
    imported = set()
    pending = [ast.parse(path.read_text(encoding="utf-8"))]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        pending.extend(ast.iter_child_nodes(node))
    return imported


@pytest.mark.parametrize("module", ["model", "rates", "dynamics"])
def test_production_modules_do_not_import_oracle(module):
    # not even inside a function; test_cli_import_loads_no_scipy checks
    # what importing the CLI loads
    imported = _imported_names(module)
    assert not [name for name in imported if "oracle" in name.split(".")]


def test_oracle_imports_no_production_path():
    # the oracle cross-checks rates, dynamics and cli, so it shares none of
    # their code, not even inside a function
    imported = _imported_names("oracle")
    production = {"rates", "dynamics", "cli"}
    assert not [name for name in imported if production & set(name.split("."))]


@pytest.mark.parametrize("module", ["model", "rates", "dynamics", "cli"])
def test_production_modules_do_not_import_scipy_at_module_level(module):
    # the production path needs no scipy; only the tests use it, as a reference
    imported = _imported_names(module, module_level=True)
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def _loaded_after(code: str, *modules: str) -> list[str]:
    """Which of modules a cold interpreter has loaded after running code."""
    src = str(Path(quasidamp.__file__).resolve().parents[1])
    report = f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    probe = f"{code}\nimport json, sys\n{report}"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # nor jsonschema, which only the tests use, nor the oracle, which only
    # the oracle command imports
    assert _loaded_after("import quasidamp.cli", "scipy", "jsonschema", "quasidamp.oracle") == []


@pytest.mark.parametrize("module", ["model", "cli"])
def test_config_modules_import_no_numerical_module_at_module_level(module):
    # config resolution runs on model and the standard library; the commands
    # import rates, dynamics and numpy when they run
    imported = _imported_names(module, module_level=True)
    numerical = {"numpy", "rates", "dynamics", "oracle"}
    assert not [name for name in imported if numerical & set(name.lstrip(".").split("."))]


_NUMERICAL = ("numpy", "quasidamp.rates", "quasidamp.dynamics", "quasidamp.oracle")


@pytest.mark.parametrize("code", [
    "import quasidamp",
    "from quasidamp.cli import load_config; load_config(CONFIG)",
    "from quasidamp.cli import default_config; default_config()",
    "from quasidamp.cli import main; assert main(['--help']) == 0",
    "from quasidamp.cli import main; assert main(['--version']) == 0",
    "from quasidamp.cli import main; assert main(['rates']) == 2",
])
def test_config_resolution_and_help_load_no_numpy(tmp_path, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preset": "sodium-paper",
        "rate_query": {"qbar": [0.02, 5.0], "temperature": [0.0, 1e-6]},
    }), encoding="utf-8")
    assert _loaded_after(f"CONFIG = {str(config)!r}\n{code}", *_NUMERICAL) == []


def test_oracle_command_loads_neither_rates_nor_dynamics(tmp_path):
    argv = ["oracle", "--suite", "wick", "--out", str(tmp_path / "out")]
    code = f"from quasidamp.cli import main; assert main({argv!r}) == 0"
    assert _loaded_after(code, *_NUMERICAL) == ["numpy", "quasidamp.oracle"]


# ---------------------------------------------------------------------------
# bath construction


def test_flat_bath_layout():
    bath = flat_bath(5, 0.5, 0.1)
    assert bath.detuning_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)
    assert bath.couplings == (0.1,) * 5
    assert bath.min_spacing == pytest.approx(0.5)
    assert bath.revival_time == pytest.approx(2 * math.pi / 0.5)
    assert bath.mode_count == 5


def test_windowed_bath_envelope():
    bath = windowed_bath(21, 0.5, 0.3)
    c = np.array(bath.couplings)
    assert np.all(c <= 0.3 + 1e-15)
    assert np.allclose(c, c[::-1])  # symmetric envelope
    assert c[10] == pytest.approx(0.3)  # peak on resonance
    assert bath.mode_count == 21


def test_bath_spec_validation():
    with pytest.raises(ParameterError):
        BathSpec((0.0,), (0.1, 0.1))  # grid and couplings differ in length
    with pytest.raises(ParameterError):
        BathSpec((), ())
    with pytest.raises(ParameterError):
        BathSpec((0.5, 0.0), (0.1, 0.1))  # not increasing
    with pytest.raises(ParameterError):
        BathSpec((0.0, 0.5), (0.1, -0.1))
    with pytest.raises(ParameterError):
        flat_bath(5, -1.0, 0.1)


@pytest.mark.parametrize(
    "grid, couplings",
    [
        ((0.0, math.inf), (0.1, 0.1)),  # the spectral bound needs finite detunings
        ((0.0, 1.0), (0.1, math.inf)),  # would make the whole amplitude NaN
        ((math.nan,), (0.1,)),
        ((0.0,), (math.nan,)),
    ],
    ids=["inf-detuning", "inf-coupling", "nan-detuning", "nan-coupling"],
)
def test_bath_spec_rejects_non_finite(grid, couplings):
    with pytest.raises(ParameterError, match="finite"):
        BathSpec(grid, couplings)


# ---------------------------------------------------------------------------
# exact bath integration


def test_single_mode_rabi_oscillation():
    kappa = 0.07
    series = integrate_discrete_bath(flat_bath(1, 1.0, kappa), 30.0, n_samples=600)
    expected = np.abs(np.cos(kappa * series.t))
    assert np.max(np.abs(series.amplitude - expected)) < 1e-12


def test_decoupled_mode_stays_put():
    series = integrate_discrete_bath(flat_bath(11, 0.3, 0.0), 10.0, n_samples=64)
    assert np.allclose(series.amplitude, 1.0, atol=1e-13)


def test_amplitude_series_basics():
    series = integrate_discrete_bath(flat_bath(101, 0.1, 0.02), 5.0, n_samples=256)
    assert series.amplitude[0] == pytest.approx(1.0, abs=1e-13)
    assert np.all(series.amplitude <= 1.0 + 1e-12)
    assert not series.revival_warning  # 5 s << 2*pi/0.1


def test_golden_rule_emerges_from_dense_bath():
    # 1000 modes over a 10 s^-1 band, kappa = 0.01: 2*pi*kappa^2*rho = 6.28e-2
    bath = flat_bath(1000, 0.01, 0.01)
    gamma_gr = 2 * math.pi * 0.01**2 * 100.0
    series = integrate_discrete_bath(bath, 50.0, n_samples=2048)
    # three e-foldings of |b|^2 after a short transient, well before the
    # revival at 2*pi/0.01
    gamma_fit, residual = fit_decay_rate(series, (0.5, 3.0 / gamma_gr))
    assert gamma_fit == pytest.approx(gamma_gr, rel=0.10)
    assert residual < 0.5


def test_revival_warning_flag():
    coarse = flat_bath(30, 0.5, 0.05)
    t_rev = 2 * math.pi / 0.5
    warned = integrate_discrete_bath(coarse, 1.5 * t_rev, n_samples=128)
    quiet = integrate_discrete_bath(coarse, 0.5 * t_rev, n_samples=128)
    assert warned.revival_warning and not quiet.revival_warning


def test_revival_only_near_recurrence_time():
    bath = flat_bath(50, 0.2, 0.1)
    t_rev = bath.revival_time
    series = integrate_discrete_bath(bath, 1.2 * t_rev, n_samples=4096)
    mid = (series.t > 0.4 * t_rev) & (series.t < 0.8 * t_rev)
    near = (series.t > 0.85 * t_rev) & (series.t < 1.15 * t_rev)
    assert np.max(series.amplitude[mid]) < 0.5
    assert np.max(series.amplitude[near]) >= 0.5


# ---------------------------------------------------------------------------
# Chebyshev amplitude against dense diagonalization


def _dense_amplitude(bath: BathSpec, t: np.ndarray) -> np.ndarray:
    """Reference: |sum_j w_j exp(-i lambda_j t)|, the direct sum over the
    spectrum that eigh gives for the dense (N+1)x(N+1) arrowhead
    Hamiltonian, with w_j = <0|j>^2."""
    n = bath.mode_count
    ham = np.zeros((n + 1, n + 1))
    ham[0, 1:] = bath.couplings
    ham[1:, 0] = bath.couplings
    ham[np.arange(1, n + 1), np.arange(1, n + 1)] = bath.detuning_grid
    evals, evecs = np.linalg.eigh(ham)
    return np.abs(np.exp(-1j * np.outer(t, evals)) @ evecs[0, :] ** 2)


def _assert_matches_dense(bath: BathSpec, t_max: float = 100.0, n_samples: int = 1000) -> None:
    """|b(t)| is the Fourier transform of the decaying mode's spectral
    weights, so matching it at every sample checks the spectrum that the
    Chebyshev moments stand for."""
    series = integrate_discrete_bath(bath, t_max, n_samples=n_samples)
    assert series.t.tobytes() == np.linspace(0.0, t_max, n_samples).tobytes()
    assert np.max(np.abs(series.amplitude - _dense_amplitude(bath, series.t))) <= 1e-12


def _with_couplings(bath: BathSpec, couplings) -> BathSpec:
    return BathSpec(bath.detuning_grid, tuple(couplings))


@pytest.mark.parametrize("mode_count", [1, 2, 3, 50, 200, 201])
@pytest.mark.parametrize("make", [flat_bath, windowed_bath])
def test_spectrum_matches_dense_eigh(make, mode_count):
    # even mode counts put an eigenvalue at lambda = 0, odd ones a mode at
    # Delta = 0
    spacing = 10.0 / mode_count
    kappa = math.sqrt(GOLDEN_RULE_RATE * spacing / (2.0 * math.pi))
    _assert_matches_dense(make(mode_count, spacing, kappa))


def test_spectrum_with_decoupled_modes():
    bath = flat_bath(40, 0.25, 0.1)
    couplings = [0.0 if m % 3 == 0 else c for m, c in enumerate(bath.couplings)]
    _assert_matches_dense(_with_couplings(bath, couplings))
    ends_off = [0.0, *bath.couplings[1:-1], 0.0]
    _assert_matches_dense(_with_couplings(bath, ends_off))
    # a decoupled mode drops out, however far off: it widens no series
    far = BathSpec((*bath.detuning_grid, 1e300), (*bath.couplings, 0.0))
    amplitudes = [integrate_discrete_bath(b, 100.0).amplitude.tobytes() for b in (bath, far)]
    assert amplitudes[0] == amplitudes[1]


def test_short_times_match_dense():
    # x = h t from 0 to 5e-4: the first sample sits under the 1e-8 cutoff,
    # and the backward Bessel values of the next ones are rescaled many times
    _assert_matches_dense(flat_bath(201, 0.05, 0.02), t_max=1e-4, n_samples=4096)


def test_fully_decoupled_bath_has_one_unit_weight():
    # the decaying mode is an eigenvector with weight 1, so |b| = 1 throughout
    series = integrate_discrete_bath(BathSpec((-1.0, 0.5, 2.0), (0.0,) * 3), 50.0, n_samples=64)
    assert np.max(np.abs(series.amplitude - 1.0)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=1.0),  # gap to the previous mode
            st.floats(min_value=-6.0, max_value=0.0),  # log10 of the coupling
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_spectrum_matches_dense_on_random_baths(first, modes):
    grid = first + np.cumsum([0.0] + [gap for gap, _ in modes[1:]])
    couplings = tuple(10.0**exponent for _, exponent in modes)
    _assert_matches_dense(BathSpec(tuple(grid), couplings), n_samples=256)


@pytest.mark.parametrize("n_samples", [2, 3, 4095, 4096, 5000])
def test_factored_time_sum_matches_direct_sum(n_samples):
    # the Chebyshev sum factors each sample into time-only Bessel values and
    # bath-only moments; it must match the direct sum over the eigenvalues
    # at any sample count
    _assert_matches_dense(windowed_bath(300, 0.03, 0.02), t_max=60.0, n_samples=n_samples)


def test_finest_markov_bath_memory_is_bounded():
    # the dense path held (N+1)^2 matrices and an n_samples x (N+1) complex
    # table, well over 64 MB at N = 2000; phase tables over all N + 1
    # eigenvalues peaked at 4.11 MiB at N = 2000 and 8.06 MiB at N = 4000.
    # The Chebyshev series holds a few vectors of length N and n_samples and
    # its moments: 0.52 MiB at N = 2000 and 0.61 MiB at N = 4000
    for mode_count in (2000, 4000):
        bath = flat_bath(mode_count, 10.0 / mode_count, 0.01)
        tracemalloc.start()
        try:
            integrate_discrete_bath(bath, 75.0, n_samples=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, mode_count


def test_integrate_validates_inputs():
    bath = flat_bath(3, 1.0, 0.1)
    with pytest.raises(ParameterError):
        integrate_discrete_bath(bath, -1.0)
    with pytest.raises(ParameterError):
        integrate_discrete_bath(bath, 1.0, n_samples=1)


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_integrate_rejects_non_finite_t_max(t_max):
    # inf would make every sample NaN
    with pytest.raises(ParameterError, match="finite"):
        integrate_discrete_bath(flat_bath(3, 1.0, 0.1), t_max)


@pytest.mark.parametrize(
    "bath, t_max",
    [
        (flat_bath(3, 1.0, 0.1), 1e5),  # half-width 1 + 0.1*sqrt(3)
        (BathSpec((-1e300, 1e300), (0.1, 0.1)), 1.0),
        (BathSpec((-1.7e308, 1.7e308), (0.1, 0.1)), 1.0),  # the width overflows
        (BathSpec((0.0,), (1e200,)), 1.0),
    ],
    ids=["just-over", "wide-detunings", "overflowing-width", "huge-coupling"],
)
def test_integrate_rejects_phase_past_bound(bath, t_max):
    # the series would need about half-width * t_max terms
    with pytest.raises(ParameterError, match="Chebyshev series allows"):
        integrate_discrete_bath(bath, t_max)


# ---------------------------------------------------------------------------
# decay-rate fitting


def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 4.0, 400)
    series = AmplitudeSeries(t=t, amplitude=np.exp(-0.5 * t))
    gamma_fit, residual = fit_decay_rate(series, (0.0, 4.0))
    assert gamma_fit == pytest.approx(1.0, rel=1e-12)
    assert residual < 1e-12


def test_fit_flat_input_gives_zero():
    t = np.linspace(0.0, 4.0, 100)
    series = AmplitudeSeries(t=t, amplitude=np.ones_like(t))
    gamma_fit, residual = fit_decay_rate(series, (0.0, 4.0))
    assert gamma_fit == 0.0
    assert residual == 0.0


@pytest.mark.parametrize("source", ["markov-2000", "noisy"])
def test_fit_matches_numpy_polyfit(source):
    if source == "markov-2000":
        # the series and window of markov_suite's finest bath
        t_fit_end = 3.0 / GOLDEN_RULE_RATE
        series = integrate_discrete_bath(
            flat_bath(2000, 0.005, 0.01), 1.05 * t_fit_end, n_samples=4096
        )
        window = (0.5, t_fit_end)
    else:
        rng = np.random.default_rng(20260)
        t = np.linspace(0.0, 30.0, 3000)
        noise = 1.0 + 0.05 * rng.standard_normal(t.size)
        series = AmplitudeSeries(t=t, amplitude=np.exp(-0.07 * t) * np.abs(noise))
        window = (2.0, 25.0)
    gamma_fit, residual = fit_decay_rate(series, window)
    mask = (series.t >= window[0]) & (series.t <= window[1])
    logp = 2.0 * np.log(series.amplitude[mask])
    slope, intercept = np.polyfit(series.t[mask], logp, 1)
    ref = float(np.sqrt(np.mean((logp - (slope * series.t[mask] + intercept)) ** 2)))
    assert gamma_fit == pytest.approx(-slope, rel=1e-13)
    assert residual == pytest.approx(ref, rel=1e-13)


def test_fit_window_validation():
    t = np.linspace(0.0, 2.0, 50)
    series = AmplitudeSeries(t=t, amplitude=np.exp(-t))
    with pytest.raises(ParameterError):
        fit_decay_rate(series, (-1.0, 1.0))
    with pytest.raises(ParameterError):
        fit_decay_rate(series, (0.0, 5.0))
    with pytest.raises(ParameterError):
        fit_decay_rate(series, (1.0, 1.0))
    dead = AmplitudeSeries(t=t, amplitude=np.zeros_like(t))
    with pytest.raises(ParameterError):
        fit_decay_rate(dead, (0.0, 2.0))


# ---------------------------------------------------------------------------
# Wick fourth moments


def thermal_table(nbar: float) -> GaussianSecondMoments:
    return GaussianSecondMoments(
        operators=("a", "ad"),
        dagger={"a": "ad", "ad": "a"},
        modes=(("a", "ad"),),
        pairs={("ad", "a"): complex(nbar), ("a", "ad"): complex(nbar + 1.0)},
    )


def test_thermal_number_squared():
    # <(a^dag a)^2> = 2 nbar^2 + nbar; equals 1.0 at nbar = 0.5
    table = thermal_table(0.5)
    value = wick_fourth_moment(table, ("ad", "a", "ad", "a"))
    assert value == pytest.approx(1.0, abs=1e-14)
    for nbar in (0.1, 1.0, 3.7):
        got = wick_fourth_moment(thermal_table(nbar), ("ad", "a", "ad", "a"))
        assert got == pytest.approx(2 * nbar**2 + nbar, rel=1e-13)


def test_vacuum_moments_vanish():
    table = tms_pair_table(0.0)
    for ops in (("ad", "a", "ad", "a"), ("ad", "a", "bd", "b"), ("a", "a", "b", "b")):
        assert abs(wick_fourth_moment(table, ops)) == 0.0


def test_wick_rejects_unknown_labels():
    table = thermal_table(0.2)
    with pytest.raises(ParameterError):
        wick_fourth_moment(table, ("ad", "a", "c", "a"))


def test_wick_preserves_operator_order():
    # <a a^dag a a^dag> differs from <a^dag a a^dag a> by the commutator terms
    table = thermal_table(0.5)
    anti = wick_fourth_moment(table, ("a", "ad", "a", "ad"))
    normal = wick_fourth_moment(table, ("ad", "a", "ad", "a"))
    nbar = 0.5
    assert normal == pytest.approx(2 * nbar**2 + nbar, abs=1e-14)
    # <(n+1)^2> = <n^2> + 2<n> + 1
    assert anti == pytest.approx(2 * nbar**2 + 3 * nbar + 1, abs=1e-14)


def test_moment_table_check_catches_broken_commutator():
    table = GaussianSecondMoments(
        operators=("a", "ad"),
        dagger={"a": "ad", "ad": "a"},
        modes=(("a", "ad"),),
        pairs={("ad", "a"): 0.5 + 0.0j, ("a", "ad"): 0.7 + 0.0j},
    )
    with pytest.raises(MomentTableError):
        table.check()


def test_moment_table_check_catches_nonhermitian():
    table = GaussianSecondMoments(
        operators=("a", "ad"),
        dagger={"a": "ad", "ad": "a"},
        modes=(("a", "ad"),),
        pairs={
            ("ad", "a"): 0.5 + 0.2j,  # <n> must be real
            ("a", "ad"): 1.5 + 0.0j,
        },
    )
    with pytest.raises(MomentTableError):
        table.check()


def test_moment_table_check_catches_nonpositive():
    # claims |<ab>| exceeding the two-mode-squeezing bound sqrt(n(n+1))
    ns, bad = 0.25, 5.0
    table = GaussianSecondMoments(
        operators=("a", "ad", "b", "bd"),
        dagger={"a": "ad", "ad": "a", "b": "bd", "bd": "b"},
        modes=(("a", "ad"), ("b", "bd")),
        pairs={
            ("ad", "a"): ns + 0.0j,
            ("a", "ad"): ns + 1.0 + 0.0j,
            ("bd", "b"): ns + 0.0j,
            ("b", "bd"): ns + 1.0 + 0.0j,
            ("a", "b"): bad + 0.0j,
            ("b", "a"): bad + 0.0j,
            ("ad", "bd"): bad + 0.0j,
            ("bd", "ad"): bad + 0.0j,
        },
    )
    with pytest.raises(MomentTableError):
        table.check()


def test_pair_lookup():
    table = thermal_table(0.3)
    assert table.pair("ad", "ad") == 0.0  # absent entries read as zero
    with pytest.raises(ParameterError):
        table.pair("a", "q")


# ---------------------------------------------------------------------------
# two-mode squeezed vacuum references


def test_tms_second_moments_match_closed_form():
    for r in (0.1, 0.5, 1.3):
        sh, ch = math.sinh(r), math.cosh(r)
        assert tms_fock_moment(r, ("ad", "a")) == pytest.approx(sh * sh, rel=1e-12)
        assert tms_fock_moment(r, ("a", "b")) == pytest.approx(sh * ch, rel=1e-12)
        assert tms_fock_moment(r, ("a", "bd")) == pytest.approx(0.0, abs=1e-14)


def test_tms_pair_correlation_value():
    # <n_a n_b> = nbar (2 nbar + 1) with nbar = sinh^2(r)
    nbar = math.sinh(0.5) ** 2
    expected = nbar * (2 * nbar + 1)
    assert expected == pytest.approx(0.4190086, rel=1e-6)
    assert tms_fock_moment(0.5, ("ad", "a", "bd", "b")) == pytest.approx(expected, rel=1e-12)


def test_tms_number_difference_locked():
    # <(n_a - n_b)^2> = 0: the pairs are created together
    terms = [
        (1.0, ("ad", "a", "ad", "a")),
        (-1.0, ("ad", "a", "bd", "b")),
        (-1.0, ("bd", "b", "ad", "a")),
        (1.0, ("bd", "b", "bd", "b")),
    ]
    for r in (0.0, 0.3, 1.0, 2.0):
        assert abs(sum(c * tms_fock_moment(r, ops) for c, ops in terms)) < 1e-10


def test_tms_vacuum_reference():
    assert tms_fock_moment(0.0, ("ad", "a")) == 0.0
    assert tms_fock_moment(0.0, ("a", "ad")) == pytest.approx(1.0, rel=1e-14)


def test_tms_reference_validation():
    with pytest.raises(ParameterError):
        tms_fock_moment(2.5, ("ad", "a"))
    with pytest.raises(ParameterError):
        tms_fock_moment(-0.1, ("ad", "a"))
    with pytest.raises(ParameterError):
        tms_fock_moment(0.5, ("a", "x"))


def test_all_sixteen_fourth_moments_match_fock():
    for r in (0.1, 0.5, 1.0):
        table = tms_pair_table(r)
        for a1 in ("a", "ad"):
            for a2 in ("a", "ad"):
                for b1 in ("b", "bd"):
                    for b2 in ("b", "bd"):
                        ops = (a1, a2, b1, b2)
                        assert abs(
                            wick_fourth_moment(table, ops) - tms_fock_moment(r, ops)
                        ) <= 1e-10, ops


@settings(max_examples=40)
@given(st.floats(min_value=0.01, max_value=1.5))
def test_wick_fock_agreement_random_squeeze(r):
    table = tms_pair_table(r)
    ops = ("ad", "a", "bd", "b")
    assert wick_fourth_moment(table, ops) == pytest.approx(
        tms_fock_moment(r, ops), rel=1e-10, abs=1e-12
    )


# ---------------------------------------------------------------------------
# verdict suites


def test_verdict_record_shape():
    v = Verdict(name="x", expected=1.0, observed=1.05, tolerance=0.1, passed=True)
    rec = v.as_record()
    assert set(rec) == {"name", "expected", "observed", "tolerance", "pass"}
    assert rec["pass"] is True


def test_wick_suite_all_pass():
    verdicts = wick_suite()
    assert len(verdicts) == 48
    assert all(v.passed for v in verdicts)


def test_markov_suite_all_pass():
    verdicts = markov_suite()
    names = {v.name for v in verdicts}
    assert "markov-golden-rule-2000-modes" in names
    assert "markov-refinement-monotone" in names
    assert all(v.passed for v in verdicts)
