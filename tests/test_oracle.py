"""Discrete-bath and Wick/Fock verification engines."""

import ast
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
from quasidamp import oracle
from quasidamp.model import ParameterError
from quasidamp.oracle import (
    GOLDEN_RULE_RATE,
    AmplitudeSeries,
    BathSpec,
    GaussianSecondMoments,
    MomentTableError,
    Verdict,
    default_fit_window,
    fit_decay_rate,
    flat_bath,
    integrate_discrete_bath,
    markov_suite,
    tms_fock_moment,
    tms_fock_reference,
    tms_pair_table,
    wick_fourth_moment,
    wick_suite,
    windowed_bath,
    _arrowhead_spectrum,
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


def test_cli_import_loads_no_scipy():
    # nor jsonschema, which only the tests use, nor the oracle, which only
    # the oracle command imports
    src = str(Path(quasidamp.__file__).resolve().parents[1])
    probe = (
        "import sys, quasidamp.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'jsonschema') or m == 'quasidamp.oracle'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


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
        ((0.0, math.inf), (0.1, 0.1)),  # the secular solver needs finite poles
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
    window = default_fit_window(series, gamma_gr, transient=0.5)
    gamma_fit, residual = fit_decay_rate(series, window)
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
# arrowhead spectrum and time sum


def _dense_spectrum(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reference: eigh of the dense (N+1)x(N+1) arrowhead Hamiltonian."""
    n = bath.mode_count
    ham = np.zeros((n + 1, n + 1))
    ham[0, 1:] = bath.couplings
    ham[1:, 0] = bath.couplings
    ham[np.arange(1, n + 1), np.arange(1, n + 1)] = bath.detuning_grid
    evals, evecs = np.linalg.eigh(ham)
    return evals, evecs[0, :] ** 2


def _secular_spectrum(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    """The secular-equation spectrum, with each decoupled mode put back as
    an eigenvalue of zero weight so it lines up with the dense one."""
    grid = np.asarray(bath.detuning_grid)
    couplings = np.asarray(bath.couplings)
    evals, weights = _arrowhead_spectrum(grid, couplings)
    decoupled = grid[couplings == 0.0]
    evals = np.concatenate((evals, decoupled))
    weights = np.concatenate((weights, np.zeros(decoupled.size)))
    order = np.argsort(evals, kind="stable")
    return evals[order], weights[order]


def _assert_matches_dense(bath: BathSpec, gap_aware: bool = False) -> None:
    """Eigenvalues and weights to 1e-12 of eigh's.  With gap_aware, the
    weights may also differ by eigh's own eigenvector error, which grows as
    eps*|H|/gap between neighbouring eigenvalues."""
    evals, weights = _secular_spectrum(bath)
    ref_evals, ref_weights = _dense_spectrum(bath)
    weight_tol = 1e-12
    if gap_aware and ref_evals.size > 1:
        gap = float(np.min(np.diff(ref_evals)))
        weight_tol += 64.0 * np.finfo(float).eps * float(np.max(np.abs(ref_evals))) / gap
    assert np.max(np.abs(evals - ref_evals)) <= 1e-12
    assert np.max(np.abs(weights - ref_weights)) <= weight_tol
    assert abs(float(np.sum(weights)) - 1.0) <= 1e-12


def _with_couplings(bath: BathSpec, couplings) -> BathSpec:
    return BathSpec(bath.detuning_grid, tuple(couplings))


@pytest.mark.parametrize("mode_count", [1, 2, 3, 50, 200, 201])
@pytest.mark.parametrize("make", [flat_bath, windowed_bath])
def test_spectrum_matches_dense_eigh(make, mode_count):
    # even mode counts put a root at lambda = 0, odd ones a pole at Delta = 0
    spacing = 10.0 / mode_count
    kappa = math.sqrt(GOLDEN_RULE_RATE * spacing / (2.0 * math.pi))
    _assert_matches_dense(make(mode_count, spacing, kappa))


def test_spectrum_with_decoupled_modes():
    bath = flat_bath(40, 0.25, 0.1)
    couplings = [0.0 if m % 3 == 0 else c for m, c in enumerate(bath.couplings)]
    _assert_matches_dense(_with_couplings(bath, couplings))
    ends_off = [0.0, *bath.couplings[1:-1], 0.0]
    _assert_matches_dense(_with_couplings(bath, ends_off))


@pytest.mark.parametrize("entries", [64, 256, 1024])
def test_spectrum_matches_dense_across_blocks(monkeypatch, entries):
    # small blocks split every bath below into many blocks of rows (one row
    # each at 64 entries), whose rows finish at different sweeps
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", entries)
    for mode_count in (50, 200, 201):
        spacing = 10.0 / mode_count
        kappa = math.sqrt(GOLDEN_RULE_RATE * spacing / (2.0 * math.pi))
        _assert_matches_dense(flat_bath(mode_count, spacing, kappa))
        _assert_matches_dense(windowed_bath(mode_count, spacing, kappa))
    bath = flat_bath(40, 0.25, 0.1)
    couplings = [0.0 if m % 3 == 0 else c for m, c in enumerate(bath.couplings)]
    _assert_matches_dense(_with_couplings(bath, couplings))


def _finest_markov_spectrum() -> None:
    bath = flat_bath(2000, 0.005, 0.01)
    _arrowhead_spectrum(np.asarray(bath.detuning_grid), np.asarray(bath.couplings))


def test_spectrum_evaluates_few_rows_per_root(monkeypatch):
    # the middle of each bracket is evaluated once, and its sums take the
    # first step; evaluating it a second time makes about 5.1 rows per root
    rows = []
    secular = oracle._secular

    def counted(base, tau, *rest):
        rows.append(tau.size)
        return secular(base, tau, *rest)

    monkeypatch.setattr(oracle, "_secular", counted)
    _finest_markov_spectrum()
    assert sum(rows) <= 4.5 * 2001


def test_spectrum_sweeps_work_in_one_buffer(monkeypatch):
    # fresh (rows x N) arrays in each sweep would take the peak past 3x
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", 1 << 17)
    work_bytes = ((1 << 17) // 2000) * 2000 * 8
    tracemalloc.start()
    try:
        _finest_markov_spectrum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * work_bytes


def test_fully_decoupled_bath_has_one_unit_weight():
    evals, weights = _arrowhead_spectrum(np.array([-1.0, 0.5, 2.0]), np.zeros(3))
    assert evals.tolist() == [0.0] and weights.tolist() == [1.0]


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
    bath = BathSpec(tuple(grid), couplings)
    _assert_matches_dense(bath, gap_aware=True)


@pytest.mark.parametrize("n_samples", [2, 3, 4095, 4096, 5000])
def test_factored_time_sum_matches_direct_sum(n_samples):
    bath = windowed_bath(300, 0.03, 0.02)
    series = integrate_discrete_bath(bath, 60.0, n_samples=n_samples)
    evals, weights = _arrowhead_spectrum(
        np.asarray(bath.detuning_grid), np.asarray(bath.couplings)
    )
    direct = np.abs(np.exp(-1j * np.outer(series.t, evals)) @ weights)
    assert series.t.shape == (n_samples,)
    assert np.max(np.abs(series.amplitude - direct)) <= 1e-12
    # the factored sum with fresh tables, as written before the tables were
    # built in place, to the bit
    dt = 60.0 / (n_samples - 1)
    m = math.isqrt(n_samples - 1) + 1
    coarse = np.exp(-1j * np.outer(np.arange(-(-n_samples // m)) * (m * dt), evals))
    fine = np.exp(-1j * np.outer(np.arange(m) * dt, evals))
    factored = np.abs(((coarse * weights) @ fine.T).ravel()[:n_samples])
    assert series.amplitude.tobytes() == factored.tobytes()


def test_finest_markov_bath_memory_is_bounded():
    # the dense path held (N+1)^2 matrices and an n_samples x (N+1) complex
    # table, well over 64 MB at N = 2000; fresh exp and weighted copies of the
    # phase tables peaked at 6.08 MiB
    bath = flat_bath(2000, 0.005, 0.01)
    tracemalloc.start()
    try:
        integrate_discrete_bath(bath, 75.0, n_samples=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


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


def test_default_fit_window_caps():
    t = np.linspace(0.0, 100.0, 101)
    series = AmplitudeSeries(t=t, amplitude=np.exp(-t), revival_time=8.0)
    assert default_fit_window(series, 1.0) == (0.0, pytest.approx(3.0))
    assert default_fit_window(series, 0.01) == (0.0, pytest.approx(4.0))  # revival/2
    open_series = AmplitudeSeries(t=t, amplitude=np.exp(-t))  # no revival known
    assert default_fit_window(open_series, 0.001) == (0.0, pytest.approx(100.0))  # grid end


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
    assert tms_fock_reference(0.5, "n_a_n_b") == pytest.approx(expected, rel=1e-12)


def test_tms_number_difference_locked():
    for r in (0.0, 0.3, 1.0, 2.0):
        assert abs(tms_fock_reference(r, "number_difference_variance")) < 1e-10


def test_tms_vacuum_reference():
    assert tms_fock_reference(0.0, "n_a") == 0.0
    assert tms_fock_moment(0.0, ("a", "ad")) == pytest.approx(1.0, rel=1e-14)


def test_tms_reference_validation():
    with pytest.raises(ParameterError):
        tms_fock_reference(2.5, "n_a")
    with pytest.raises(ParameterError):
        tms_fock_reference(-0.1, "n_a")
    with pytest.raises(ParameterError):
        tms_fock_reference(0.5, "no_such_observable")
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
