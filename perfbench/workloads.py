"""Workload inputs and output checks for the quasidamp CLI benchmark.

Each workload turns a seed into a config file (the program sees only that
file), names the CLI arguments and the setup code that resolves the same
config, and checks the files a run leaves behind.  Checks return a list of
problems; an empty list means the output is correct.

rates-grid     cold `rates` over a seeded (qbar, T) grid, single-level channel
dynamics-long  cold `dynamics` on the 6 ms sodium trajectory at 1 us spacing,
               at a seeded finite temperature
oracle-all     cold `oracle --suite all`; takes no input, the seed is unused
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# rates-grid

#: Rows whose values tests/test_rates.py already pins, present in every grid:
#: (qbar, temperature_K, column, expected, relative tolerance).
RATE_ANCHORS = (
    (5.0, 0.0, "gamma_total_s", 530.9385860590878, 1e-9),
    (5.0, 1e-6, "gamma_landau_s", 1461.9636910876163, 1e-8),
    (0.02, 0.0, "gamma_beliaev_s", 3.46495057e-08, 1e-6),
    (0.05, 0.0, "gamma_beliaev_s", 3.38103382e-06, 1e-6),
    (0.1, 0.0, "gamma_beliaev_s", 1.07883884e-04, 1e-6),
)
ANCHOR_QBAR = (0.02, 0.05, 0.1, 5.0)
ANCHOR_T = (0.0, 1e-6)
QBAR_RANGE = (0.02, 10.0)  # phonon regime through free-particle regime
T_MAX = 1e-6  # ~13.5 T0 for the preset, T0 = hbar*omega0/k_B ~ 74 nK
N_QBAR = 48
N_T = 42  # 2016 grid points, one T = 0 row of N_QBAR points

RATES_HEADER = [
    "qbar",
    "temperature_K",
    "gamma_beliaev_s",
    "gamma_landau_s",
    "gamma_total_s",
    "gamma_over_omega",
    "quad_err",
]


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal bins of (lo, hi).

    Stratifying keeps the mix of cheap and expensive points, and so the
    cost of a grid, nearly the same for every seed.
    """
    width = (hi - lo) / n
    return [lo + width * (i + rng.uniform(0.05, 0.95)) for i in range(n)]


def rates_grid_config(seed: int) -> dict:
    rng = random.Random(seed)
    log_lo, log_hi = (math.log(v) for v in QBAR_RANGE)
    qbar = [math.exp(x) for x in _stratified(rng, log_lo, log_hi, N_QBAR - len(ANCHOR_QBAR))]
    temperature = _stratified(rng, 0.0, T_MAX, N_T - len(ANCHOR_T))
    return {
        "preset": "sodium-paper",
        "rate_query": {
            "qbar": sorted(qbar + list(ANCHOR_QBAR)),
            "temperature": sorted(temperature + list(ANCHOR_T)),
            "channel": "single_level",
        },
    }


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _rel_close(observed: float, expected: float, rel: float, floor: float = 0.0) -> bool:
    return abs(observed - expected) <= rel * abs(expected) + floor


def check_rates(config: dict, out_dir: str) -> list[str]:
    problems: list[str] = []
    header, rows = _read_csv(os.path.join(out_dir, "rates.csv"))
    if header != RATES_HEADER:
        return [f"rates.csv header {header} != {RATES_HEADER}"]
    qbars = sorted(config["rate_query"]["qbar"])
    temps = sorted(config["rate_query"]["temperature"])
    expected_keys = [(t, q) for t in temps for q in qbars]
    if len(rows) != len(expected_keys):
        return [f"rates.csv has {len(rows)} rows, expected {len(expected_keys)}"]

    table: dict[tuple[float, float], dict[str, float]] = {}
    for i, (row, (t, q)) in enumerate(zip(rows, expected_keys)):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} columns")
            continue
        try:
            values = dict(zip(header, (float(v) for v in row)))
        except ValueError:
            problems.append(f"row {i}: non-numeric entry {row}")
            continue
        if values["qbar"] != q or values["temperature_K"] != t:
            problems.append(f"row {i}: (qbar, T) = ({row[0]}, {row[1]}), expected ({q!r}, {t!r})")
            continue
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"row {i}: non-finite value {row}")
            continue
        gb, gl, gt = values["gamma_beliaev_s"], values["gamma_landau_s"], values["gamma_total_s"]
        if gb < 0.0 or gl < 0.0 or values["quad_err"] < 0.0 or not values["gamma_over_omega"] > 0.0:
            problems.append(f"row {i}: negative width or error {row}")
        if t == 0.0 and gl != 0.0:
            problems.append(f"row {i}: gamma_landau = {gl} at T = 0, expected exactly 0")
        if gt != gb + gl:
            problems.append(f"row {i}: gamma_total {gt!r} != beliaev + landau {gb + gl!r}")
        table[(q, t)] = values
        if len(problems) > 20:
            break

    for qbar, temperature, column, expected, rel in RATE_ANCHORS:
        values = table.get((qbar, temperature))
        if values is None:
            problems.append(f"anchor row (qbar={qbar}, T={temperature}) missing")
        elif not _rel_close(values[column], expected, rel):
            problems.append(
                f"anchor {column}(qbar={qbar}, T={temperature}) = {values[column]!r}, "
                f"expected {expected!r} within rel {rel}"
            )

    with open(os.path.join(out_dir, "rates.meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("qbar") != qbars or meta.get("temperature_K") != temps:
        problems.append("rates.meta.json grids differ from the config")
    if meta.get("channel") != "single_level":
        problems.append(f"rates.meta.json channel {meta.get('channel')!r}")
    return problems


# ---------------------------------------------------------------------------
# dynamics-long

#: Finite temperatures the seed chooses from; reference_dynamics.json holds
#: the output of the commit that added this benchmark at each of them.
DYNAMICS_TEMPERATURES = (1e-7, 1.5e-7, 2e-7, 3e-7, 4e-7, 5e-7, 7e-7, 1e-6)
DYNAMICS_T_MAX = 6e-3
DYNAMICS_DT = 1e-6
DYNAMICS_SAMPLES = 6001
#: The rate is computed to epsrel 1e-8 and the trajectory amplifies a rate
#: change about gamma*t_max ~ 10 times, so a correct rewrite of the rate or
#: the propagator stays well inside 1e-6; a physics change does not.
DYNAMICS_REL_TOL = 1e-6
DYNAMICS_ABS_TOL = 1e-12
#: Summary times pick one output sample by comparing neighbours, so a
#: roundoff-sized change may move them by one sample.
SAMPLE_TIME_KEYS = ("t_at_xi3_min_s", "crossing_time_s")
TRAJECTORY_HEADER = ["t_s", "n_a", "n_b_plus", "n_b_minus", "xi1", "xi2", "xi3", "depletion_valid"]
REFERENCE_PATH = os.path.join(HERE, "reference_dynamics.json")


def dynamics_long_config(seed: int) -> dict:
    temperature = random.Random(seed).choice(DYNAMICS_TEMPERATURES)
    return {
        "preset": "sodium-paper",
        "params": {"temperature_T": temperature},
        "drive": {"t_max": DYNAMICS_T_MAX, "dt_output": DYNAMICS_DT},
    }


def _optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


def _close_or_both_none(observed, expected) -> bool:
    if observed is None or expected is None:
        return observed is None and expected is None
    return _rel_close(observed, expected, DYNAMICS_REL_TOL, DYNAMICS_ABS_TOL)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_dynamics(config: dict, out_dir: str, reference: dict | None = None) -> list[str]:
    """Whole-trajectory invariants, then agreement with the reference rows."""
    problems: list[str] = []
    header, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    if header != TRAJECTORY_HEADER:
        return [f"trajectory.csv header {header} != {TRAJECTORY_HEADER}"]
    if len(rows) != DYNAMICS_SAMPLES:
        return [f"trajectory.csv has {len(rows)} rows, expected {DYNAMICS_SAMPLES}"]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} columns")
            continue
        try:
            t, n_a, n_bp, n_bm = (float(v) for v in row[:4])
            xi = [_optional_float(v) for v in row[4:7]]
        except ValueError:
            problems.append(f"row {i}: non-numeric entry {row}")
            continue
        if not _rel_close(t, i * DYNAMICS_DT, 1e-9):
            problems.append(f"row {i}: t = {t!r}, expected {i * DYNAMICS_DT!r}")
        if not all(math.isfinite(v) for v in (n_a, n_bp, n_bm)) or n_a < 0.0 or n_bp < 0.0 or n_bm < 0.0:
            problems.append(f"row {i}: bad occupation {row}")
        if row[4] != row[5]:
            problems.append(f"row {i}: xi1 {row[4]} != xi2 {row[5]}")
        if any(v is not None and not (math.isfinite(v) and v >= 0.0) for v in xi):
            problems.append(f"row {i}: bad squeezing value {row}")
        if row[7] not in ("true", "false"):
            problems.append(f"row {i}: depletion_valid {row[7]!r}")
        if len(problems) > 20:
            return problems

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    reference = reference if reference is not None else load_reference()
    key = repr(config["params"]["temperature_T"])
    ref = reference["temperatures"].get(key)
    if ref is None:
        return problems + [f"no reference trajectory for T = {key}"]
    if set(summary) != set(ref["summary"]):
        problems.append(f"summary.json keys {sorted(summary)} != {sorted(ref['summary'])}")
    for name, expected in ref["summary"].items():
        observed = summary.get(name)
        if isinstance(expected, str) or expected is None:
            ok = observed == expected
        elif name in SAMPLE_TIME_KEYS:
            ok = isinstance(observed, (int, float)) and abs(observed - expected) <= 1.01 * DYNAMICS_DT
        else:
            ok = isinstance(observed, (int, float)) and _close_or_both_none(observed, expected)
        if not ok:
            problems.append(f"summary.json {name} = {observed!r}, reference {expected!r}")
    for index, ref_row in zip(reference["rows"], ref["rows"]):
        row = rows[index]
        for column, (got, want) in enumerate(zip(row, ref_row)):
            name = TRAJECTORY_HEADER[column]
            if name == "depletion_valid":
                ok = got == want
            else:
                ok = _close_or_both_none(_optional_float(got), _optional_float(want))
            if not ok:
                problems.append(f"row {index} {name} = {got}, reference {want}")
    return problems


# ---------------------------------------------------------------------------
# oracle-all

ORACLE_VERDICTS = 53  # 5 markov + 48 wick


def check_oracle(config: dict | None, out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "oracle.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = []
    verdicts = payload.get("verdicts", [])
    if payload.get("suite") != "all":
        problems.append(f"suite {payload.get('suite')!r}, expected 'all'")
    if payload.get("all_pass") is not True:
        problems.append("all_pass is not true")
    if len(verdicts) != ORACLE_VERDICTS:
        problems.append(f"{len(verdicts)} verdicts, expected {ORACLE_VERDICTS}")
    failed = [v.get("name") for v in verdicts if v.get("pass") is not True]
    if failed:
        problems.append(f"failed verdicts: {failed}")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input generation, invocation and checks.

    `command` is the CLI argument list; "{config}" and "{out}" are filled
    in per run.  `setup_code` is what `setup_s` times in a cold
    interpreter: importing the CLI and resolving the same config, which
    it takes as its one argument when the workload has a config file.
    """

    name: str
    why: str
    make_config: Callable[[int], dict | None]
    command: list[str]
    setup_code: str
    check: Callable[[dict | None, str], list[str]]


_LOAD = "import sys; from quasidamp.cli import load_config; load_config(sys.argv[1])"
_DEFAULT = "from quasidamp.cli import default_config; default_config()"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rates-grid",
            "seeded (qbar, T) grid of 2016 points: decay_rate quadrature dominates the wall time",
            rates_grid_config,
            ["rates", "--config", "{config}", "--out", "{out}"],
            _LOAD,
            check_rates,
        ),
        Workload(
            "dynamics-long",
            "6001-sample damped squeezing trajectory: readout dominates, one rate point only",
            dynamics_long_config,
            ["dynamics", "--config", "{config}", "--out", "{out}"],
            _LOAD,
            check_dynamics,
        ),
        Workload(
            "oracle-all",
            "all 53 oracle verdicts: exact bath diagonalization dominates, largest memory",
            lambda seed: None,
            ["oracle", "--suite", "all", "--out", "{out}"],
            _DEFAULT,
            check_oracle,
        ),
    )
}
