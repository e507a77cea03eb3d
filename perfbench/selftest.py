"""Tests of the benchmark itself (about 30 s; not part of the package suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def _rewrite_csv(path: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def test_configs_repeat_per_seed_and_keep_anchors():
    assert workloads.rates_grid_config(7) == workloads.rates_grid_config(7)
    assert workloads.rates_grid_config(7) != workloads.rates_grid_config(8)
    reference = workloads.load_reference()
    for seed in range(20):
        rq = workloads.rates_grid_config(seed)["rate_query"]
        assert len(rq["qbar"]) == len(set(rq["qbar"])) == workloads.N_QBAR
        assert len(rq["temperature"]) == len(set(rq["temperature"])) == workloads.N_T
        assert set(workloads.ANCHOR_QBAR) <= set(rq["qbar"])
        assert set(workloads.ANCHOR_T) <= set(rq["temperature"])
        assert min(rq["qbar"]) == 0.02 and max(rq["qbar"]) < 10.0
        temperature = workloads.dynamics_long_config(seed)["params"]["temperature_T"]
        assert repr(temperature) in reference["temperatures"]


def test_rates_check_accepts_output_and_rejects_corruption():
    bench = run.Bench(workloads.WORKLOADS["rates-grid"], 0)
    # a small grid made of the anchor rows alone keeps this test fast
    bench.config["rate_query"]["qbar"] = list(workloads.ANCHOR_QBAR)
    bench.config["rate_query"]["temperature"] = list(workloads.ANCHOR_T)
    with open(bench.config_path, "w", encoding="utf-8") as fh:
        json.dump(bench.config, fh)
    result = bench.invoke()
    assert result.ok, result.problems
    csv_path = os.path.join(bench.out, "rates.csv")
    pristine = open(csv_path, encoding="utf-8").read()

    def corrupted(edit) -> list[str]:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(pristine)
        _rewrite_csv(csv_path, edit)
        return workloads.check_rates(bench.config, bench.out)

    def swap_rows(rows):
        rows[1], rows[2] = rows[2], rows[1]

    assert corrupted(lambda rows: rows.pop())  # a row missing
    assert corrupted(swap_rows)  # out of order
    def shift_anchor(rows):
        # gamma(5, 0) off by 1e-8 in both columns, so beliaev + landau still
        # equals the total: only the anchor, pinned to 1e-9, catches it
        shifted = repr(float(rows[4][4]) * (1 + 1e-8))
        rows[4][2] = rows[4][4] = shifted

    assert corrupted(shift_anchor)
    # nonzero Landau width at T = 0
    assert corrupted(lambda rows: rows[1].__setitem__(3, "1e-300"))
    assert corrupted(lambda rows: rows[5].__setitem__(2, "nan"))


def test_dynamics_check_accepts_output_and_rejects_corruption():
    bench = run.Bench(workloads.WORKLOADS["dynamics-long"], 3)
    result = bench.invoke()
    assert result.ok, result.problems
    csv_path = os.path.join(bench.out, "trajectory.csv")
    pristine = open(csv_path, encoding="utf-8").read()
    reference = workloads.load_reference()

    def corrupted(edit) -> list[str]:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(pristine)
        _rewrite_csv(csv_path, edit)
        return workloads.check_dynamics(bench.config, bench.out, reference)

    # 1e-5 off the reference at a reference row, and xi1 != xi2 anywhere
    assert corrupted(lambda rows: rows[2001].__setitem__(1, repr(float(rows[2001][1]) * (1 + 1e-5))))
    assert corrupted(lambda rows: rows[17].__setitem__(5, repr(float(rows[17][5]) + 1e-9)))
    assert corrupted(lambda rows: rows.pop())
    other = dict(bench.config, params={"temperature_T": 1e-6})
    assert workloads.check_dynamics(other, bench.out, reference)  # wrong temperature's reference


def test_oracle_check_needs_all_verdicts():
    out = os.path.join(run.WORK, "selftest-oracle")
    os.makedirs(out, exist_ok=True)
    verdict = {"name": "v", "expected": 1.0, "observed": 1.0, "tolerance": 0.0, "pass": True}
    payload = {"suite": "all", "all_pass": True, "verdicts": [verdict] * 53}
    with open(os.path.join(out, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert workloads.check_oracle(None, out) == []
    payload["verdicts"] = [verdict] * 52
    with open(os.path.join(out, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert workloads.check_oracle(None, out)
    shutil.rmtree(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    bench = run.Bench(workloads.WORKLOADS[name], 11)
    stats_path = os.path.join(bench.dir, "spans.json")
    layers = []
    for _ in range(2):
        result = bench.invoke(traced_stats=stats_path)
        assert result.ok, result.problems
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        assert stats["absent"] == []
        layers.append(run.layer_metrics(stats, *bench.output_stats()))
    for count in run.DETERMINISTIC:
        assert layers[0][count] == layers[1][count], count
    first = {k: v for k, (v, _) in layers[0].items()}
    if name == "rates-grid":
        assert first["rates.decay_rate.calls"] == workloads.N_QBAR * workloads.N_T
        assert first["rates.quad.calls"] > first["rates.decay_rate.calls"]
        assert first["rates.quad.failures"] == 0
        assert first["rates.point_s.zero_T"] > 0.0 and first["rates.point_s.thermal"] > 0.0
    elif name == "dynamics-long":
        assert first["dynamics.samples"] == workloads.DYNAMICS_SAMPLES
        assert first["dynamics.oracle_calls"] == 8 * workloads.DYNAMICS_SAMPLES
        assert first["rates.decay_rate.calls"] == 1
    else:
        assert first["oracle.check.calls"] == 48
        assert first["oracle.integrate_discrete_bath.max_modes"] == 2001
        assert first["dynamics.oracle_calls"] == 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_marks_missing_functions_absent():
    code = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import tracer\n"
        "import quasidamp.oracle as oracle; del oracle.fit_decay_rate\n"
        "rec = tracer.Recorder(); tracer.install(rec); print(json.dumps(tracer.summarize(rec)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    stats = json.loads(proc.stdout)
    assert stats["absent"] == ["quasidamp.oracle.fit_decay_rate"]
    layers = run.layer_metrics(stats, 0, 0)
    assert layers["oracle.fit_decay_rate.busy_s"] == (0.0, "s")
