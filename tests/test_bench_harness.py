"""Smoke test of the cold-CLI benchmark harness in perfbench/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["oracle-all", "rates-grid", "dynamics-long"])
def test_harness_runs_workload(tmp_path, workload):
    # the harness's environment probe imports scipy
    pytest.importorskip("scipy")
    # run from a directory whose src is the checkout's, so the work files
    # land under tmp_path/.perfbench and not in the checkout; the harness
    # checks each output (for rates-grid its anchors and table invariants,
    # for dynamics-long the trajectory header, invariants and reference)
    (tmp_path / "src").symlink_to(CHECKOUT / "src", target_is_directory=True)
    out = subprocess.run(
        [
            sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert (tmp_path / ".perfbench" / workload).is_dir()
