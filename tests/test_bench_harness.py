"""Smoke test of the cold-CLI benchmark harness in perfbench/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]


def test_harness_runs_oracle_workload(tmp_path):
    # the harness's environment probe imports scipy
    pytest.importorskip("scipy")
    # run from a directory whose src is the checkout's, so the work files
    # land under tmp_path/.perfbench and not in the checkout
    (tmp_path / "src").symlink_to(CHECKOUT / "src", target_is_directory=True)
    out = subprocess.run(
        [
            sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
            "--workload", "oracle-all", "--seed", "1", "--seconds", "0", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert (tmp_path / ".perfbench" / "oracle-all").is_dir()
