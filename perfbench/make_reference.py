"""Write reference_dynamics.json, the dynamics-long reference trajectories.

    python3 perfbench/make_reference.py

Run from the repository root.  It runs `python -m quasidamp dynamics` at
each temperature the dynamics-long workload can choose and keeps
summary.json and every REFERENCE_STRIDE-th trajectory row as printed.  The
committed file was made at the commit that added the benchmark; later
commits are checked against it, so regenerate it only when a change to
the physics is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads

REFERENCE_STRIDE = 200  # rows 0, 200, ..., 6000


def main() -> int:
    work = os.path.join(".perfbench", "reference")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("QUASIDAMP_THREADS", None)
    rows = list(range(0, workloads.DYNAMICS_SAMPLES, REFERENCE_STRIDE))
    temperatures = {}
    for temperature in workloads.DYNAMICS_TEMPERATURES:
        config = workloads.dynamics_long_config(0)
        config["params"]["temperature_T"] = temperature
        config_path = os.path.join(work, "config.json")
        out_dir = os.path.join(work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        subprocess.run(
            [sys.executable, "-m", "quasidamp", "dynamics", "--config", config_path, "--out", out_dir],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        _, trajectory = workloads._read_csv(os.path.join(out_dir, "trajectory.csv"))
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        temperatures[repr(temperature)] = {
            "summary": summary,
            "rows": [trajectory[i] for i in rows],
        }
    shutil.rmtree(work)
    payload = {"header": workloads.TRAJECTORY_HEADER, "rows": rows, "temperatures": temperatures}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
