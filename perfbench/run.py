"""Cold-CLI benchmark of quasidamp.

    python3 perfbench/run.py --workload rates-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is taken from ./src
(nothing is installed).  One driver process starts cold
`python -m quasidamp ...` subprocesses one at a time: a closed loop with a
single client and no concurrency.  Each invocation is timed from spawn to
exit with its output files written, its peak memory is read from
os.wait4 for that child alone, and its outputs are checked.  No layer
queues work, so waiting time is zero by construction and is not reported.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one cold CLI invocation
  setup_s      median wall time of a cold interpreter that imports
               quasidamp.cli and resolves the workload's config
  peak_rss_mb  median peak resident memory of the CLI child
The report also gives the sample counts, fail_ratio (failed / attempted
invocations; an invocation fails on a nonzero exit or a failed output
check) and wall_s_tail (the highest percentile of wall_s with at least ten
samples beyond it; unresolved below eleven samples).

--trace 1 reports the per-layer metrics instead.  Each cycle runs the
setup code under `python -X importtime` for the import.* metrics, the same
CLI command under perfbench/tracer.py (span recorders around each layer's
public functions) and once untraced; trace.overhead_s is the difference
of the traced and untraced wall-time medians.  Deterministic counts must
repeat exactly across cycles.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Work files go to ./.perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 3  # setup_s samples per run, taken in the first cycles
MIN_CYCLES = 3  # end-to-end samples per run, at the least
MIN_TRACED_CYCLES = 2  # traced invocations per run, so counts are compared
TAIL_BEYOND = 10  # samples a tail percentile needs beyond it

#: Modules whose cumulative import time is reported, from -X importtime.
IMPORTS = {
    "import.quasidamp_cli_s": "quasidamp.cli",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.jsonschema_s": "jsonschema",
}

ENV_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy, quasidamp.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
    "nproc": len(os.sched_getaffinity(0)),
    "QUASIDAMP_THREADS": os.environ.get("QUASIDAMP_THREADS"),
    "quasidamp": quasidamp.cli.__file__,
}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    code: int
    log: str


@dataclass
class Invocation:
    child: Child
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.child.code == 0 and not self.problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("QUASIDAMP_THREADS", None)  # default: single-threaded rate sweep
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if env.get(var, "").isdigit() and int(env[var]) > nproc:
            env[var] = str(nproc)
    return env


def run_child(argv: list[str], log_path: str, env: dict[str, str]) -> Child:
    """Run one child to completion: wall time from spawn to exit, and the
    peak RSS of that child alone (wait4, not the RUSAGE_CHILDREN maximum)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    reaped = False
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        end = time.perf_counter()
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        if not reaped:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if not ready:
        code = -signal.SIGKILL
    return Child(end - start, usage.ru_maxrss / 1024.0, code, log_path)


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.dir = os.path.join(WORK, workload.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = child_env()
        self.config = workload.make_config(seed)
        self.config_path = None
        if self.config is not None:
            self.config_path = os.path.join(self.dir, "config.json")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                json.dump(self.config, fh, indent=1)
        self.out = os.path.join(self.dir, "out")
        self.cli_args = [
            arg.replace("{config}", self.config_path or "").replace("{out}", self.out)
            for arg in workload.command
        ]
        self.setup_argv = [sys.executable, "-c", workload.setup_code]
        if self.config_path is not None:
            self.setup_argv.append(self.config_path)

    def log(self, name: str) -> str:
        return os.path.join(self.dir, name + ".log")

    def environment(self) -> dict:
        """Record the run environment; also compiles the package's bytecode."""
        child = run_child([sys.executable, "-c", ENV_PROBE], self.log("env"), self.env)
        with open(child.log, encoding="utf-8") as fh:
            text = fh.read()
        if child.code != 0:
            raise BenchError(f"cannot import quasidamp from {ROOT}/src:\n{text}")
        env = json.loads(text.strip().splitlines()[-1])
        if not os.path.abspath(env["quasidamp"]).startswith(os.path.join(ROOT, "src") + os.sep):
            raise BenchError(f"quasidamp imported from {env['quasidamp']}, not from ./src")
        return env

    def setup(self) -> float:
        child = run_child(self.setup_argv, self.log("setup"), self.env)
        if child.code != 0:
            raise BenchError(f"setup probe failed, see {child.log}")
        return child.wall_s

    def import_times(self) -> dict[str, float]:
        argv = [sys.executable, "-X", "importtime"] + self.setup_argv[1:]
        child = run_child(argv, self.log("importtime"), self.env)
        if child.code != 0:
            raise BenchError(f"import probe failed, see {child.log}")
        cumulative = {}
        with open(child.log, encoding="utf-8") as fh:
            for line in fh:
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
                if m:
                    cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        # a module that is no longer imported costs nothing
        return {metric: cumulative.get(module, 0.0) for metric, module in IMPORTS.items()}

    def invoke(self, traced_stats: str | None = None) -> Invocation:
        shutil.rmtree(self.out, ignore_errors=True)
        if traced_stats is None:
            argv = [sys.executable, "-m", "quasidamp"] + self.cli_args
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), traced_stats] + self.cli_args
        child = run_child(argv, self.log("traced" if traced_stats else "cli"), self.env)
        if child.code != 0:
            return Invocation(child, [f"exit code {child.code}, see {child.log}"])
        try:
            problems = self.workload.check(self.config, self.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return Invocation(child, problems)

    def output_stats(self) -> tuple[int, int]:
        """(bytes written, trajectory rows) of the last invocation."""
        total = 0
        for name in os.listdir(self.out):
            total += os.path.getsize(os.path.join(self.out, name))
        rows = 0
        trajectory = os.path.join(self.out, "trajectory.csv")
        if os.path.exists(trajectory):
            with open(trajectory, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
        return total, rows


def closed_loop(seconds: float, min_cycles: int, cycle) -> None:
    """Run cycle(i) back to back until the next one would end past the
    deadline, and at least min_cycles times."""
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        t0 = time.perf_counter()
        cycle(i)
        i += 1
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if i >= min_cycles and now + longest > start + seconds:
            return


def tail(samples: list[float]) -> dict:
    """Highest percentile of the samples with TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return {"value": None, "percentile": None, "n": n}
    return {
        "value": sorted(samples)[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "n": n,
    }


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Invocation], dict]:
    setups: list[float] = []
    runs: list[Invocation] = []

    def cycle(i: int) -> None:
        if i < SETUP_PROBES:
            setups.append(bench.setup())
        runs.append(bench.invoke())

    closed_loop(seconds, MIN_CYCLES, cycle)
    walls = [r.child.wall_s for r in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(r.child.peak_rss_mb for r in runs), "MB", len(runs)),
    }
    extra = {
        "wall_s_tail": tail(walls),
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "peak_rss_mb_samples": [r.child.peak_rss_mb for r in runs],
    }
    return metrics, runs, extra


#: Counts that must repeat exactly from one traced invocation to the next.
DETERMINISTIC = (
    "rates.quad.calls",
    "rates.quad.neval",
    "dynamics.samples",
    "dynamics.oracle_calls",
    "oracle.check.calls",
    "cli.bytes_written",
)


def layer_metrics(stats: dict, bytes_written: int, samples: int) -> dict[str, tuple[float, str]]:
    spans, counts = stats["spans"], stats["counts"]

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    return {
        "cli.load_config_s": (busy("cli.load_config"), "s"),
        "cli.format_write_s": (spans.get("cli.cmd", {}).get("self_s", 0.0), "s"),
        "cli.bytes_written": (bytes_written, "count"),
        "rates.decay_rate.calls": (spans.get("rates.decay_rate", {}).get("calls", 0), "count"),
        "rates.decay_rate.busy_s": (busy("rates.decay_rate"), "s"),
        "rates.point_s.zero_T": (stats["point_s"].get("zero_T", 0.0), "s"),
        "rates.point_s.thermal": (stats["point_s"].get("thermal", 0.0), "s"),
        "rates.quad.calls": (counts.get("rates.quad.calls", 0), "count"),
        "rates.quad.neval": (counts.get("rates.quad.neval", 0), "count"),
        "rates.quad.failures": (counts.get("rates.quad.failures", 0), "count"),
        "dynamics.run_squeezing.busy_s": (busy("dynamics.run_squeezing"), "s"),
        "dynamics.evolve_moments.busy_s": (busy("dynamics.evolve_moments"), "s"),
        "dynamics.readout.busy_s": (busy("dynamics.readout"), "s"),
        "dynamics.samples": (samples, "count"),
        "dynamics.oracle_calls": (counts.get("dynamics.oracle_calls", 0), "count"),
        "oracle.markov_suite.busy_s": (busy("oracle.markov_suite"), "s"),
        "oracle.integrate_discrete_bath.busy_s": (busy("oracle.integrate_discrete_bath"), "s"),
        "oracle.integrate_discrete_bath.max_modes": (stats["max_modes"], "count"),
        "oracle.fit_decay_rate.busy_s": (busy("oracle.fit_decay_rate"), "s"),
        "oracle.wick_suite.busy_s": (busy("oracle.wick_suite"), "s"),
        "oracle.check.calls": (counts.get("oracle.check.calls", 0), "count"),
    }


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, list[Invocation], dict]:
    cycles: list[dict] = []
    runs: list[Invocation] = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    stats_path = os.path.join(bench.dir, "spans.json")
    problems: list[str] = []

    def cycle(i: int) -> None:
        imports = bench.import_times()
        traced = bench.invoke(traced_stats=stats_path)
        runs.append(traced)
        traced_walls.append(traced.child.wall_s)
        if traced.ok:
            with open(stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
            layers = {name: (value, "s") for name, value in imports.items()}
            layers.update(layer_metrics(stats, *bench.output_stats()))
            cycles.append({"layers": layers, "stats": stats})
        plain = bench.invoke()
        runs.append(plain)
        plain_walls.append(plain.child.wall_s)

    closed_loop(seconds, MIN_TRACED_CYCLES, cycle)
    if not cycles:
        return {}, runs, {"problems": ["no traced invocation succeeded"]}
    first = cycles[0]["layers"]
    for c in cycles[1:]:
        for name in DETERMINISTIC:
            if c["layers"][name][0] != first[name][0]:
                problems.append(f"{name} changed between traced runs: {first[name][0]} vs {c['layers'][name][0]}")
    metrics = {}
    for name, (value, unit) in first.items():
        values = [c["layers"][name][0] for c in cycles]
        metrics[name] = (statistics.median(values) if unit == "s" else value, unit, len(values))
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s", len(traced_walls))
    extra = {
        "problems": problems,
        "absent": cycles[0]["stats"]["absent"],
        "spans": cycles[0]["stats"]["spans"],
        "traced_wall_s_samples": traced_walls,
        "untraced_wall_s_samples": plain_walls,
    }
    return metrics, runs, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stop the current child (in run_child's finally) when asked to stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "quasidamp", "cli.py")):
        print(f"error: no quasidamp sources under {ROOT}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    try:
        bench = Bench(workload, args.seed)
        env = bench.environment()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, runs, extra = measure(bench, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [r for r in runs if not r.ok]
    problems = extra.get("problems", [])
    correct = not failed and not problems and bool(metrics)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, one cold CLI process at a time",
        "environment": env,
        "attempted": len(runs),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(runs),
        "failures": [r.problems[:5] for r in failed],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        **extra,
    }
    report_path = os.path.join(bench.dir, f"report-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print(f"  environment: {json.dumps(env)}")
    print(f"  closed loop, 1 client; {len(runs)} invocations, {len(failed)} failed "
          f"(fail_ratio {len(failed) / len(runs):.3g}); waiting time is 0 by construction")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:5s} (n={n})")
    if "wall_s_tail" in extra:
        t = extra["wall_s_tail"]
        text = (f"p{t['percentile']:.0f} = {t['value']:.6g} s" if t["value"] is not None
                else f"unresolved, needs more than {TAIL_BEYOND} samples")
        print(f"  {'wall_s_tail':42s} {text} (n={t['n']})")
    for name in extra.get("absent", []):
        print(f"  absent: {name} (its metrics read 0)")
    for r in failed[:3]:
        print(f"  FAILED: {r.problems[:3]}")
    for p in problems:
        print(f"  FAILED: {p}")
    print(f"  report: {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
