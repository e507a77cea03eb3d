"""Run one quasidamp CLI command with span recorders around each layer.

    python3 perfbench/tracer.py STATS.json rates --config cfg.json --out DIR

Imports the package, replaces each traced public function with a wrapper
that records a span (name, start, end, parent) or a count, runs
`quasidamp.cli.main` on the remaining arguments, and writes per-span and
per-counter totals to STATS.json.  Nothing under src/ is changed: the
wrappers are installed on module globals (and one class attribute), in
every loaded quasidamp module that refers to the function, so calls
through either `from .x import f` or `x.f` are seen.  A function that no
longer exists is listed under "absent" instead of failing the run.

`model` functions are called inside the rate integrands ~1e5 times per
grid; wrapping them would distort the timings, so their cost shows up as
`rates.decay_rate` self time.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

#: (home module, attribute, span name).  Functions sharing a span name are
#: one layer; a span nested in a span of its own name adds no busy time.
SPANS = (
    ("quasidamp.cli", "load_config", "cli.load_config"),
    ("quasidamp.cli", "default_config", "cli.load_config"),
    ("quasidamp.cli", "cmd_rates", "cli.cmd"),
    ("quasidamp.cli", "cmd_dynamics", "cli.cmd"),
    ("quasidamp.cli", "cmd_oracle", "cli.cmd"),
    ("quasidamp.rates", "decay_rate", "rates.decay_rate"),
    ("quasidamp.dynamics", "run_squeezing", "dynamics.run_squeezing"),
    ("quasidamp.dynamics", "evolve_moments", "dynamics.evolve_moments"),
    ("quasidamp.dynamics", "occupations", "dynamics.readout"),
    ("quasidamp.dynamics", "squeezing_xi12", "dynamics.readout"),
    ("quasidamp.dynamics", "squeezing_xi3", "dynamics.readout"),
    ("quasidamp.oracle", "markov_suite", "oracle.markov_suite"),
    ("quasidamp.oracle", "integrate_discrete_bath", "oracle.integrate_discrete_bath"),
    ("quasidamp.oracle", "fit_decay_rate", "oracle.fit_decay_rate"),
    ("quasidamp.oracle", "wick_suite", "oracle.wick_suite"),
)


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attr]
        self.stack: list[int] = []
        self.active: Counter = Counter()  # span name -> open spans
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def span(self, name: str, fn, attr=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      attr(args, kwargs) if attr else None]
            spans.append(record)
            stack.append(index)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                record[2] = clock()

        return wrapper

    def inside(self, name: str) -> bool:
        return self.active[name] > 0


def _patch_everywhere(original, replacement) -> None:
    """Point every loaded quasidamp module's reference to `original` at
    `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "quasidamp" or mod_name.startswith("quasidamp.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return None


def _decay_rate_attr(args, kwargs):
    query = args[0] if args else kwargs.get("query")
    return "zero_T" if getattr(query, "temperature_T", None) == 0.0 else "thermal"


def _bath_attr(args, kwargs):
    bath = args[0] if args else kwargs.get("bath")
    return getattr(bath, "mode_count", 0) + 1  # decaying mode + bath modes


def install(rec: Recorder) -> None:
    importlib.import_module("quasidamp.cli")
    attrs = {"rates.decay_rate": _decay_rate_attr, "oracle.integrate_discrete_bath": _bath_attr}
    for module_name, attr, name in SPANS:
        fn = _resolve(module_name, attr)
        if fn is None:
            rec.absent.append(f"{module_name}.{attr}")
            continue
        _patch_everywhere(fn, rec.span(name, fn, attrs.get(name)))

    counts = rec.counts
    quad = _resolve("quasidamp.rates", "quad")
    if quad is None:
        rec.absent.append("quasidamp.rates.quad")
    else:
        def counted_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            counts["rates.quad.calls"] += 1
            if len(out) >= 3 and isinstance(out[2], dict):
                counts["rates.quad.neval"] += out[2].get("neval", 0)
            if len(out) > 3:  # full_output adds a message when quad gives up
                counts["rates.quad.failures"] += 1
            return out

        _patch_everywhere(quad, counted_quad)

    # Wick and moment-table checks: those run under run_squeezing are the
    # dynamics readout's use of the oracle, the rest belong to the oracle.
    wick = _resolve("quasidamp.oracle", "wick_fourth_moment")
    if wick is None:
        rec.absent.append("quasidamp.oracle.wick_fourth_moment")
    else:
        def counted_wick(*args, **kwargs):
            if rec.inside("dynamics.run_squeezing"):
                counts["dynamics.oracle_calls"] += 1
            return wick(*args, **kwargs)

        _patch_everywhere(wick, counted_wick)

    table = _resolve("quasidamp.oracle", "GaussianSecondMoments")
    check = getattr(table, "check", None)
    if check is None:
        rec.absent.append("quasidamp.oracle.GaussianSecondMoments.check")
    else:
        def counted_check(self):
            if rec.inside("dynamics.run_squeezing"):
                counts["dynamics.oracle_calls"] += 1
            else:
                counts["oracle.check.calls"] += 1
            return check(self)

        table.check = counted_check


def summarize(rec: Recorder) -> dict:
    """Per span name: calls, busy seconds (outermost spans of the name)
    and self seconds (duration minus direct children); plus counters."""
    spans = rec.spans
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    points = defaultdict(list)
    max_modes = 0
    for index, (name, start, end, parent, attr) in enumerate(spans):
        entry = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[index]
        if not _has_ancestor(spans, parent, name):
            entry["busy_s"] += end - start
        if name == "rates.decay_rate":
            points[attr].append(end - start)
        elif name == "oracle.integrate_discrete_bath":
            max_modes = max(max_modes, attr)
    return {
        "spans": table,
        "counts": dict(rec.counts),
        "point_s": {kind: statistics.median(v) for kind, v in points.items()},
        "max_modes": max_modes,
        "absent": rec.absent,
    }


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from quasidamp.cli import main as cli_main

    code = cli_main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(summarize(rec), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
