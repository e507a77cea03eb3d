"""Command-line front end.

Subcommands:

    rates     decay-rate table over a (temperature, momentum) grid
    dynamics  damped squeezing trajectory and summary
    oracle    self-contained numerical cross-checks, pass/fail verdicts
    spectrum  Bogoliubov mode table on the configured momentum grid

All input comes from a JSON config file validated against a closed schema
(unknown keys are rejected) by a small stdlib walker over SCHEMA.  Output
files are deterministic: fixed column orders, numbers printed with %.17g
(an undefined squeezing parameter as an empty field), LF line endings, no
timestamps.
The schema's params and drive sections are read off the fields of
`PhysicalParams` and `DriveConfig`, which hold each field's domain and
default.  `dynamics` computes the single-level width only, so it rejects a
two-level config unless drive.gamma_override fixes the damping rate.  The
oracle runs on fixed inputs and reads no config.

Config resolution, --help, --version and usage errors use `model` and the
standard library alone, so they load no numpy.  `main` imports the
numerical module of the command that runs, before it reads the config:
`rates`, `dynamics` (which uses `rates`) or `oracle`, which loads neither of
the other two.  `spectrum` loads numpy only to format its table.

Exit codes: 0 success, 2 configuration or usage error (an output location
that cannot be created or written included), 3 runtime
(quadrature/integration) failure, 4 oracle check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import __version__
from .model import (
    MAX_RATE_POINTS,
    NONNEGATIVE,
    POSITIVE,
    PRESETS,
    Channel,
    DriveConfig,
    IntegrationError,
    ParameterError,
    PhysicalParams,
    QuadratureError,
    bogoliubov_mode,
)


class ConfigError(ValueError):
    """Bad config file: parse failure, schema violation, or bad values."""


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}


def _section(cls) -> dict:
    """The closed schema of a dataclass's fields, from their domains; a
    field whose default is None may also be null."""
    atoms = {POSITIVE["domain"]: _POSITIVE, NONNEGATIVE["domain"]: _NONNEGATIVE}
    properties = {}
    for spec in dataclasses.fields(cls):
        atom = atoms[spec.metadata["domain"]]
        properties[spec.name] = {"anyOf": [{"type": "null"}, atom]} if spec.default is None else atom
    return {"type": "object", "additionalProperties": False, "properties": properties}


SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"type": "string"},
        "params": _section(PhysicalParams),
        "drive": _section(DriveConfig),
        "rate_query": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "qbar": {
                    "type": "array",
                    "items": _POSITIVE,
                    "minItems": 1,
                },
                "temperature": {
                    "type": "array",
                    "items": _NONNEGATIVE,
                    "minItems": 1,
                },
                "channel": {"enum": ["single_level", "two_level"]},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
            },
        },
    },
}


def _field_defaults(cls) -> dict:
    return {
        spec.name: spec.default
        for spec in dataclasses.fields(cls)
        if spec.default is not dataclasses.MISSING
    }


# the dataclasses' own defaults are taken from them, not restated
_DEFAULTS = {
    "params": _field_defaults(PhysicalParams),
    "drive": _field_defaults(DriveConfig),
    "rate_query": {
        "qbar": [0.02, 0.05, 0.1, 5.0],
        "temperature": [0.0],
        "channel": "single_level",
    },
    "output": {"directory": "out"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved run settings (defaults and preset already merged)."""

    preset: str | None
    params: PhysicalParams
    drive: DriveConfig
    qbar_grid: tuple[float, ...]
    temperature_grid: tuple[float, ...]
    channel: Channel
    output_dir: str
    resolved: dict


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _preset_params(name: str) -> dict:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r} (known presets: {known})")
    return dataclasses.asdict(PRESETS[name])


_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "null": type(None),
}


def _violation(value, schema: dict, path: str = "$") -> tuple[str, str] | None:
    """The first (path, message) at which value breaks schema, else None.

    Walks exactly the JSON Schema keywords SCHEMA uses, with their standard
    meaning (a bool is not a number); paths are JSON paths such as
    $.rate_query.qbar[0], and an unknown key is reported at its object.
    """
    if "anyOf" in schema:
        if all(_violation(value, sub, path) for sub in schema["anyOf"]):
            return path, f"{value!r} is not valid under any of the given schemas"
        return None
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    kind = schema.get("type")
    if kind is not None and (
        not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) and kind == "number"
    ):
        return path, f"{value!r} is not of type {kind!r}"
    if "minimum" in schema and value < schema["minimum"]:
        return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        return path, (
            f"{value!r} is less than or equal to the minimum of {schema['exclusiveMinimum']!r}"
        )
    if kind == "object":
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key not in properties:
                if schema.get("additionalProperties", True) is False:
                    return path, f"additional properties are not allowed ({key!r} was unexpected)"
            elif found := _violation(item, properties[key], f"{path}.{key}"):
                return found
    if kind == "array":
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} has fewer than {schema['minItems']} items"
        for i, item in enumerate(value):
            if found := _violation(item, schema["items"], f"{path}[{i}]"):
                return found
    return None


def _resolve(user: dict) -> RunConfig:
    found = _violation(user, SCHEMA)
    if found:
        path, message = found
        raise ConfigError(f"config {path}: {message}")

    preset = user.get("preset")
    base = {"params": _preset_params(preset)} if preset is not None else {}
    user = {k: v for k, v in user.items() if k != "preset"}
    merged = _deep_merge(_deep_merge(_DEFAULTS, base), user)

    values = dict(merged["params"])
    for field in dataclasses.fields(PhysicalParams):
        if field.default is dataclasses.MISSING and field.name not in values:
            raise ConfigError(f"params.{field.name} is required (no preset supplies it)")

    try:
        params = PhysicalParams(**values)
        drive = DriveConfig(**merged["drive"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    rq = merged["rate_query"]
    points = len(rq["qbar"]) * len(rq["temperature"])
    if points > MAX_RATE_POINTS:
        raise ConfigError(
            f"rate_query grid of {len(rq['qbar'])} qbar x {len(rq['temperature'])} "
            f"temperature values = {points} points exceeds the limit of {MAX_RATE_POINTS}"
        )
    return RunConfig(
        preset=preset,
        params=params,
        drive=drive,
        qbar_grid=tuple(sorted(rq["qbar"])),
        temperature_grid=tuple(sorted(rq["temperature"])),
        channel=Channel(rq["channel"]),
        output_dir=merged["output"]["directory"],
        resolved={"preset": preset, **merged},
    )


def _reject_constant(token: str):
    raise ConfigError(f"non-finite number {token} in config (numbers must be finite)")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text[:20]} in config overflows a double")
    return value + 0.0  # -0.0 is the number 0


def _finite_int(text: str) -> int:
    _finite_float(text)
    return int(text)


def load_config(path: str) -> RunConfig:
    """Parse, validate, and resolve a JSON config file.

    NaN/Infinity tokens and literals too large for a double are rejected
    while parsing, before the schema sees them.  Any file that is not a
    valid config, whatever its bytes, raises ConfigError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(
                fh,
                parse_constant=_reject_constant,
                parse_float=_finite_float,
                parse_int=_finite_int,
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests arrays or objects too deeply") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(user).__name__}")
    return _resolve(user)


def default_config() -> RunConfig:
    """The sodium preset with stock grids and defaults."""
    return _resolve({"preset": "sodium-paper"})


# ---------------------------------------------------------------------------
# deterministic writers


#: Rows formatted per chunk by _csv.  A writer holds one chunk's Python
#: floats and text at a time, so its memory does not grow with the table;
#: 512 rows hold about half the transient memory of 1024 at the same
#: formatting speed; a 2016-row table takes 4 chunks.
_CSV_CHUNK_ROWS = 512


def _csv(columns: dict) -> Iterator[str]:
    """CSV text of equal-length columns, keyed by header name, in chunks.

    Yields the header line, then whole rows _CSV_CHUNK_ROWS at a time.
    Numbers print as %.17g with NaN as an empty field; boolean columns
    print as true/false.  A text column, a list of str, holds numbers its
    caller has already formatted with %.17g and prints as is: a column that
    repeats a few values formats each of them once.
    """
    import numpy as np

    arrays = [
        column if isinstance(column, list) and all(isinstance(v, str) for v in column[:1])
        else np.asarray(column)
        for column in columns.values()
    ]
    row = ",".join(
        "%.17g" if isinstance(a, np.ndarray) and a.dtype != bool else "%s" for a in arrays
    ) + "\n"
    yield ",".join(columns) + "\n"
    for start in range(0, len(arrays[0]), _CSV_CHUNK_ROWS):
        values = [
            part if isinstance(part, list)
            else np.where(part, "true", "false").tolist() if part.dtype == bool
            else part.astype(float).tolist()
            for part in (a[start:start + _CSV_CHUNK_ROWS] for a in arrays)
        ]
        body = "".join([row % fields for fields in zip(*values)])
        # "nan" can only be a whole field: the others are numbers or true/false
        # (text columns are numbers too)
        yield body.replace("nan", "")


def _json(payload: dict) -> tuple[str]:
    """JSON text of payload as a single chunk."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n",)


def _emit(out_dir: str, files: dict[str, Iterable[str]]) -> None:
    """Write all files or none, then print each path.

    Each file is written chunk by chunk as its iterable yields text.  A file
    is removed on failure from the moment its open has truncated it, so an
    error or interrupt while a chunk is made or written leaves no partial
    output; an output location that cannot be created or written is a
    ConfigError.
    """
    written: list[str] = []
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except ValueError as exc:  # a NUL or lone surrogate, which no path can hold
            raise OSError(str(exc)) from exc
        for name, chunks in files.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                written.append(path)
                fh.writelines(chunks)
    except BaseException as exc:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output to {out_dir!r}: {exc.strerror or exc}") from exc
        raise
    for path in written:
        line = f"wrote {path}"
        try:
            print(line)
        except UnicodeEncodeError:  # escape what stdout cannot encode, as stderr does
            print(line.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))


# ---------------------------------------------------------------------------
# subcommands


def cmd_rates(cfg: RunConfig, out_dir: str) -> int:
    """rates.csv + rates.meta.json over the (temperature, qbar) grid."""
    from . import rates

    qbar, temperature = cfg.qbar_grid, cfg.temperature_grid
    grid = rates.decay_rates(cfg.params, cfg.channel, qbar, temperature)
    # the axes repeat their values across the grid: each is formatted once
    qbar_text = ["%.17g" % q for q in qbar]
    temperature_text = ["%.17g" % t for t in temperature]
    table = {
        "qbar": qbar_text * len(temperature),
        "temperature_K": [text for text in temperature_text for _ in qbar],
        "gamma_beliaev_s": grid.gamma_beliaev.ravel(),
        "gamma_landau_s": grid.gamma_landau.ravel(),
        "gamma_total_s": grid.gamma_total.ravel(),
        "gamma_over_omega": grid.gamma_over_omega.ravel(),
        "quad_err": grid.quadrature_error_estimate.ravel(),
    }
    meta = {
        "version": __version__,
        "preset": cfg.preset,
        "channel": cfg.channel.value,
        "qbar": list(cfg.qbar_grid),
        "temperature_K": list(cfg.temperature_grid),
        "units": {"k0_m^-1": cfg.params.k0, "omega0_s^-1": cfg.params.omega0},
        "config": cfg.resolved,
    }
    _emit(out_dir, {"rates.csv": _csv(table), "rates.meta.json": _json(meta)})
    return 0


def cmd_dynamics(cfg: RunConfig, out_dir: str) -> int:
    """trajectory.csv + summary.json for the configured drive."""
    import numpy as np

    from . import dynamics

    if cfg.channel is Channel.TWO_LEVEL and cfg.drive.gamma_override is None:
        raise ConfigError(
            "dynamics computes the single-level width only; with rate_query.channel "
            "two_level set drive.gamma_override"
        )
    run = dynamics.run_squeezing(cfg.params, cfg.drive)
    r = run.readout

    # nanargmin and argmax take the first minimum and the first crossing
    xi3_min = t_at_min = crossing = None
    if not np.isnan(r.xi3).all():
        i = int(np.nanargmin(r.xi3))
        xi3_min, t_at_min = float(r.xi3[i]), float(run.t[i])
    crossed = r.n_a >= r.n_b_plus
    if crossed.any():
        crossing = float(run.t[crossed.argmax()])

    summary = {
        "gamma_used_s": run.gamma_used,
        "xi3_min": xi3_min,
        "t_at_xi3_min_s": t_at_min,
        "crossing_time_s": crossing,
        "preset": cfg.preset,
        "rabi_effective_s": cfg.drive.rabi_effective,
    }
    files = {
        "trajectory.csv": _csv({
            "t_s": run.t,
            "n_a": r.n_a,
            "n_b_plus": r.n_b_plus,
            "n_b_minus": r.n_b_minus,
            "xi1": r.xi12,
            "xi2": r.xi12,
            "xi3": r.xi3,
            "depletion_valid": run.depletion_valid,
        }),
        "summary.json": _json(summary),
    }
    _emit(out_dir, files)
    return 0


#: --suite choices, each a sequence of quasidamp.oracle suite functions
_ORACLE_SUITES = {
    "markov": ("markov_suite",),
    "wick": ("wick_suite",),
    "all": ("markov_suite", "wick_suite"),
}


def cmd_oracle(suite: str, out_dir: str) -> int:
    """oracle.json with one verdict per cross-check; exit 4 on any failure."""
    from . import oracle

    verdicts = [v for name in _ORACLE_SUITES[suite] for v in getattr(oracle, name)()]
    all_pass = all(v.passed for v in verdicts)
    payload = {
        "suite": suite,
        "all_pass": all_pass,
        "verdicts": [v.as_record() for v in verdicts],
    }
    _emit(out_dir, {"oracle.json": _json(payload)})
    if not all_pass:
        failed = [v.name for v in verdicts if not v.passed]
        print(f"oracle checks failed: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


def cmd_spectrum(cfg: RunConfig, out_dir: str) -> int:
    """spectrum.csv: Bogoliubov mode table on the configured qbar grid."""
    omega0 = cfg.params.omega0
    modes = [bogoliubov_mode(kbar) for kbar in cfg.qbar_grid]
    omega_s = [m.omega_bar * omega0 for m in modes]
    for kbar, omega in zip(cfg.qbar_grid, omega_s):
        if omega == math.inf:
            raise ParameterError(f"mode frequency overflows at qbar = {kbar:.3g}")
    table = {
        "kbar": cfg.qbar_grid,
        "alpha": [m.alpha for m in modes],
        "u": [m.u for m in modes],
        "v": [m.v for m in modes],
        "omega_bar": [m.omega_bar for m in modes],
        "omega_s": omega_s,
    }
    _emit(out_dir, {"spectrum.csv": _csv(table)})
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasidamp",
        description="Collisional quasiparticle damping and number squeezing in a BEC.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (
        ("rates", "decay-rate table over a momentum/temperature grid"),
        ("dynamics", "damped squeezing trajectory"),
        ("spectrum", "Bogoliubov mode table"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", required=True, help="JSON config file")
        command.add_argument("--out", help="output directory (overrides config)")

    oracle = sub.add_parser("oracle", help="run numerical cross-checks on fixed inputs")
    oracle.add_argument("--out", default="out", help="output directory")
    oracle.add_argument(
        "--suite",
        choices=_ORACLE_SUITES,
        default="all",
        help="which cross-check suite to run",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return 0 if exc.code in (0, None) else 2

    if args.command in ("rates", "dynamics", "oracle"):
        # before the config is read: after it, rates-grid peak RSS rose 0.4 MB (heap layout)
        importlib.import_module(f".{args.command}", __package__)

    try:
        if args.command == "oracle":
            return cmd_oracle(args.suite, args.out)
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.output_dir

        if args.command == "rates":
            return cmd_rates(cfg, out_dir)
        if args.command == "dynamics":
            return cmd_dynamics(cfg, out_dir)
        return cmd_spectrum(cfg, out_dir)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(
            f"quadrature failure: {exc} "
            f"(partial rate {exc.partial_rate_s:.6g} s^-1, "
            f"error estimate {exc.error_estimate_s:.6g} s^-1)",
            file=sys.stderr,
        )
        return 3
    except IntegrationError as exc:
        print(
            f"integration failure: {exc} (last valid state at t = {exc.last_valid.t:.6g} s)",
            file=sys.stderr,
        )
        return 3


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
