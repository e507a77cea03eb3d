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
`dynamics` computes the single-level width only, so it rejects a
two-level config unless the damping rate is fixed by drive.gamma_override
or --no-damping.  The oracle is imported by the `oracle` command alone, and
its optional --config is read only for output.directory.

Exit codes: 0 success, 2 configuration or usage error (an output location
that cannot be created or written included), 3 runtime
(quadrature/integration) failure, 4 oracle check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import DriveConfig, IntegrationError, run_squeezing
from .model import (
    PRESETS,
    ParameterError,
    PhysicalParams,
    TwoLevelParams,
    bogoliubov_mode,
    derive_units,
    dispersion,
)
from .rates import Channel, QuadratureError, decay_rates


class ConfigError(ValueError):
    """Bad config file: parse failure, schema violation, or bad values."""


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"type": "string"},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scattering_length_a": _POSITIVE,
                "atomic_mass": _POSITIVE,
                "condensate_density_n0": _POSITIVE,
                "atom_count_N0": _POSITIVE,
                "temperature_T": _NONNEGATIVE,
                "a_bc": _POSITIVE,
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rabi_effective": _NONNEGATIVE,
                "qbar_recoil": _POSITIVE,
                "gamma_override": {
                    "anyOf": [{"type": "null"}, _NONNEGATIVE],
                },
                "t_max": _POSITIVE,
                "dt_output": _POSITIVE,
            },
        },
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

# the dataclasses' own defaults are taken from them, not restated
_DEFAULTS = {
    "params": {"temperature_T": PhysicalParams.temperature_T},
    "drive": {
        "rabi_effective": 1.0e3,
        "qbar_recoil": 5.0,
        **{
            field.name: field.default
            for field in dataclasses.fields(DriveConfig)
            if field.default is not dataclasses.MISSING
        },
    },
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
    return {k: v for k, v in vars(PRESETS[name]).items() if k != "two_level"}


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

    a_bc = values.pop("a_bc", None)
    try:
        params = PhysicalParams(
            **values, two_level=None if a_bc is None else TwoLevelParams(a_bc=a_bc)
        )
        drive = DriveConfig(**merged["drive"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    rq = merged["rate_query"]
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
    while parsing, before the schema sees them.
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
    if not isinstance(user, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(user).__name__}")
    return _resolve(user)


def default_config() -> RunConfig:
    """The sodium preset with stock grids (used when oracle runs configless)."""
    return _resolve({"preset": "sodium-paper"})


# ---------------------------------------------------------------------------
# deterministic writers


#: Rows formatted per chunk by _csv.  A writer holds one chunk's Python
#: floats and text at a time, so its memory does not grow with the table.
_CSV_CHUNK_ROWS = 1024


def _csv(columns: dict) -> Iterator[str]:
    """CSV text of equal-length columns, keyed by header name, in chunks.

    Yields the header line, then whole rows _CSV_CHUNK_ROWS at a time.
    Numbers print as %.17g with NaN as an empty field; boolean columns
    print as true/false.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    row = ",".join("%s" if a.dtype == bool else "%.17g" for a in arrays) + "\n"
    yield ",".join(columns) + "\n"
    for start in range(0, len(arrays[0]), _CSV_CHUNK_ROWS):
        values = [
            np.where(part, "true", "false").tolist() if part.dtype == bool
            else part.astype(float).tolist()
            for part in (a[start:start + _CSV_CHUNK_ROWS] for a in arrays)
        ]
        body = "".join([row % fields for fields in zip(*values)])
        # "nan" can only be a whole field: the others are numbers or true/false
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
        os.makedirs(out_dir, exist_ok=True)
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
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_rates(cfg: RunConfig, out_dir: str) -> int:
    """rates.csv + rates.meta.json over the (temperature, qbar) grid."""
    units = derive_units(cfg.params)
    qbar, temperature = cfg.qbar_grid, cfg.temperature_grid
    rates = decay_rates(cfg.params, cfg.channel, qbar, temperature)
    omega = np.array([dispersion(q) * units.omega0 for q in qbar])
    table = {
        "qbar": np.tile(qbar, len(temperature)),
        "temperature_K": np.repeat(temperature, len(qbar)),
        "gamma_beliaev_s": rates.gamma_beliaev.ravel(),
        "gamma_landau_s": rates.gamma_landau.ravel(),
        "gamma_total_s": rates.gamma_total.ravel(),
        "gamma_over_omega": (rates.gamma_total / omega).ravel(),
        "quad_err": rates.quadrature_error_estimate.ravel(),
    }
    meta = {
        "version": __version__,
        "preset": cfg.preset,
        "channel": cfg.channel.value,
        "qbar": list(cfg.qbar_grid),
        "temperature_K": list(cfg.temperature_grid),
        "units": {"k0_m^-1": units.k0, "omega0_s^-1": units.omega0},
        "config": cfg.resolved,
    }
    _emit(out_dir, {"rates.csv": _csv(table), "rates.meta.json": _json(meta)})
    return 0


def cmd_dynamics(cfg: RunConfig, out_dir: str, no_damping: bool = False) -> int:
    """trajectory.csv + summary.json for the configured drive."""
    drive = cfg.drive
    if no_damping:
        drive = dataclasses.replace(drive, gamma_override=0.0)
    if cfg.channel is Channel.TWO_LEVEL and drive.gamma_override is None:
        raise ConfigError(
            "dynamics computes the single-level width only; with rate_query.channel "
            "two_level set drive.gamma_override or pass --no-damping"
        )
    run = run_squeezing(cfg.params, drive)
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
        "rabi_effective_s": drive.rabi_effective,
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
    units = derive_units(cfg.params)
    modes = [bogoliubov_mode(kbar) for kbar in cfg.qbar_grid]
    omega_s = [m.omega_bar * units.omega0 for m in modes]
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

    commands = {}
    for name, summary, needs_config in (
        ("rates", "decay-rate table over a momentum/temperature grid", True),
        ("dynamics", "damped squeezing trajectory", True),
        ("oracle", "run numerical cross-checks", False),
        ("spectrum", "Bogoliubov mode table", True),
    ):
        commands[name] = command = sub.add_parser(name, help=summary)
        command.add_argument(
            "--config",
            required=needs_config,
            help="JSON config file" if needs_config else "JSON config file (optional)",
        )
        command.add_argument("--out", help="output directory (overrides config)")

    commands["dynamics"].add_argument(
        "--no-damping",
        action="store_true",
        help="force the damping rate to zero (unitary pair creation)",
    )
    commands["oracle"].add_argument(
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

    try:
        cfg = default_config() if args.config is None else load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.output_dir

        if args.command == "rates":
            return cmd_rates(cfg, out_dir)
        if args.command == "dynamics":
            return cmd_dynamics(cfg, out_dir, no_damping=args.no_damping)
        if args.command == "oracle":
            return cmd_oracle(args.suite, out_dir)
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
