"""Config loading, subcommands, file formats, and exit codes."""

import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quasidamp
from quasidamp import dynamics, rates
from quasidamp.cli import (
    SCHEMA,
    _CSV_CHUNK_ROWS,
    ConfigError,
    RunConfig,
    _csv,
    _emit,
    _violation,
    build_parser,
    default_config,
    load_config,
    main,
)
from quasidamp.dynamics import Readout, SqueezingRun
from quasidamp.model import (
    MAX_OUTPUT_STEPS,
    MAX_RATE_POINTS,
    POSITIVE,
    PRESETS,
    DriveConfig,
    ParameterError,
    PhysicalParams,
    bogoliubov_mode,
    checked_field,
)
from quasidamp import oracle
from quasidamp.oracle import Verdict
from quasidamp.rates import Channel, QuadratureError, decay_rates


def write_config(tmp_path, name="config.json", **body):
    payload = {"preset": "sodium-paper", **body}
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_preset_expansion(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.params.k0 == pytest.approx(2.65e6, rel=2e-3)
    assert cfg.preset == "sodium-paper"
    assert cfg.params.atom_count_N0 == pytest.approx(1e6)


def test_defaults_applied(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.drive.rabi_effective == 1.0e3
    assert cfg.drive.qbar_recoil == 5.0
    assert cfg.drive.gamma_override is None
    assert cfg.qbar_grid == (0.02, 0.05, 0.1, 5.0)
    assert cfg.temperature_grid == (0.0,)
    assert cfg.channel is Channel.SINGLE_LEVEL


@pytest.mark.parametrize("command", [
    ["rates", "--config", "c.json"], ["dynamics", "--config", "c.json"],
    ["spectrum", "--config", "c.json"], ["oracle"],
])
def test_out_is_the_one_output_location(command):
    assert build_parser().parse_args(command).out == "out"


def test_partial_override_keeps_other_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, drive={"t_max": 1e-3}))
    assert cfg.drive.t_max == 1e-3
    assert cfg.drive.rabi_effective == 1.0e3  # untouched default


def test_param_override_on_preset(tmp_path):
    cfg = load_config(write_config(tmp_path, params={"temperature_T": 1e-6}))
    assert cfg.params.temperature_T == 1e-6
    assert cfg.params.scattering_length_a == pytest.approx(2.8e-9)


def test_interspecies_coupling_enables_two_level(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            params={"a_bc": 2.8e-9},
            rate_query={"channel": "two_level"},
        )
    )
    assert cfg.channel is Channel.TWO_LEVEL
    assert cfg.params.bc_scattering_length == 2.8e-9


def test_grids_are_sorted(tmp_path):
    cfg = load_config(
        write_config(tmp_path, rate_query={"qbar": [5.0, 0.05], "temperature": [1e-6, 0.0]})
    )
    assert cfg.qbar_grid == (0.05, 5.0)
    assert cfg.temperature_grid == (0.0, 1e-6)


def test_unknown_preset(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": "rubidium"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(str(path))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="frequency"):
        load_config(write_config(tmp_path, frequency=2.0))


def test_schema_violation_names_offending_key(tmp_path):
    with pytest.raises(ConfigError, match=r"rate_query\.qbar"):
        load_config(write_config(tmp_path, rate_query={"qbar": [-1.0]}))


def test_inconsistent_params_rejected(tmp_path, capsys):
    # the density can be overridden alone: no volume ties it to the atom count
    cfg = load_config(write_config(tmp_path, params={"condensate_density_n0": 2e20}))
    assert cfg.params.condensate_density_n0 == 2e20
    assert cfg.params.atom_count_N0 == PRESETS["sodium-paper"].atom_count_N0
    # and a volume is not a parameter
    path = write_config(tmp_path, params={"volume_V": 1e-14})
    assert main(["rates", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config $.params: ") and "'volume_V'" in err
    assert err.count("\n") == 1


#: every PhysicalParams field without a default, at the sodium-paper values
_FULL_PARAMS = {
    "scattering_length_a": 2.8e-9,
    "atomic_mass": 3.8175e-26,
    "condensate_density_n0": 1e20,
    "atom_count_N0": 1e6,
}


@pytest.mark.parametrize("key", list(_FULL_PARAMS))
def test_missing_params_without_preset(tmp_path, key):
    params = {k: v for k, v in _FULL_PARAMS.items() if k != key}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"params": params}), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^params\.{key} is required"):
        load_config(str(path))


def test_full_params_without_preset_match_preset(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"params": _FULL_PARAMS}), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.preset is None
    assert cfg.params == PRESETS["sodium-paper"]
    out = tmp_path / "out"
    assert main(["rates", "--config", str(path), "--out", str(out)]) == 0
    meta = json.loads((out / "rates.meta.json").read_text(encoding="utf-8"))
    assert meta["config"]["params"] == {**_FULL_PARAMS, "temperature_T": 0.0, "a_bc": None}


def test_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


def test_json_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "preset": "sodium-paper",\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(path))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/config.json")


@pytest.mark.parametrize("raw, message", [
    (b"\xff\xfe{}", "is not UTF-8 text"),
    (b"[" * 200_000 + b"]" * 200_000, "nests arrays or objects too deeply"),
], ids=["non_utf8", "nested_200000_deep"])
def test_unparseable_file_exits_2_with_one_line(tmp_path, capsys, raw, message):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    assert main(["dynamics", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_CONFIG_KEYS = sorted({
    key for section in SCHEMA["properties"].values() for key in section.get("properties", {})
} | set(SCHEMA["properties"]))

_JSON_TREE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["sodium-paper", "single_level", "two_level"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | st.one_of(
    _JSON_TREE, st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_TREE, max_size=4)
).map(lambda tree: json.dumps(tree).encode()))
def test_load_config_never_crashes(raw):
    # whatever a file holds, load_config returns a RunConfig or raises ConfigError
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            assert isinstance(load_config(path), RunConfig)
        except ConfigError:
            pass


def test_default_config_matches_preset(tmp_path):
    assert default_config() == load_config(write_config(tmp_path))


def test_unread_keys_rejected(tmp_path):
    # drive.rabi_bare and output.format were accepted but never read; the
    # output section named a directory that --out also named
    with pytest.raises(ConfigError, match="rabi_bare"):
        load_config(write_config(tmp_path, drive={"rabi_bare": 1.0}))
    with pytest.raises(ConfigError, match="'output' was unexpected"):
        load_config(write_config(tmp_path, output={"directory": "out"}))


#: Schema violations, at least one of each kind the schema can report.
_SCHEMA_INVALID_CONFIGS = [
    {"params": {"atomic_mass": True}},  # a bool is not a number
    {"drive": {"t_max": False}},
    {"rate_query": {"temperature": [0.0, True]}},
    {"preset": 5},
    {"params": "sodium"},  # a string for an object
    {"rate_query": {"qbar": 0.5}},
    {"params": {"atom_count_N0": -1.0}},  # positive fields
    {"drive": {"qbar_recoil": 0}},
    {"rate_query": {"qbar": [0.5, 0.0]}},
    {"params": {"temperature_T": -1e-9}},  # non-negative fields
    {"drive": {"rabi_effective": -1}},
    {"rate_query": {"qbar": []}},
    {"frequency": 2.0},  # an unknown key at each level
    {"params": {"frequency": 2.0}},
    {"drive": {"rabi_bare": 1.0}},
    {"rate_query": {"step": 1}},
    {"output": {"format": "csv"}},
    {"rate_query": {"channel": "three_level"}},
    {"rate_query": {"channel": 1}},
    {"drive": {"gamma_override": "fast"}},
    {"drive": {"gamma_override": -1.0}},
    {"drive": {"gamma_override": True}},
    {"preset": "sodium-paper", "drive": {"t_max": 0, "dt_output": "x"}},
]


@pytest.fixture(scope="module")
def jsonschema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(SCHEMA)


def assert_walker_agrees(validator, config):
    """The walker accepts exactly what jsonschema accepts, and the path it
    reports is one of jsonschema's error paths."""
    errors = list(validator.iter_errors(config))
    paths = set()
    while errors:
        error = errors.pop()
        paths.add(error.json_path)
        errors.extend(error.context)
    found = _violation(config, SCHEMA)
    assert (found is None) == (not paths)
    if found is not None:
        assert found[0] in paths


@pytest.mark.parametrize("config", _SCHEMA_INVALID_CONFIGS)
def test_schema_walker_matches_jsonschema_on_violations(jsonschema_validator, config):
    assert _violation(config, SCHEMA) is not None
    assert_walker_agrees(jsonschema_validator, config)


@pytest.mark.parametrize("config", _SCHEMA_INVALID_CONFIGS)
def test_schema_violation_exits_2_with_one_line(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["rates", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config $") and err.count("\n") == 1


@pytest.mark.parametrize("value", [0, -0.0, 5e-324, -5e-324, 1e308])
@pytest.mark.parametrize("section, spec", [
    pytest.param(section, spec, id=f"{section}.{spec.name}")
    for section, cls in (("params", PhysicalParams), ("drive", DriveConfig))
    for spec in dataclasses.fields(cls)
])
def test_schema_and_dataclass_agree_on_field_domains(section, spec, value):
    try:
        checked_field(spec, value)
        in_domain = True
    except ParameterError:
        in_domain = False
    assert (_violation({section: {spec.name: value}}, SCHEMA) is None) == in_domain
    # a field whose default is None takes None in both
    if spec.default is None:
        assert _violation({section: {spec.name: None}}, SCHEMA) is None
        assert checked_field(spec, None) is None


# ---------------------------------------------------------------------------
# non-finite and extreme input ends in a one-line error, never a traceback


def run_raw_config(tmp_path, capsys, command, text):
    path = tmp_path / "raw.json"
    path.write_text(text, encoding="utf-8")
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


def test_t_max_infinity_rejected(tmp_path, capsys):
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics", '{"preset": "sodium-paper", "drive": {"t_max": Infinity}}'
    )
    assert rc == 2
    assert err.startswith("error: ") and "Infinity" in err and err.count("\n") == 1


def test_rate_temperature_infinity_rejected(tmp_path, capsys):
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "rate_query": {"temperature": [Infinity]}}',
    )
    assert rc == 2
    assert err.startswith("error: ") and "Infinity" in err


def test_gamma_override_nan_rejected(tmp_path, capsys):
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "drive": {"gamma_override": NaN}}',
    )
    assert rc == 2
    assert "NaN" in err


@pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["1e400", "int_400_digits"])
def test_overflowing_literal_rejected(tmp_path, capsys, literal):
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "drive": {"t_max": %s}}' % literal,
    )
    assert rc == 2
    assert "overflows a double" in err and err.count("\n") == 1


def test_dt_output_longer_than_t_max_exits_2(tmp_path, capsys):
    # one sample at dt_output = 1e-5 s would lie ten times past t_max
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "drive": {"t_max": 1e-6, "dt_output": 1e-5}}',
    )
    assert rc == 2
    assert err.startswith("error: dt_output") and "t_max" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_rate_grid_over_the_cap_exits_2(tmp_path, capsys):
    # 101 x 9901 is one point over the cap; at 20 000 x 20 000 the sweep
    # setup asked for a 2.98 GiB array and ended in a traceback
    assert 101 * 9901 == MAX_RATE_POINTS + 1
    grid = {"qbar": [1.0] * 101, "temperature": [0.0] * 9901}
    rc, err = run_raw_config(tmp_path, capsys, "rates",
                             json.dumps({"preset": "sodium-paper", "rate_query": grid}))
    assert (rc, err) == (2, (
        "error: rate_query grid of 101 qbar x 9901 temperature values = 1000001 points "
        "exceeds the limit of 1000000\n"
    ))
    assert not (tmp_path / "out").exists()
    at_cap = {"qbar": [1.0] * 100, "temperature": [0.0] * 10_000}
    assert len(load_config(write_config(tmp_path, rate_query=at_cap)).qbar_grid) == 100


def test_tiny_temperature_runs(tmp_path, capsys):
    # hbar*omega underflows inside the thermal integrands at T = 1e-300 K;
    # the run completes and the width is the zero-temperature one
    rc, _ = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "params": {"temperature_T": 1e-300},'
        ' "drive": {"t_max": 1e-4, "dt_output": 5e-5}}',
    )
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    zero_t = decay_rates(PRESETS["sodium-paper"], Channel.SINGLE_LEVEL, [5.0], [0.0]).gamma_total
    assert summary["gamma_used_s"] == pytest.approx(zero_t[0, 0], rel=1e-9)


def test_subnormal_scattering_length_rejected(tmp_path, capsys):
    # k0^3/n0 underflowed to 0 and the rate prefactor divided by it
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "params": {"scattering_length_a": 5e-324}}',
    )
    assert rc == 2
    assert "k0^3/n0" in err and err.count("\n") == 1


def test_overflowing_natural_units_rejected(tmp_path, capsys):
    # k0**3 raised OverflowError inside the rate prefactor
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "params": {"condensate_density_n0": 7e307}}',
    )
    assert rc == 2
    assert "out of double range" in err


def test_step_count_is_capped_after_rounding(tmp_path, capsys):
    # t_max/dt_output = 1000000.0000000001 is the 1 000 000 steps the
    # trajectory takes, but the raw ratio exceeded the cap and exited 2
    path = tmp_path / "raw.json"
    path.write_text(
        '{"preset": "sodium-paper", "drive": {"t_max": 0.017, "dt_output": 1.7e-8}}',
        encoding="utf-8",
    )
    assert load_config(str(path)).drive.output_steps == MAX_OUTPUT_STEPS
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "drive": {"t_max": 0.017, "dt_output": %r}}'
        % (0.017 / (MAX_OUTPUT_STEPS + 1)),
    )
    assert rc == 2
    assert err == (
        f"error: t_max/dt_output = {MAX_OUTPUT_STEPS + 1} output steps exceeds the limit "
        f"of {MAX_OUTPUT_STEPS}\n"
    )
    assert not (tmp_path / "out").exists()


def test_subnormal_temperature_runs(tmp_path, capsys):
    # omega0/T overflows, so the Bose exponent is inf as at T = 0: no
    # thermal occupation is representable and the stimulated width is 0
    rc, _ = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "rate_query": {"temperature": [5e-324]}}',
    )
    assert rc == 0
    table = (tmp_path / "out" / "rates.csv").read_text(encoding="utf-8").splitlines()
    assert all(row.split(",")[3] == "0" for row in table[1:])


@pytest.mark.parametrize("qbar", ["1e-55", "1e-51"])
def test_underflowing_spontaneous_width_exits_2(tmp_path, capsys, qbar):
    # the spontaneous integral underflowed to 0 (1e-55) or a subnormal
    # (1e-51), and the row was written with quad_err 0 and exit 0
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "rate_query": {"qbar": [%s, 5.0]}}' % qbar,
    )
    assert rc == 2
    assert err.startswith(f"error: spontaneous width underflows at qbar = {float(qbar):.3g}, ")
    assert "q^5 law" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("qbar", ["5e-324", "5e307"])
def test_qbar_out_of_double_range_rejected(tmp_path, capsys, qbar):
    # a subnormal qbar divided by its underflowed mode frequency, a huge one
    # by 1/sqrt(omega_bar) = 0
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "rate_query": {"qbar": [%s]}}' % qbar,
    )
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_too_hot_temperature_rejected(tmp_path, capsys):
    # the Bose factor 1/(e^x - 1) overflowed at quadrature nodes, and inf*0
    # came out as a NaN width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_raw_config(
            tmp_path, capsys, "rates",
            '{"preset": "sodium-paper", "params": {"scattering_length_a": 3.3e8},'
            ' "rate_query": {"qbar": [1e-220], "temperature": [6.7e307]}}',
        )
    assert rc == 2
    assert "too hot" in err and err.count("\n") == 1
    # on a grid the T = 0 row is valid and the first too-hot point follows it
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        json.dumps({"preset": "sodium-paper", "params": {"scattering_length_a": 3.3e8},
                    "rate_query": {"qbar": [1e-220, 1e-200], "temperature": [0, 6.7e307]}}),
    )
    assert rc == 2
    assert err == (
        "error: T = 6.7e+307 K is too hot at qbar = 1e-220: the thermal occupation "
        "exceeds 1e+150\n"
    )
    # too hot, an overflowing width and an overflowing mode frequency on one
    # grid: one line names the mode frequency, which is checked first
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        json.dumps({"preset": "sodium-paper", "rate_query": {
            "qbar": [1e-200, 1.0, 1e90, 1e160], "temperature": [1e-6, 1e300]}}),
    )
    assert rc == 2
    assert err == "error: mode frequency overflows at qbar = 1e+160\n"


def test_negative_zero_temperature_prints_zero(tmp_path, capsys):
    # -0.0 passed the schema's minimum of 0 and printed as a "-0" row
    rc, _ = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "rate_query": {"qbar": [1.0], "temperature": [-0.0, 0.0]}}',
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "out" / "rates.csv")
    assert [row[1] for row in rows] == ["0", "0"]
    assert rows[0] == rows[1]
    meta = json.loads((tmp_path / "out" / "rates.meta.json").read_text(encoding="utf-8"))
    for temperatures in (meta["temperature_K"], meta["config"]["rate_query"]["temperature"]):
        assert [math.copysign(1.0, t) for t in temperatures] == [1.0, 1.0]


@pytest.mark.parametrize("temperature", ["0", "1e-6"])
@pytest.mark.parametrize("a_bc", ["1e-200", "1e-170", "1e150", "1e200"])
def test_out_of_range_coupling_ratio_rejected(tmp_path, capsys, a_bc, temperature):
    # (a_bc/a)^2 underflowed, and the tolerance divided by the zero width
    # prefactor; or it overflowed, and rates.csv held inf widths
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        '{"preset": "sodium-paper", "params": {"a_bc": %s}, "rate_query": '
        '{"qbar": [0.5], "temperature": [%s], "channel": "two_level"}}' % (a_bc, temperature),
    )
    assert rc == 2
    assert err.startswith("error: interspecies coupling (a_bc/a)^2") and err.count("\n") == 1
    assert "out of double range" in err
    assert not (tmp_path / "out" / "rates.csv").exists()


def test_underflowing_width_prefactor_exits_2(tmp_path, capsys):
    # k0^3/n0/(pi*qbar) underflowed to 0 and the tolerance divided by it
    rc, err = run_raw_config(
        tmp_path, capsys, "rates",
        '{"params": {"scattering_length_a": 1e-200, "atomic_mass": 1e-26,'
        ' "condensate_density_n0": 1.0, "atom_count_N0": 1.0},'
        ' "rate_query": {"qbar": [1e100]}}',
    )
    assert rc == 2
    assert err == "error: spontaneous width prefactor 0 is out of double range at qbar = 1e+100\n"


def test_qbar_overflowing_vertex_sums_exits_2(tmp_path, capsys):
    # qbar 1.2e154 exited 3 from a stalled quadrature, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_raw_config(
            tmp_path, capsys, "rates",
            '{"preset": "sodium-paper", "params": {"atomic_mass": 1e20},'
            ' "rate_query": {"qbar": [9e153, 1.2e154]}}',
        )
    assert rc == 2
    assert err == "error: qbar = 1.2e+154 is too large: 1 + kbar^2 + omega_bar overflows\n"


@pytest.mark.parametrize("body", [
    # wrote inf widths, gamma/omega and quad_err with exit 0, after a
    # RuntimeWarning from scaling the width
    {"params": {"scattering_length_a": 2.75e91},
     "rate_query": {"qbar": [1e100], "temperature": [0.0]}},
    # printed four RuntimeWarning lines, then exit 3 with "partial rate inf
    # s^-1, error estimate nan s^-1"
    {"rate_query": {"qbar": [1e100], "temperature": [1e294]}},
], ids=["huge_scattering_length", "hot_huge_qbar"])
def test_extreme_rates_exit_with_one_line_under_warnings_as_errors(tmp_path, body):
    path = write_config(tmp_path, **body)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(quasidamp.__file__))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "quasidamp", "rates",
         "--config", path, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
    assert "nan" not in proc.stderr and "inf" not in proc.stderr
    assert proc.stderr.startswith("error: width overflows at qbar = 1e+100, ")
    assert not out.exists()


def test_dynamics_overflowing_moments_exit_3_without_warnings(tmp_path, capsys):
    # finite moments whose product overflows used to warn from the cone clip
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_raw_config(
            tmp_path, capsys, "dynamics",
            '{"preset": "sodium-paper", "drive": {"rabi_effective": 5840700,'
            ' "gamma_override": 0, "t_max": 0.0096, "dt_output": 3.2e-05}}',
        )
    assert rc == 3
    assert err.startswith("integration failure") and err.count("\n") == 1


def test_dynamics_readout_overflow_exits_3_without_warnings(tmp_path, capsys):
    # the moments stay finite up to t_max, but from t = 0.1778 s the
    # squeezing parameters' products overflow: no inf row may be written
    rc, err = run_raw_config(
        tmp_path, capsys, "dynamics",
        '{"preset": "sodium-paper", "drive": {"qbar_recoil": 5, "rabi_effective": 1e3,'
        ' "gamma_override": 0, "t_max": 0.1779, "dt_output": 1e-4}}',
    )
    assert rc == 3
    assert err == (
        "integration failure: squeezing parameters overflow at t = 0.1778"
        " (last valid state at t = 0.1777 s)\n"
    )
    assert not (tmp_path / "out").exists()


def test_dynamics_small_qbar_readout_overflow_exits_3_without_warnings(tmp_path, capsys):
    # at qbar 1e-10, u^2 and v^2 are near 1e9, so the positivity floor times
    # a trace overflows before the squeezing parameters do
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_raw_config(
            tmp_path, capsys, "dynamics",
            '{"preset": "sodium-paper", "drive": {"qbar_recoil": 1e-10, "rabi_effective": 1000,'
            ' "gamma_override": 0, "t_max": 0.1779, "dt_output": 1e-4}}',
        )
    assert rc == 3
    assert err.startswith("integration failure: squeezing parameters overflow at t = 0.1672")
    assert err.count("\n") == 1


_POSITIVE_NUMBER = st.one_of(
    st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
    st.integers(min_value=1, max_value=10**12),
)
_NONNEGATIVE_NUMBER = st.one_of(st.just(0), _POSITIVE_NUMBER)


def _some_of(fields: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries({}, optional=fields)


def _field_values(cls, skip=()) -> dict:
    """A strategy per numeric field of the dataclass cls, read off its
    domain metadata: the numbers the domain admits, and null where the
    field defaults to None."""
    strategies = {}
    for spec in dataclasses.fields(cls):
        if spec.name not in skip:
            number = (_POSITIVE_NUMBER if spec.metadata["domain"] == POSITIVE["domain"]
                      else _NONNEGATIVE_NUMBER)
            if spec.default is None:
                number = st.one_of(st.none(), number)
            strategies[spec.name] = number
    return strategies


def _drive_strategy() -> st.SearchStrategy:
    # at most 300 output steps, so each example runs in milliseconds
    return st.tuples(
        _some_of(_field_values(DriveConfig, skip=("t_max", "dt_output"))),
        st.floats(min_value=1e-7, max_value=1e-2),
        st.integers(min_value=1, max_value=300),
    ).map(lambda d: {**d[0], "t_max": d[1], "dt_output": d[1] / d[2]})


_SCHEMA_VALID_CONFIG = _some_of({
    "preset": st.sampled_from(["sodium-paper", "no-such-preset"]),
    "params": _some_of(_field_values(PhysicalParams)),
    "drive": _drive_strategy(),
    "rate_query": _some_of({
        "qbar": st.lists(_POSITIVE_NUMBER, min_size=1, max_size=3),
        "temperature": st.lists(_NONNEGATIVE_NUMBER, min_size=1, max_size=2),
        "channel": st.sampled_from(["single_level", "two_level"]),
    }),
})


@settings(max_examples=100, deadline=None)
@given(_SCHEMA_VALID_CONFIG)
def test_schema_walker_matches_jsonschema_on_valid_configs(jsonschema_validator, config):
    assert_walker_agrees(jsonschema_validator, config)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_SCHEMA_VALID_CONFIG, st.sampled_from(["rates", "dynamics", "spectrum"]))
def test_schema_valid_configs_exit_cleanly(capsys, config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
        if rc == 0 and command == "rates":
            _, rows = read_csv(pathlib.Path(tmp, "out", "rates.csv"))
            assert all(math.isfinite(float(field)) for row in rows for field in row)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err and err.count("\n") <= 1


# ---------------------------------------------------------------------------
# deterministic formatting


def test_float_formatting_round_trips():
    values = [0.1, 1.0 / 3.0, 5.0, 1e-300, 530.9385860590878, -0.0]
    fields = "".join(_csv({"x": values})).splitlines()[1:]
    assert [float(field) for field in fields] == values
    assert fields[-1] == "-0"
    assert "".join(_csv({"x": [math.nan, 3]})) == "x\n\n3\n"
    assert "".join(_csv({"x": np.array([True, False])})) == "x\ntrue\nfalse\n"


def test_csv_layout():
    text = "".join(_csv({"a": [1.5, math.nan], "b": np.array([True, False])}))
    assert text == "a,b\n1.5,true\n,false\n"
    # a list of str is text, printed as is
    text = "".join(_csv({"q": ["0.5", "2"], "a": [1, math.nan]}))
    assert text == "q,a\n0.5,1\n2,\n"


def test_csv_chunks_are_whole_rows_of_the_single_pass_text():
    # about 2.5 chunks, NaN on both sides of the first chunk boundary
    n = 2 * _CSV_CHUNK_ROWS + _CSV_CHUNK_ROWS // 2
    rng = np.random.default_rng(5)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    x[[0, 7, n - 1]] = [-0.0, 0.0, 1e-300]
    y = rng.random(n)
    y[[_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, n - 1]] = math.nan
    flag = rng.random(n) < 0.5
    chunks = list(_csv({"x": x, "y": y, "ok": flag}))

    def field(value):
        return "" if math.isnan(value) else "%.17g" % value

    reference = "x,y,ok\n" + "".join(
        "%s,%s,%s\n" % (field(a), field(b), "true" if c else "false")
        for a, b, c in zip(x.tolist(), y.tolist(), flag.tolist())
    )
    assert "".join(chunks) == reference
    assert chunks[0] == "x,y,ok\n"
    assert [chunk.count("\n") for chunk in chunks[1:]] == [
        _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS // 2
    ]
    assert chunks[1].endswith(",,true\n") or chunks[1].endswith(",,false\n")
    assert chunks[2].split("\n")[0].split(",")[1] == ""


def test_csv_text_columns_match_number_columns():
    # rates hands its grid axes to _csv as %.17g text made once per value
    values = np.repeat(np.geomspace(1e-300, 1e300, 7), 2 * _CSV_CHUNK_ROWS // 7 + 1)
    values[3] = -0.0
    text = ["%.17g" % value for value in values.tolist()]
    assert "".join(_csv({"t": text, "x": values})) == "".join(_csv({"t": values, "x": values}))


def test_emit_memory_is_bounded_by_a_chunk(tmp_path, capsys):
    # the whole text of the file (about 9 MB here) was built before writing
    rng = np.random.default_rng(3)
    columns = {f"c{i}": rng.random(50_000) for i in range(7)}
    columns["ok"] = rng.random(50_000) < 0.5
    tracemalloc.start()
    try:
        _emit(str(tmp_path), {"table.csv": _csv(columns)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == "".join(_csv(columns))
    assert capsys.readouterr().out == f"wrote {tmp_path / 'table.csv'}\n"


def test_wrote_line_escapes_what_a_strict_stdout_cannot_encode(tmp_path, monkeypatch):
    # a directory named by the byte 0xff decodes to a lone surrogate, which
    # a strict UTF-8 stdout cannot encode; the run crashed after writing
    out = str(tmp_path / os.fsdecode(b"out\xff"))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    cfg_path = write_config(tmp_path, drive={"t_max": 1e-4, "dt_output": 5e-5})
    assert main(["dynamics", "--config", cfg_path, "--out", out]) == 0
    stdout.flush()
    shown = f"{tmp_path}/out\\udcff"
    assert stdout.buffer.getvalue().decode("utf-8") == (
        f"wrote {shown}/trajectory.csv\nwrote {shown}/summary.json\n"
    )
    assert sorted(os.listdir(out)) == ["summary.json", "trajectory.csv"]


# ---------------------------------------------------------------------------
# rates subcommand


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_rates_outputs(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, rate_query={"qbar": [5.0, 0.05], "temperature": [1e-6, 0.0]}
    )
    out = tmp_path / "out"
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "rates.csv")
    assert header == [
        "qbar",
        "temperature_K",
        "gamma_beliaev_s",
        "gamma_landau_s",
        "gamma_total_s",
        "gamma_over_omega",
        "quad_err",
    ]
    assert len(rows) == 4
    # sorted by (temperature, qbar)
    assert [(float(r[1]), float(r[0])) for r in rows] == [
        (0.0, 0.05),
        (0.0, 5.0),
        (1e-6, 0.05),
        (1e-6, 5.0),
    ]
    cold_recoil = rows[1]
    assert float(cold_recoil[3]) == 0.0  # no stimulated channel at T=0
    assert float(cold_recoil[4]) == pytest.approx(530.9385860590878, rel=1e-9)
    assert 2.1e-3 <= float(cold_recoil[5]) <= 3.5e-3
    assert float(rows[0][2]) == pytest.approx(3.38103382e-06, rel=1e-5)

    meta = json.loads((out / "rates.meta.json").read_text(encoding="utf-8"))
    assert meta["version"] == quasidamp.__version__
    assert meta["preset"] == "sodium-paper"
    assert meta["channel"] == "single_level"
    assert meta["qbar"] == [0.05, 5.0]
    assert meta["units"]["omega0_s^-1"] == pytest.approx(9719.97, rel=1e-5)
    assert "drive" in meta["config"]

    printed = capsys.readouterr().out
    assert "rates.csv" in printed and "rates.meta.json" in printed


@pytest.mark.parametrize("body", [
    {"preset": "sodium-paper", "params": {"temperature_T": 1e-7}, "drive": {"rabi_effective": 2000},
     "rate_query": {"qbar": [5, 0.1], "temperature": [1e-7, 0]}},
    {"params": {**_FULL_PARAMS, "a_bc": 3e-9},
     "rate_query": {"qbar": [0.1], "channel": "two_level"}},
], ids=["preset", "no_preset"])
def test_meta_config_reproduces_the_run(tmp_path, body):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(body), encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["rates", "--config", str(cfg_path), "--out", str(first)]) == 0
    echo = json.loads((first / "rates.meta.json").read_text(encoding="utf-8"))["config"]
    # the values the run used and nothing else: no output directory
    assert set(echo) == {"preset", "params", "drive", "rate_query"}
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo), encoding="utf-8")
    assert load_config(str(echo_path)) == load_config(str(cfg_path))
    assert main(["rates", "--config", str(echo_path), "--out", str(second)]) == 0
    for name in ("rates.csv", "rates.meta.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_rates_deterministic_across_runs(tmp_path):
    # the sweep is one batched pass; two runs give the same bytes
    cfg_path = write_config(tmp_path)
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 0
        outputs.append(
            ((out / "rates.csv").read_bytes(), (out / "rates.meta.json").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_rates_quadrature_failure_leaves_no_files(tmp_path, monkeypatch, capsys):
    def boom(params, channel, qbar, temperature):
        raise QuadratureError("synthetic stall", partial_rate_s=1.25, error_estimate_s=0.5)

    monkeypatch.setattr(rates, "decay_rates", boom)
    out = tmp_path / "out"
    rc = main(["rates", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 3
    assert not (out / "rates.csv").exists()
    assert not (out / "rates.meta.json").exists()
    err = capsys.readouterr().err
    assert "partial rate 1.25" in err and "synthetic stall" in err


def test_refinement_cap_exits_3_with_partial_rate(tmp_path, monkeypatch, capsys):
    # a tolerance below the error estimate's 50-ulp floor is met at no
    # level: the first point, qbar = 0.05 at T = 0, is named with its width
    # at the finest step and that floor as its estimate
    sodium = PRESETS["sodium-paper"]
    grid = (sodium, Channel.SINGLE_LEVEL, (0.05, 5.0), (0.0,))
    converged = rates.decay_rates(*grid)
    monkeypatch.setattr(rates, "EPSREL", 1e-15)
    with pytest.raises(QuadratureError) as stall:
        rates.decay_rates(*grid)
    assert str(stall.value) == (
        "quadrature did not converge at step 2^-7: spontaneous width at qbar = 0.05, T = 0 K")
    width, estimate = stall.value.partial_rate_s, stall.value.error_estimate_s
    assert abs(width - converged.gamma_beliaev[0, 0]) <= converged.quadrature_error_estimate[0, 0]
    assert estimate == rates._ROUNDING * width

    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, rate_query={"qbar": [0.05, 5.0], "temperature": [0.0]})
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 3
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert f"partial rate {width:.6g}" in err
    assert f"error estimate {estimate:.6g}" in err
    assert err.count("\n") == 1

    # on a 2 x 3 grid the spontaneous stall at the first point is named
    # ahead of the stimulated ones
    cfg_path = write_config(
        tmp_path, rate_query={"qbar": [0.3, 1.0, 5.0], "temperature": [0.0, 1e-6]}
    )
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "quadrature failure: quadrature did not converge at step 2^-7: "
        "spontaneous width at qbar = 0.3, T = 0 K "
        "(partial rate 0.025419 s^-1, error estimate 2.82208e-16 s^-1)\n"
    )


def test_negative_width_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    # a negative width ended in a RuntimeError traceback (exit 1)
    stimulated = rates._stimulated_integrand
    monkeypatch.setattr(rates, "_stimulated_integrand", lambda x, *args: -stimulated(x, *args))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, rate_query={"qbar": [0.3, 1.0], "temperature": [0.0, 1e-6]})
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 3
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert err.startswith(
        "quadrature failure: quadrature gave a negative width: "
        "stimulated width at qbar = 0.3, T = 1e-06 K (partial rate -"
    )
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# dynamics subcommand


@pytest.fixture(scope="module")
def dynamics_out(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("dyn")
    drive = {"t_max": 5e-4, "dt_output": 1e-5}
    cfg_path = write_config(tmp_path, drive=drive)
    free_path = write_config(tmp_path, "free.json", drive={**drive, "gamma_override": 0})
    out = tmp_path / "damped"
    out_free = tmp_path / "free"
    assert main(["dynamics", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["dynamics", "--config", free_path, "--out", str(out_free)]) == 0
    return out, out_free


def test_dynamics_trajectory_format(dynamics_out):
    out, _ = dynamics_out
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t_s", "n_a", "n_b_plus", "n_b_minus", "xi1", "xi2", "xi3", "depletion_valid"]
    assert len(rows) == 51
    first = rows[0]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0  # n_a(0)
    assert float(first[2]) == pytest.approx(3.702332976756625e-4, rel=1e-9)
    assert float(first[6]) == pytest.approx(1.0003702332976757, rel=1e-12)
    assert first[7] == "true"
    assert all(r[7] in ("true", "false") for r in rows)


def test_dynamics_xi_columns(dynamics_out):
    out, _ = dynamics_out
    _, rows = read_csv(out / "trajectory.csv")
    for r in rows:
        xi1, xi2, xi3 = float(r[4]), float(r[5]), float(r[6])
        assert abs(xi1 - xi2) <= 1e-9 * max(1.0, abs(xi1))
        if xi3 < 1.0:  # once squeezing sets in, the spin variances stay larger
            assert xi1 >= xi3


def test_dynamics_summary(dynamics_out):
    out, out_free = dynamics_out
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {
        "crossing_time_s",
        "gamma_used_s",
        "preset",
        "rabi_effective_s",
        "t_at_xi3_min_s",
        "xi3_min",
    }
    assert summary["gamma_used_s"] == pytest.approx(530.9385860590878, rel=1e-9)
    assert summary["preset"] == "sodium-paper"
    assert 0.0 < summary["crossing_time_s"] < 5e-4
    assert 0.0 < summary["xi3_min"] < 1.0

    free = json.loads((out_free / "summary.json").read_text(encoding="utf-8"))
    assert free["gamma_used_s"] == 0.0
    assert free["crossing_time_s"] is None  # photon mode never catches up
    assert free["xi3_min"] < summary["xi3_min"]


def per_sample_summary(run: SqueezingRun) -> dict:
    """The summary's reductions as a loop over samples: the first strict
    minimum of the defined xi3 values, and the first photon-atom crossing."""
    xi3_min = t_at_min = None
    for t, xi3 in zip(run.t.tolist(), run.readout.xi3.tolist()):
        if not math.isnan(xi3) and (xi3_min is None or xi3 < xi3_min):
            xi3_min, t_at_min = xi3, t
    occupations = zip(run.t.tolist(), run.readout.n_a.tolist(), run.readout.n_b_plus.tolist())
    crossing = next((t for t, n_a, n_b in occupations if n_a >= n_b), None)
    return {"xi3_min": xi3_min, "t_at_xi3_min_s": t_at_min, "crossing_time_s": crossing}


def summary_and_run(tmp_path, monkeypatch, config: dict):
    """summary.json of a dynamics command and the SqueezingRun behind it."""
    runs = []
    run_squeezing = dynamics.run_squeezing  # the original, or a test's stand-in

    def recording(params, drive):
        runs.append(run_squeezing(params, drive))
        return runs[-1]

    monkeypatch.setattr(dynamics, "run_squeezing", recording)
    cfg_path = write_config(tmp_path, **config)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["dynamics", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return {key: summary[key] for key in ("xi3_min", "t_at_xi3_min_s", "crossing_time_s")}, runs[0]


# flags: drive keys set on top of the trajectory grid
@pytest.mark.parametrize("temperature, flags", [
    *[(t, {}) for t in (1e-7, 1.5e-7, 2e-7, 3e-7, 4e-7, 5e-7, 7e-7, 1e-6, 0.0)],
    (3e-7, {"gamma_override": 0}),
])
def test_dynamics_summary_matches_per_sample_loop(tmp_path, monkeypatch, temperature, flags):
    config = {"params": {"temperature_T": temperature},
              "drive": {"t_max": 6e-3, "dt_output": 1e-6, **flags}}
    summary, run = summary_and_run(tmp_path, monkeypatch, config)
    assert summary == per_sample_summary(run)
    assert summary["xi3_min"] is not None
    assert (summary["crossing_time_s"] is None) == bool(flags)


def test_dynamics_summary_takes_first_minimum_and_crossing(tmp_path, monkeypatch):
    n_a = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    n_b = np.array([1.0, 1.5, 2.0, 1.0, 0.0])
    xi3 = np.array([math.nan, 0.5, 0.7, 0.5, 0.9])
    tie = SqueezingRun(
        t=np.arange(5.0), readout=Readout(n_a, n_b, n_b, xi3, xi3),
        depletion_valid=np.ones(5, dtype=bool), gamma_used=0.0, mode=bogoliubov_mode(5.0),
    )
    monkeypatch.setattr(dynamics, "run_squeezing", lambda params, drive: tie)
    summary, run = summary_and_run(tmp_path, monkeypatch, {})
    assert summary == {"xi3_min": 0.5, "t_at_xi3_min_s": 1.0, "crossing_time_s": 2.0}
    assert summary == per_sample_summary(run)


def test_dynamics_summary_null_without_defined_xi3(tmp_path, monkeypatch):
    # at qbar = 1e8 with no drive the mode total stays below the degeneracy
    # floor, so every xi3 is undefined and the photon mode never catches up
    drive = {"qbar_recoil": 1e8, "rabi_effective": 0, "gamma_override": 0,
             "t_max": 1e-4, "dt_output": 1e-5}
    summary, run = summary_and_run(tmp_path, monkeypatch, {"drive": drive})
    assert np.isnan(run.readout.xi3).all()
    assert summary == {"xi3_min": None, "t_at_xi3_min_s": None, "crossing_time_s": None}
    assert summary == per_sample_summary(run)


def test_dynamics_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, drive={"t_max": 2e-4, "dt_output": 2e-5})
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["dynamics", "--config", cfg_path, "--out", str(out)]) == 0
        blobs.append(
            (out / "trajectory.csv").read_bytes() + (out / "summary.json").read_bytes()
        )
    assert blobs[0] == blobs[1]


def _no_int(text):
    raise AssertionError(f"integer {text} in JSON output")


@pytest.mark.parametrize("command, files", [
    ("dynamics", ("trajectory.csv", "summary.json")),
    ("rates", ("rates.csv", "rates.meta.json")),
], ids=["dynamics", "rates"])
def test_integer_config_values_print_as_floats(tmp_path, command, files):
    # JSON integers once came back as JSON integers: the drive's in
    # summary.json, and every one in rates.meta.json's config echo
    blobs = []
    for name, number in (("int", int), ("float", float)):
        cfg_path = write_config(
            tmp_path, name=f"{name}.json",
            params={"temperature_T": number(0), "atom_count_N0": number(1000000)},
            drive={"gamma_override": number(500), "rabi_effective": number(2000),
                   "t_max": 2e-4, "dt_output": 2e-5},
            rate_query={"qbar": [number(5), number(1)], "temperature": [number(0)]},
        )
        out = tmp_path / name
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        blobs.append(b"".join((out / file).read_bytes() for file in files))
        json.loads((out / files[1]).read_text(encoding="utf-8"), parse_int=_no_int)
    assert blobs[0] == blobs[1]
    if command == "dynamics":
        summary = json.loads((tmp_path / "int" / "summary.json").read_text(encoding="utf-8"))
        assert summary["gamma_used_s"] == 500.0 and summary["rabi_effective_s"] == 2000.0
        assert b'"gamma_used_s": 500.0' in blobs[0]


def test_dynamics_integration_failure(tmp_path, capsys):
    cfg_path = write_config(tmp_path, drive={"rabi_effective": 1e8})
    out = tmp_path / "out"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["dynamics", "--config", cfg_path, "--out", str(out)])
    assert rc == 3
    assert "integration failure" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_dynamics_non_positive_state_exits_3(tmp_path, capsys, monkeypatch):
    # a trajectory whose cone defect turns negative ends in one
    # "integration failure" line, not a traceback
    evolve = dynamics.evolve_moments

    def doctored(*args, **kwargs):
        trajectory = evolve(*args, **kwargs)
        trajectory.defect[3] = -99.0 * trajectory.x1[3] * trajectory.x2[3]
        return trajectory

    monkeypatch.setattr(dynamics, "evolve_moments", doctored)
    cfg_path = write_config(tmp_path, drive={"t_max": 1e-4, "dt_output": 1e-5})
    out = tmp_path / "out"
    rc = main(["dynamics", "--config", cfg_path, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("integration failure: moment table not positive")
    assert err.count("\n") == 1
    assert not (out / "trajectory.csv").exists()


def test_dynamics_rejects_two_level_channel_without_fixed_rate(tmp_path, capsys):
    # dynamics computes the single-level width only; a two-level config must
    # fix the rate itself instead of silently getting the wrong channel
    two_level = {"params": {"a_bc": 2.8e-9}, "rate_query": {"channel": "two_level"}}
    drive = {"t_max": 1e-4, "dt_output": 1e-5}
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, drive=drive, **two_level)
    assert main(["dynamics", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "two_level" in err and err.count("\n") == 1
    assert not (out / "trajectory.csv").exists()

    assert err.endswith("set drive.gamma_override\n")
    for gamma in (0, 50.0):
        fixed = write_config(tmp_path, "fixed.json", drive={**drive, "gamma_override": gamma},
                             **two_level)
        assert main(["dynamics", "--config", fixed, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["gamma_used_s"] == gamma


# ---------------------------------------------------------------------------
# oracle subcommand


def test_oracle_wick_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["oracle", "--suite", "wick", "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert payload["suite"] == "wick"
    assert payload["all_pass"] is True
    assert len(payload["verdicts"]) == 48
    record = payload["verdicts"][0]
    assert set(record) == {"name", "expected", "observed", "tolerance", "pass"}


def test_oracle_failure_exit_code(tmp_path, monkeypatch, capsys):
    bad = Verdict(name="synthetic-check", expected=1.0, observed=2.0, tolerance=0.1, passed=False)
    monkeypatch.setattr(oracle, "wick_suite", lambda: [bad])
    out = tmp_path / "out"
    rc = main(["oracle", "--suite", "wick", "--out", str(out)])
    assert rc == 4
    payload = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert payload["all_pass"] is False  # verdict file still written for inspection
    assert "synthetic-check" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum subcommand


def test_spectrum_output(tmp_path):
    cfg_path = write_config(tmp_path, rate_query={"qbar": [1.0, 5.0]})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["kbar", "alpha", "u", "v", "omega_bar", "omega_s"]
    unit_row = rows[0]
    assert float(unit_row[1]) == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)
    assert float(unit_row[4]) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert float(rows[1][5]) == pytest.approx(math.sqrt(675.0) * 9719.971923317471, rel=1e-9)


@pytest.mark.parametrize("command", ["spectrum", "rates"])
def test_overflowing_mode_frequency_exits_2(tmp_path, capsys, command):
    # a 5e-324 kg atom puts omega0 at 7.5e301 s^-1, so at qbar = 1548 the
    # mode frequency overflows; spectrum printed omega_s = inf and exited 0
    rc, err = run_raw_config(
        tmp_path, capsys, command,
        '{"preset": "sodium-paper", "params": {"atomic_mass": 5e-324},'
        ' "rate_query": {"qbar": [1.0, 1548.0]}}',
    )
    assert (rc, err) == (2, "error: mode frequency overflows at qbar = 1.55e+03\n")
    assert not (tmp_path / "out").exists()


_TOO_SMALL_MODE = (
    "error: kbar = 7.8e-17 is too small: v/u rounds to 1, "
    "so u^2 - v^2 = 1 cannot hold in doubles\n"
)


@pytest.mark.parametrize("command", ["dynamics", "spectrum"])
@pytest.mark.parametrize("kbar, expected", [(7.9e-17, (0, "")), (7.8e-17, (2, _TOO_SMALL_MODE))])
def test_smallest_mode_momentum(tmp_path, capsys, command, kbar, expected):
    # below kbar ~ 7.85e-17, 1 + kbar^2 + omega_bar rounds to 1: the
    # one-line error names the momentum and why it cannot be represented
    if command == "dynamics":
        body = {"drive": {"qbar_recoil": kbar, "t_max": 1e-4, "dt_output": 5e-5}}
    else:
        body = {"rate_query": {"qbar": [kbar, 1.0]}}
    rc, err = run_raw_config(tmp_path, capsys, command,
                             json.dumps({"preset": "sodium-paper", **body}))
    assert (rc, err) == expected
    assert (tmp_path / "out").exists() == (rc == 0)


@pytest.mark.parametrize("command, body", [
    ("dynamics", {"drive": {"qbar_recoil": 1.2e154, "gamma_override": 0.0,
                            "t_max": 1e-4, "dt_output": 5e-5}}),
    # the heavy atom keeps omega_s finite at this qbar
    ("spectrum", {"params": {"atomic_mass": 1e233}, "rate_query": {"qbar": [1.0, 1.2e154]}}),
])
def test_largest_mode_momentum(tmp_path, capsys, command, body):
    # above kbar ~ 9.48e153, 1 + kbar^2 + omega_bar overflows and u, v were
    # NaN: spectrum wrote empty u and v fields, dynamics exited 3
    rc, err = run_raw_config(tmp_path, capsys, command,
                             json.dumps({"preset": "sodium-paper", **body}))
    assert (rc, err) == (
        2, "error: kbar = 1.2e+154 is too large: 1 + kbar^2 + omega_bar overflows\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rates", "dynamics", "spectrum"])
def test_heavy_atom_runs(tmp_path, capsys, command):
    # at 1e233 kg the contact coupling 4 pi hbar^2 a / m is subnormal, but
    # nothing reads it: hbar*omega0 = g*n0 and every scale in use are normal
    rc, err = run_raw_config(
        tmp_path, capsys, command,
        '{"preset": "sodium-paper", "params": {"atomic_mass": 1e233},'
        ' "drive": {"t_max": 1e-4, "dt_output": 5e-5}}',
    )
    assert (rc, err) == (0, "")


# ---------------------------------------------------------------------------
# exit codes and process entry


@pytest.mark.parametrize("where", [
    "empty_directory", "existing_file", "under_a_file", "second_file_is_a_directory",
    "nul_in_name", "lone_surrogate_in_name",
])
def test_unwritable_output_location_exits_2(tmp_path, capsys, where):
    # rates writes rates.csv, then rates.meta.json: a failure leaves neither
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    (tmp_path / "out" / "rates.meta.json").mkdir(parents=True)
    out = {
        "empty_directory": "",
        "existing_file": blocker,
        "under_a_file": blocker / "sub",
        "second_file_is_a_directory": tmp_path / "out",
        # strings the schema accepts but no path can hold
        "nul_in_name": tmp_path / "a\u0000b",
        "lone_surrogate_in_name": tmp_path / "a\ud800b",
    }[where]
    cfg_path = write_config(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output to {str(out)!r}: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before  # nothing left behind


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failure_while_writing_leaves_no_files(tmp_path, monkeypatch, capsys, error):
    # trajectory.csv is open and part-written when its chunk source fails
    import quasidamp.cli as cli_mod

    def failing_csv(columns):
        yield ",".join(columns) + "\n"
        raise error

    monkeypatch.setattr(cli_mod, "_csv", failing_csv)
    cfg_path = write_config(tmp_path, drive={"t_max": 1e-4, "dt_output": 1e-5})
    out = tmp_path / "out"
    argv = ["dynamics", "--config", cfg_path, "--out", str(out)]
    if isinstance(error, OSError):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write output to {str(out)!r}: No space left on device\n"
        )
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        captured = capsys.readouterr()
    assert captured.out == ""
    assert not (out / "trajectory.csv").exists()
    assert not (out / "summary.json").exists()


def test_usage_errors_return_2(tmp_path, monkeypatch, capsys):
    assert main(["rates"]) == 2  # missing --config
    assert main(["no-such-command"]) == 2
    assert main(["rates", "--config", "/nonexistent.json"]) == 2
    # the oracle reads no config, and "gamma_override": 0 is the undamped run
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path)
    capsys.readouterr()
    assert main(["oracle", "--config", cfg_path]) == 2
    assert main(["dynamics", "--config", cfg_path, "--no-damping"]) == 2
    assert capsys.readouterr().err.count("error: unrecognized arguments: ") == 2
    assert not (tmp_path / "out").exists()


def test_oracle_writes_to_out_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["oracle", "--suite", "wick"]) == 0
    payload = json.loads((tmp_path / "out" / "oracle.json").read_text(encoding="utf-8"))
    assert payload["suite"] == "wick"


def test_help_and_version_return_0(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "quasidamp" in out


def test_module_entry_point(tmp_path):
    cfg_path = write_config(tmp_path, rate_query={"qbar": [1.0]})
    out = tmp_path / "out"
    # the child imports the same package as this test, installed or not
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(quasidamp.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "quasidamp", "rates", "--config", cfg_path, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "rates.csv").exists()

    version = subprocess.run(
        [sys.executable, "-m", "quasidamp", "--version"], capture_output=True, text=True, env=env
    )
    assert version.returncode == 0
    assert quasidamp.__version__ in version.stdout
