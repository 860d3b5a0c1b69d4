"""The CLI's error contract on damaged configs.

Every config, however broken, must end in exit 0, 2 (invalid input) or 3
(infeasible plan) with at most one line on stderr and never a traceback.  The
property test damages the two shipped configs: extreme finite numbers, values
of the wrong type, deleted keys and unknown keys.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from thzsecmap.cli import _numeric_paths, _row, _string, parse_config, run
from thzsecmap.errors import ConfigError

CONFIGS = Path(__file__).parent.parent / "src" / "thzsecmap" / "configs"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
COMMANDS = (["plan"], ["link"], ["map", "--resolution", "10"])

EXTREMES = (0, -1, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-12, 1e12, 1e308, -1e308,
            2 ** 53, 2 ** 63, 10 ** 400)
WRONG_TYPES = ("x", "", None, True, False, [], {}, [1.0], [1.0, 2.0, 3.0], {"a": 1})
# of the wrong type and long, in the value or in a key
LONG_WRONG_TYPES = ([10 ** 400], "x" * 300, {"k" * 300: 1}, ["x" * 300, {"k" * 300: 1}])


def _paths(node, prefix=()):
    """Every key path below ``node``, containers before their contents."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def damaged_configs(draw):
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("extreme", "type", "delete", "unknown")))
        if kind == "unknown":
            objects = [()] + [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
            _at(doc, draw(st.sampled_from(objects)))["not_a_key"] = 1.0
            continue
        paths = list(_paths(doc))
        if kind == "extreme":
            paths = [p for p in paths if not isinstance(_at(doc, p), (dict, list))]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            value = draw(st.sampled_from(EXTREMES if kind == "extreme" else WRONG_TYPES))
            parent[path[-1]] = copy.deepcopy(value)  # later edits must not reach the constants
    return doc


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(damaged_configs(), st.sampled_from(COMMANDS))
def test_damaged_config_keeps_the_error_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code, err = run_quietly([*command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err


# each of these escaped as an OverflowError or ZeroDivisionError traceback
@pytest.mark.parametrize("name, command, key, value", [
    ("scenario1_cell", ["plan"], "environment.noise_figure_db", 1e308),
    ("scenario1_cell", ["plan"], "antennas.alice.gain_dbi", 1e308),
    ("scenario2_directed", ["map", "--resolution", "10"], "antennas.eve.gain_dbi", 1e308),
    ("scenario1_cell", ["plan"], "code.n", 10 ** 400),
    ("scenario1_cell", ["map", "--resolution", "10"], "antennas.alice.beamwidth_override_deg",
     1e-300),
    ("scenario2_directed", ["map", "--resolution", "10"], "antennas.alice.gain_dbi", 3075.0),
    # finite in GHz, infinite in hertz: it had planned with C_AB = 0 and exit 3
    ("scenario1_cell", ["plan"], "environment.carrier_frequency_ghz", 1e300),
])
def test_overflowing_value_exits_2_naming_the_key(tmp_path, name, command, key, value):
    doc = copy.deepcopy(SHIPPED[name])
    *parents, leaf = key.split(".")
    _at(doc, parents)[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_quietly([*command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"invalid input: {key}")
    assert not (tmp_path / "out").exists()


# the 14 keys whose values cli._build turns into records, which check their ranges
RECORD_KEYS = ["scenario.variant", "scenario.room_extent_m",
               *(path for path in _numeric_paths() if not path.startswith("code."))]
# and the rest, which the table alone checks
TABLE_KEYS = ["code.n", "code.rate_bits", "code.phi_target", "output.dir"]


def _numbers(record):
    """Every number in a record's fields and in the records and pairs it holds."""
    for value in record:
        if isinstance(value, tuple):
            yield from _numbers(value)
        elif isinstance(value, (int, float)):
            yield value


@pytest.mark.parametrize("key", RECORD_KEYS + TABLE_KEYS)
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_record_value_is_refused_naming_the_key_or_built_finite(name, key):
    """A refusal starts with the key's path, or, for a check that spans more keys, with
    the section's path or another key of it, and names the key.  It is a short line: an
    integer too large for a float prints by its digit count, not digit by digit, and a
    value of the wrong type by its JSON type, not in full."""
    assert len(RECORD_KEYS) == 14
    *parents, leaf = key.split(".")
    for value in EXTREMES + LONG_WRONG_TYPES:
        if isinstance(value, str) and _row(key).check is _string:
            continue  # the right type
        doc = copy.deepcopy(SHIPPED[name])
        _at(doc, parents)[leaf] = [value, value] if leaf == "room_extent_m" else value
        try:
            rc = parse_config(doc)
        except ConfigError as exc:
            message = str(exc)
            assert len(f"invalid input: {message}") < 200, (value, message[:200])
            if not message.startswith(key):
                assert message.startswith(parents[0]) and leaf in message, (value, message)
        else:
            assert all(math.isfinite(v) for v in _numbers(rc.scenario)), (value, rc.scenario)


@pytest.mark.parametrize("key, value, got", [
    ("environment.temperature_k", [10 ** 400], "must be a number, got an array"),
    ("environment.temperature_k", "x" * 300, "must be a number, got a string"),
    ("environment.temperature_k", True, "must be a number, got True"),
    ("code.n", "2000", "must be an integer, got a string"),
    ("code.n", {"k" * 300: 1}, "must be an integer, got an object"),
    ("scenario.variant", ["cell"], "must be a non-empty string, got an array"),
    ("output.dir", "", "must be a non-empty string, got ''"),
    ("output.dir", [], "must be a non-empty string, got []"),
])
def test_a_value_of_the_wrong_type_is_named_by_its_json_type(key, value, got):
    """A string, array or object, which may be of any length, prints as its JSON type;
    an empty one or a boolean prints as it is."""
    doc = copy.deepcopy(SHIPPED["scenario1_cell"])
    *parents, leaf = key.split(".")
    _at(doc, parents)[leaf] = value
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == f"{key} {got}"


def test_an_unknown_variant_is_cut_short(tmp_path):
    """A variant of the right type that names no variant prints cut short, so that a
    300-character name still gives one short line."""
    doc = copy.deepcopy(SHIPPED["scenario1_cell"])
    doc["scenario"]["variant"] = "x" * 300
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run_quietly(["plan", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("invalid input: scenario.variant") and len(line) < 100, line
    assert not (tmp_path / "out").exists()
