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
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from thzsecmap.cli import run

CONFIGS = Path(__file__).parent.parent / "src" / "thzsecmap" / "configs"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
COMMANDS = (["plan"], ["link"], ["map", "--resolution", "10"])

EXTREMES = (0, -1, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-12, 1e12, 1e308, -1e308,
            2 ** 53, 2 ** 63, 10 ** 400)
WRONG_TYPES = ("x", "", None, True, False, [], {}, [1.0], [1.0, 2.0, 3.0], {"a": 1})


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
    ("scenario2_directed", ["map", "--resolution", "10"], "antennas.alice.kappa_deg2", 5e-324),
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
