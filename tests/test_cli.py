import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CALIBRATED_BEAMWIDTH_DEG
from thzsecmap import ConfigError, cli, planner, secmap
from thzsecmap.cli import load_config, run
from thzsecmap.geometry import grid_axes
from thzsecmap.planner import plan

SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "src" / "thzsecmap" / "configs")
                         .glob("*.json"))


def base_config(out_dir: str, variant: str = "cell") -> dict:
    doc = {
        "environment": {
            "carrier_frequency_ghz": 300.0,
            "bandwidth_ghz": 1.0,
            "temperature_k": 290.0,
            "noise_figure_db": 9.0,
        },
        "antennas": {
            "alice": {"gain_dbi": 10.0, "beamwidth_override_deg": CALIBRATED_BEAMWIDTH_DEG},
            "bob": {"gain_dbi": 10.0},
            "eve": {"gain_dbi": 10.0},
        },
        "scenario": {
            "variant": "cell",
            "room_extent_m": [20.0, 20.0],
            "height_difference_m": 3.5,
        },
        "code": {"n": 2000, "rate_bits": 0.2, "phi_target": 1e-3},
        "power": {"transmit_mw": 2.5},
        "output": {"dir": out_dir},
    }
    if variant == "directed":
        doc["scenario"]["variant"] = "directed"
        doc["scenario"]["horizontal_distance_m"] = 15.0
        doc["scenario"]["height_difference_m"] = 8.5
        doc["antennas"] = {
            "alice": {"gain_dbi": 20.0},
            "bob": {"gain_dbi": 20.0},
            "eve": {"gain_dbi": 25.0},
        }
        doc["power"] = {"transmit_mw": 0.5}
    return doc


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestConfigLoading:
    def test_valid_config_loads(self, tmp_path):
        path = write_config(tmp_path, base_config(str(tmp_path / "out")))
        rc = load_config(path)
        assert rc.n == 2000
        assert rc.scenario.transmit_power_w == pytest.approx(2.5e-3)

    def test_missing_code_n_names_key(self, tmp_path, capsys):
        doc = base_config(str(tmp_path / "out"))
        del doc["code"]["n"]
        path = write_config(tmp_path, doc)
        assert run(["plan", "--config", str(path)]) == 2
        assert "code.n" in capsys.readouterr().err

    # Bob's and Eve's antennas take only a gain, and Alice's beamwidth follows her gain
    # unless it is pinned: no antenna takes a gain-to-beamwidth constant.  The receiver
    # plane is z = 0, so no height but the height difference is settable.
    @pytest.mark.parametrize("key", ["code.blocklen", "scenario.transmitter_setback_m",
                                     "scenario.receiver_height_m", "antennas.alice.kappa_deg2",
                                     *[f"antennas.{who}.{key}" for who in ("bob", "eve")
                                       for key in ("kappa_deg2", "min_relative_gain_db",
                                                   "beamwidth_override_deg")]])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        doc = base_config(str(tmp_path / "out"))
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = 100
        path = write_config(tmp_path, doc)
        assert run(["plan", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"invalid input: unknown key {key}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"environment": \n  !')
        assert run(["plan", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_integer_beyond_int_limit_names_file(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"code": {"n": ' + "9" * 5001 + "}}")
        with pytest.raises(ConfigError, match=r"huge\.json: an integer of 5001 digits"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path, capsys):
        doc = base_config(str(tmp_path / "out"))
        doc["environment"]["temperature_k"] = -3.0
        path = write_config(tmp_path, doc)
        assert run(["plan", "--config", str(path)]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_directed_requires_distance(self, tmp_path, capsys):
        doc = base_config(str(tmp_path / "out"), variant="directed")
        del doc["scenario"]["horizontal_distance_m"]
        path = write_config(tmp_path, doc)
        assert run(["plan", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: scenario.horizontal_distance_m must be set in the directed variant "
            "and only there, got None in the directed variant\n")

    def test_power_defaults_per_variant(self, tmp_path):
        doc = base_config(str(tmp_path / "out"))
        del doc["power"]
        rc = load_config(write_config(tmp_path, doc))
        assert rc.scenario.transmit_power_w == pytest.approx(9e-3)
        doc2 = base_config(str(tmp_path / "out"), variant="directed")
        del doc2["power"]
        rc2 = load_config(write_config(tmp_path, doc2, "d.json"))
        assert rc2.scenario.transmit_power_w == pytest.approx(0.5e-3)


class TestPlanCommand:
    def test_prints_resolved_quantities(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["plan", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "resolved L" in text and "achieved phi" in text and "C_AB" in text
        meta = json.loads((out / "plan_metadata.json").read_text())
        assert meta["run"]["command"] == "plan"
        assert meta["run"]["plan"]["feasible"] is True

    def test_infeasible_exits_3(self, tmp_path, capsys):
        doc = base_config(str(tmp_path / "out"))
        doc["code"]["rate_bits"] = 3.0
        path = write_config(tmp_path, doc)
        out = tmp_path / "X"
        for command in ("plan", "map"):
            assert run([command, "--config", str(path), "--out", str(out)]) == 3
            assert "infeasible" in capsys.readouterr().err
            assert not out.exists()


# each command with quick arguments -> the data files it writes
OUTPUTS = {
    ("plan",): [],
    ("link",): [],
    ("threshold",): [],
    ("map", "--resolution", "4.0", "--threads", "1"): ["map.csv", "map.pgm"],
    ("radial", "--r-max", "12", "--steps", "13"): ["radial.csv"],
    # every valid floor is negative, and argparse alone would take -30,-20 for an option
    ("sweep", "--variable", "antennas.alice.min_relative_gain_db", "--values", "-30,-20"):
        ["sweep.csv"],
}


@pytest.mark.parametrize("argv", OUTPUTS, ids=lambda argv: argv[0])
def test_writes_expected_files_only(tmp_path, capsys, argv):
    """A run writes its data files and the metadata that lists them, in its output
    directory alone.  One that cannot make that directory exits 1 with one line, having
    printed nothing on stdout and made nothing."""
    command = argv[0]
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(str(out)))
    assert run([*argv, "--config", str(path)]) == 0
    meta = json.loads((out / f"{command}_metadata.json").read_text())
    assert meta["run"]["outputs"] == OUTPUTS[argv]
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*OUTPUTS[argv], f"{command}_metadata.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
    assert capsys.readouterr().err == ""

    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    before = sorted(tmp_path.rglob("*"))
    assert run([*argv, "--config", str(path), "--out", str(blocker)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("i/o error: ")
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "a file, not a directory"


class TestMapCommand:
    def test_metadata_describes_the_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config(str(out))
        doc["scenario"]["room_extent_m"] = [24.0, 24.0]
        path = write_config(tmp_path, doc)
        assert run(["map", "--config", str(path), "--resolution", "4.0"]) == 0
        grid = json.loads((out / "map_metadata.json").read_text())["run"]["map"]
        assert grid == {"resolution_m": 4.0, "nx": 7, "ny": 7, "origin_m": [-12.0, -12.0]}
        xs, ys = grid_axes(load_config(path).scenario, 4.0)
        assert [grid["nx"], grid["ny"], grid["origin_m"]] == [len(xs), len(ys), [xs[0], ys[0]]]

    def test_thread_count_invisible_in_output(self, tmp_path, capsys):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        path = write_config(tmp_path, base_config(str(out1)))
        assert run(["map", "--config", str(path), "--resolution", "4.0",
                    "--threads", "1"]) == 0
        assert run(["map", "--config", str(path), "--resolution", "4.0",
                    "--threads", "3", "--out", str(out2)]) == 0
        assert (out1 / "map.csv").read_bytes() == (out2 / "map.csv").read_bytes()
        assert (out1 / "map.pgm").read_bytes() == (out2 / "map.pgm").read_bytes()

    def test_metadata_records_plan_and_inputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["map", "--config", str(path), "--resolution", "4.0",
                    "--threads", "1"]) == 0
        meta = json.loads((out / "map_metadata.json").read_text())
        rc = load_config(path)
        expected = plan(rc.scenario, rc.n, rc.rate_bits, rc.phi_target)
        assert meta["run"]["plan"]["randomness_bits"] == expected.code.randomness_bits
        assert meta["power"]["transmit_mw"] == 2.5
        assert meta["antennas"]["eve"]["gain_dbi"] == rc.scenario.eve.gain_dbi
        assert meta["scenario"]["variant"] == "cell"
        assert meta["run"]["map"] == {"resolution_m": 4.0, "nx": 6, "ny": 6,
                                      "origin_m": [-10.0, -10.0]}

    def test_metadata_round_trip(self, tmp_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        path = write_config(tmp_path, base_config(str(out1)))
        assert run(["map", "--config", str(path), "--resolution", "4.0",
                    "--threads", "1"]) == 0
        meta_path = out1 / "map_metadata.json"
        assert run(["map", "--config", str(meta_path), "--resolution", "4.0",
                    "--threads", "1", "--out", str(out2)]) == 0
        assert (out1 / "map.csv").read_bytes() == (out2 / "map.csv").read_bytes()


class TestOtherCommands:
    def test_radial(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["radial", "--config", str(path), "--r-min", "0", "--r-max", "12",
                    "--steps", "13"]) == 0
        lines = (out / "radial.csv").read_text().splitlines()
        assert lines[0] == "r_m,delta"
        assert len(lines) == 14

    def test_threshold_prints_radius(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["threshold", "--config", str(path), "--delta", "1e-3"]) == 0
        text = capsys.readouterr().out
        assert "r_E0:" in text
        meta = json.loads((out / "threshold_metadata.json").read_text())
        radius = meta["run"]["threshold"]["r_e0_m"]
        assert 5.0 < radius < 30.0

    def test_threshold_equals_library_call(self, tmp_path, capsys, cell_config):
        from thzsecmap import plan_cell, threshold_radius

        out = tmp_path / "out"
        doc = base_config(str(out))
        path = write_config(tmp_path, doc)
        assert run(["threshold", "--config", str(path), "--delta", "1e-3"]) == 0
        meta = json.loads((out / "threshold_metadata.json").read_text())
        cfg = cell_config._replace(room_extent_m=(20.0, 20.0))
        plan = plan_cell(cfg, 2000, 0.2, 1e-3)
        expected = threshold_radius(plan, cfg, 1e-3)
        assert meta["run"]["threshold"]["r_e0_m"] == pytest.approx(expected, abs=1e-12)

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["sweep", "--config", str(path), "--variable", "n",
                    "--values", "500,2000"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("variable,value,feasible")

    def test_sweep_metadata_records_its_area_resolution(self, tmp_path, capsys):
        [directed] = (p for p in SHIPPED_CONFIGS if p.stem == "scenario2_directed")
        tables = []
        for resolution in ("4.0", "0.25"):
            out = tmp_path / resolution
            assert run(["sweep", "--config", str(directed), "--variable", "d_AB",
                        "--values", "5,30", "--area-resolution", resolution,
                        "--out", str(out)]) == 0
            meta_path = out / "sweep_metadata.json"
            meta = json.loads(meta_path.read_text())["run"]["sweep"]
            assert meta["area_resolution_m"] == float(resolution)
            load_config(meta_path)  # the metadata still loads as a config
            tables.append((out / "sweep.csv").read_text())
        assert tables[0] != tables[1]  # the grid changes the insecure fractions

    def test_sweep_bad_values(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(str(tmp_path / "out")))
        assert run(["sweep", "--config", str(path), "--variable", "n",
                    "--values", "abc"]) == 2

    def test_link_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out), variant="directed"))
        assert run(["link", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "capacity: 2.11923" in text
        assert "distance: 17.2409" in text
        # link and plan resolve the same worst-case receiver link
        assert len(SHIPPED_CONFIGS) == 2
        for config in SHIPPED_CONFIGS:
            shipped = tmp_path / config.stem
            assert run(["link", "--config", str(config), "--out", str(shipped)]) == 0
            assert run(["plan", "--config", str(config), "--out", str(shipped)]) == 0
            link_meta = json.loads((shipped / "link_metadata.json").read_text())["run"]["link"]
            plan_meta = json.loads((shipped / "plan_metadata.json").read_text())["run"]["plan"]
            assert link_meta["capacity_bits"] == plan_meta["c_ab_bits"]
            assert link_meta["snr"] == plan_meta["snr_ab"]

    # 1e300 m underflows the received power to 0 W; the shorter two overflow it to inf
    @pytest.mark.parametrize("distance", ["1e300", "1e-200", "1e-320"])
    def test_link_distance_with_no_finite_power_prints_nothing(self, tmp_path, capsys,
                                                               distance):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["link", "--config", str(path), "--distance", distance]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("invalid input: received power ")
        assert line.endswith(f" at {float(distance)} m")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run(["plan", "--config", str(missing)])
        assert code == 1  # i/o failure


def _set_alice_gain_zero(doc):
    doc["antennas"]["alice"] = {"gain_dbi": 0.0}


# json parses these literals, so a config file can carry them
def _set_transmit_nan(doc):
    doc["power"]["transmit_mw"] = math.nan


def _set_temperature_inf(doc):
    doc["environment"]["temperature_k"] = math.inf


def _set_temperature_underflowing(doc):
    doc["environment"]["temperature_k"] = 1e-320  # k*T*B*F underflows to 0 W


def _set_carrier_overflowing(doc):
    doc["environment"]["carrier_frequency_ghz"] = 1e300  # inf in hertz


def _set_bandwidth_negative(doc):
    doc["environment"]["bandwidth_ghz"] = -2


def _set_transmit_negative(doc):
    doc["power"]["transmit_mw"] = -1


def _set_alice_floor_minus_inf(doc):
    doc["antennas"]["alice"]["min_relative_gain_db"] = -math.inf


def _set_alice_floor_above_half_power(doc):
    doc["antennas"]["alice"]["min_relative_gain_db"] = 5.0


def _set_height_underflowing(doc):
    doc["scenario"]["height_difference_m"] = 1e-300  # its square underflows to 0


def _set_room_below_footprint(doc):
    doc["scenario"]["room_extent_m"] = [10.0, 10.0]  # the cone footprint radius is 7.2 m


def _set_directed(doc):
    doc.update(base_config(doc["output"]["dir"], variant="directed"))


def _set_directed_beyond_room(doc):
    _set_directed(doc)
    doc["scenario"]["horizontal_distance_m"] = 70.0


def _set_blocklength_huge(doc):
    doc["code"]["n"] = 10 ** 400  # json writes and reads every digit


def _set_blocklength_5001_digits(doc):
    # json.dumps refuses an integer of more than 4300 digits, so the edit writes the text
    return json.dumps(doc, indent=2).replace('"n": 2000', '"n": 1' + "0" * 5000)


@pytest.mark.parametrize("argv, edit", [
    *[pytest.param(argv, None, id=" ".join(argv)) for argv in (
        ["map", "--resolution", "-1"],
        ["map", "--resolution", "0"],
        ["threshold", "--delta", "2"],
        ["threshold", "--delta", "0"],
        ["radial", "--steps", "1"],
        ["radial", "--r-min", "5", "--r-max", "1"],
        ["radial", "--r-max", "1e200", "--steps", "3"],
        ["radial", "--r-max", "5e-324", "--steps", "3"],
        ["radial", "--steps", "100000000000000"],
        ["link", "--distance", "-3"],
        ["sweep", "--variable", "phi_target", "--values", "2"],
        ["sweep", "--variable", "R", "--values", "-1"],
        ["sweep", "--variable", "G_E", "--values", "-5"],
        ["sweep", "--variable", "l_AB", "--values", "0"],
        ["sweep", "--variable", "l_AB", "--values", "1e-300"],
        ["sweep", "--variable", "l_AB", "--values", "1e-160"],
        ["sweep", "--variable", "G_A", "--values", "1e308"],
        ["sweep", "--variable", "n", "--values", "1e300"],
        ["map", "--resolution", "0.01"],
        ["map", "--resolution", "5e-324"],
    )],
    pytest.param(["plan"], _set_alice_gain_zero, id="plan alice gain 0 dBi"),
    pytest.param(["plan"], _set_transmit_nan, id="plan transmit_mw NaN"),
    pytest.param(["plan"], _set_temperature_inf, id="plan temperature_k Infinity"),
    pytest.param(["plan"], _set_alice_floor_minus_inf, id="plan alice floor -Infinity"),
    pytest.param(["plan"], _set_alice_floor_above_half_power, id="plan alice floor 5 dB"),
    pytest.param(["link"], _set_alice_floor_above_half_power, id="link alice floor 5 dB"),
    pytest.param(["plan"], _set_height_underflowing, id="plan height 1e-300 m"),
    pytest.param(["plan"], _set_room_below_footprint, id="plan cell room 10 m"),
    pytest.param(["plan"], _set_directed_beyond_room, id="plan directed receiver beyond room"),
    pytest.param(["link", "--distance", "10"], _set_directed_beyond_room,
                 id="link directed receiver beyond room"),
    pytest.param(["sweep", "--variable", "d_AB", "--values", "70"], _set_directed,
                 id="sweep directed d_AB 70"),
    # 3075 dBi overflows no ratio, but its Kraus beamwidth, 3.6e-152 deg, is too narrow
    pytest.param(["sweep", "--variable", "G_A", "--values", "3075"], _set_directed,
                 id="sweep directed G_A 3075"),
    pytest.param(["plan"], _set_blocklength_huge, id="plan code.n 10**400"),
    pytest.param(["plan"], _set_blocklength_5001_digits, id="plan code.n of 5001 digits"),
])
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, argv, edit):
    doc = base_config(str(tmp_path / "out"))
    text = edit(doc) if edit is not None else None  # an edit may return the file's text
    path = write_config(tmp_path, doc)
    if text is not None:
        path.write_text(text)
    assert run([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert len(err) < 160
    assert err.startswith("invalid input: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_radii_that_repeat_are_refused_before_any_evaluation(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(secmap, "min_security", lambda *args: calls.append(args))
    path = write_config(tmp_path, base_config(str(tmp_path / "out")))
    # the step, 5e-324 / 2, rounds to 0: the radii would be 0, 0 and 5e-324
    assert run(["radial", "--r-max", "5e-324", "--steps", "3", "--config", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert all(name in line for name in ("r_min", "r_max", "steps")), line
    assert calls == []


# warnings become errors, so any warning ahead of the message fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, option", [
    pytest.param(argv, option, id=" ".join(argv)) for argv, option in (
        (["map", "--resolution", "abc"], "--resolution"),
        (["map", "--resolution", "nan"], "--resolution"),
        (["radial", "--r-max", "inf", "--steps", "3"], "--r-max"),
        # -inf and -nan are values, refused by the value's own check
        (["link", "--distance", "-inf"],
         "invalid input: argument --distance: expected a finite number, got '-inf'"),
        (["link", "--distance", "-nan"],
         "invalid input: argument --distance: expected a finite number, got '-nan'"),
        (["sweep", "--variable", "R", "--values", "-inf,10"],
         "invalid input: argument --values: expected a finite number, got '-inf'"),
        (["map", "--threads", "0"], "--threads"),
        (["map", "--threads", "-3"], "--threads"),
        (["radial", "--steps", "2.5"], "--steps"),
        (["sweep", "--variable", "R", "--values", "0.1,nan"], "--values"),
        (["sweep", "--variable", "R", "--values", ","], "--values"),
        (["sweep", "--variable", "R"], "--values"),
        (["sweep", "--variable", "X", "--values", "1"], "--variable"),
        # -h stays an option, so --values gets no value
        (["sweep", "--variable", "R", "--values", "-h"], "argument --values: expected one "
         "argument"),
        # a swept value that its key, its scenario or its plan refuses: the name as
        # given, then the reason that a config file with that value gets
        (["sweep", "--variable", "G_A", "--values", "3100"],
         "G_A = 3100.0: antennas.alice.gain_dbi: 3100 dB overflows a linear ratio"),
        (["sweep", "--variable", "G_E", "--values", "3100"],
         "G_E = 3100.0: antennas.eve.gain_dbi: 3100 dB overflows a linear ratio"),
        (["sweep", "--variable", "G_E", "--values", "10,-5"],
         "G_E = -5.0: antennas.eve.gain_dbi must be >= 0 and finite, got -5.0"),
        # negative values that argparse alone would take for options
        (["sweep", "--variable", "G_E", "--values", "-5,10"],
         "G_E = -5.0: antennas.eve.gain_dbi must be >= 0 and finite, got -5.0"),
        (["sweep", "--variable", "R", "--values", "-1e1"],
         "R = -10.0: code.rate_bits must be positive, got -10.0"),
        (["link", "--distance", "-5e0"], "invalid input: distance must be positive, got -5.0"),
        (["sweep", "--variable", "l_AB", "--values", "0"],
         "l_AB = 0.0: scenario.height_difference_m must lie in [1e-150, 1e+150] m, got 0.0"),
        (["sweep", "--variable", "l_AB", "--values", "1e-160"],
         "l_AB = 1e-160: scenario.height_difference_m must lie in [1e-150, 1e+150] m, "
         "got 1e-160"),
        # the echoed values are exact, not rounded to six digits
        (["sweep", "--variable", "n", "--values", "2000.0000001"],
         "n = 2000.0000001: code.n must be an integer, got 2000.0000001"),
        (["sweep", "--variable", "code.n", "--values", "2.5"],
         "code.n = 2.5: code.n must be an integer, got 2.5"),
        (["sweep", "--variable", "power.transmit_mw", "--values", "1,0"],
         "power.transmit_mw = 0.0: power.transmit_mw must be positive and finite, got 0.0"),
        (["sweep", "--variable", "antennas.alice.beamwidth_override_deg", "--values", "200"],
         "antennas.alice.beamwidth_override_deg = 200.0: antennas.alice.beamwidth_override_deg "
         "must lie in (0, 180], got 200.0"),
        (["sweep", "--variable", "antennas.alice.min_relative_gain_db", "--values", "-1"],
         "antennas.alice.min_relative_gain_db = -1.0: antennas.alice.min_relative_gain_db "
         "must be finite and at most the half-power level"),
        (["sweep", "--variable", "environment.temperature_k", "--values", "1e-320"],
         "environment.temperature_k = 1e-320: environment: noise power k*T*B*F of "
         "temperature_k, bandwidth_ghz and noise_figure_db must be positive and finite, "
         "got 0.0 W"),
        # the cell config refuses the directed receiver's distance, before the first plan
        (["sweep", "--variable", "scenario.horizontal_distance_m", "--values", "5"],
         "scenario.horizontal_distance_m = 5.0: scenario.horizontal_distance_m must be set in "
         "the directed variant and only there, got 5.0 in the cell variant"),
        (["sweep", "--variable", "d_AB", "--values", "5"],
         "d_AB = 5.0: scenario.horizontal_distance_m must be set in the directed variant"),
        (["radial", "--r-min", "29.999999999999996", "--r-max", "30", "--steps", "100"],
         "r_min 29.999999999999996 m to r_max 30.0 m in 100 steps"),
    )
])
def test_bad_argument_exits_2_naming_it(tmp_path, capsys, argv, option):
    path = write_config(tmp_path, base_config(str(tmp_path / "out")))
    out = tmp_path / "X"
    assert run([*argv, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid input: ") and option in err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set_alice_floor_above_half_power,
                 "antennas.alice.min_relative_gain_db must be finite and at most the half-power "
                 "level (a ratio of 1/2, about -3.0103 dB), got 5.0", id="alice floor 5 dB"),
    pytest.param(_set_height_underflowing,
                 "scenario.height_difference_m must lie in [1e-150, 1e+150] m, got 1e-300",
                 id="height 1e-300 m"),
    pytest.param(_set_directed_beyond_room,
                 "scenario.horizontal_distance_m must lie in (0, 20.0] m, up to "
                 "room_extent_m[0], got 70.0", id="directed receiver beyond room"),
    pytest.param(_set_temperature_underflowing,
                 "environment: noise power k*T*B*F of temperature_k, bandwidth_ghz and "
                 "noise_figure_db must be positive and finite, got 0.0 W",
                 id="temperature 1e-320 K"),
    # each value prints in its key's units, as the config gives it
    pytest.param(_set_carrier_overflowing,
                 "environment.carrier_frequency_ghz of 1e+300 overflows to inf Hz",
                 id="carrier 1e300 GHz"),
    pytest.param(_set_bandwidth_negative,
                 "environment.bandwidth_ghz must be positive and finite, got -2.0",
                 id="bandwidth -2 GHz"),
    pytest.param(_set_transmit_negative,
                 "power.transmit_mw must be positive and finite, got -1.0", id="transmit -1 mW"),
])
def test_config_refusal_names_the_key(tmp_path, capsys, edit, message):
    doc = base_config(str(tmp_path / "out"))
    edit(doc)
    assert run(["plan", "--config", str(write_config(tmp_path, doc))]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


# without power.transmit_mw, whose default the loader picks by the variant
@pytest.mark.parametrize("variant", ["ring", ["cell"], 5, {}], ids=json.dumps)
def test_a_bad_variant_exits_2_naming_it(tmp_path, capsys, variant):
    doc = base_config(str(tmp_path / "out"))
    doc["scenario"]["variant"] = variant
    del doc["power"]
    assert run(["plan", "--config", str(write_config(tmp_path, doc))]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid input: scenario.variant ")
    assert not (tmp_path / "out").exists()


# k*T*B*F underflows to 0 W; the refusal names config keys, and none is in hertz
@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_a_noise_power_refusal_names_no_field_in_hertz(tmp_path, capsys, config):
    doc = json.loads(config.read_text())
    doc["environment"]["bandwidth_ghz"] = 5e-324
    out = tmp_path / "out"
    assert run(["plan", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid input: environment: ") and "bandwidth_ghz" in line
    assert "_hz" not in line
    assert not out.exists()


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_the_smallest_height_still_plans(tmp_path, capsys, config):
    doc = json.loads(config.read_text())
    doc["scenario"]["height_difference_m"] = 1e-150
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert run(["plan", "--config", str(path), "--out", out]) == 0
    assert run(["sweep", "--config", str(config), "--variable", "l_AB", "--values", "1e-150",
                "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_echoed_inputs_print_their_exact_value(tmp_path, capsys):
    doc = json.loads(SHIPPED_CONFIGS[0].read_text())  # scenario1_cell.json
    doc["code"]["phi_target"] = 0.0012345678
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert run(["plan", "--config", str(path), "--out", out]) == 0
    assert "(target 0.0012345678)\n" in capsys.readouterr().out
    assert run(["threshold", "--config", str(path), "--delta", "0.999999999", "--out", out]) == 0
    assert capsys.readouterr().out.endswith(" m (delta = 0.999999999)\n")


def test_empty_out_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    # the shipped config's output.dir is "out", which an ignored --out "" would create
    monkeypatch.chdir(tmp_path)
    assert run(["plan", "--config", str(SHIPPED_CONFIGS[0]), "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid input: argument --out: expected a non-empty "
                            "directory name\n")
    assert list(tmp_path.iterdir()) == []


def test_unresolvable_profile_exits_2(tmp_path, capsys):
    # R = 1.123 bit leaves the shipped cell plan almost no randomness, so even a
    # distant eavesdropper keeps the security level above the target
    doc = json.loads(SHIPPED_CONFIGS[0].read_text())  # scenario1_cell.json
    doc["code"]["rate_bits"] = 1.123
    out = tmp_path / "out"
    path = write_config(tmp_path, doc)
    assert run(["threshold", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid input: security level never fell below 0.001 "
                            "out to 1e6 m\n")
    assert not out.exists()


# 1.5 and 1 would write a radius, 0 and -1 double it out to 1e6 m first
@pytest.mark.parametrize("delta", ["1.5", "1", "0", "-1"])
def test_sweep_refuses_the_deltas_that_threshold_refuses(tmp_path, capsys, delta):
    cell = str(SHIPPED_CONFIGS[0])  # scenario1_cell.json
    out = tmp_path / "out"
    assert run(["threshold", "--config", cell, "--delta", delta, "--out", str(out)]) == 2
    threshold_err = capsys.readouterr().err
    assert run(["sweep", "--config", cell, "--variable", "n", "--values", "2000",
                "--delta", delta, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == threshold_err == f"invalid input: delta_0 must lie in (0, 1), " \
                                            f"got {float(delta)}\n"
    assert not out.exists()



# a cell row reads no grid, yet a cell sweep refuses these, as map and a directed
# sweep do, and before its first plan, in a line that names the area resolution
@pytest.mark.parametrize("resolution", ["-1", "0", "1e-9"])
def test_sweep_refuses_the_area_resolutions_that_map_refuses(tmp_path, capsys, monkeypatch,
                                                             resolution):
    cell = str(SHIPPED_CONFIGS[0])  # scenario1_cell.json
    out = tmp_path / "out"
    assert run(["map", "--config", cell, "--resolution", resolution, "--out", str(out)]) == 2
    map_err = capsys.readouterr().err
    plans = []
    monkeypatch.setattr(planner, "plan", lambda *args: plans.append(args))
    assert run(["sweep", "--config", cell, "--variable", "n", "--values", "500",
                "--area-resolution", resolution, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == map_err.replace("invalid input: ", "invalid input: area resolution: ")
    assert len(captured.err.splitlines()) == 1
    assert plans == []
    assert not out.exists()

def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_one_parser_serves_every_run_in_a_process(tmp_path, capsys, monkeypatch):
    """A rejected command line leaves the shared parser as it was: the commands after
    it write what each writes in a fresh interpreter."""
    assert cli.build_parser() is cli.build_parser()
    cell, directed = (str(path) for path in SHIPPED_CONFIGS)
    good = [
        ["sweep", "--config", directed, "--variable", "d_AB", "--values", "5,30",
         "--area-resolution", "4.0", "--out", "out/sweep"],
        ["plan", "--config", cell, "--out", "out/plan"],
    ]
    (tmp_path / "shared").mkdir()
    monkeypatch.chdir(tmp_path / "shared")
    assert run(["sweep", "--variable", "R", "--values", "0.1,nan", "--config", directed]) == 2
    assert run(["map", "--resolution", "abc", "--config", cell]) == 2
    capsys.readouterr()
    shared = []
    for argv in good:
        shared.append((run(argv), *capsys.readouterr()))

    (tmp_path / "fresh").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    fresh = []
    for argv in good:
        proc = subprocess.run([sys.executable, "-m", "thzsecmap.cli", *argv],
                              cwd=tmp_path / "fresh", env=env, capture_output=True, text=True,
                              timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0]
    files = _files(tmp_path / "shared")
    assert sorted(files) == ["out/plan/plan_metadata.json", "out/sweep/sweep.csv",
                             "out/sweep/sweep_metadata.json"]
    assert files == _files(tmp_path / "fresh")


def _bob_at_5_dbi(tmp_path: Path) -> Path:
    """The shipped cell config with Bob's gain apart from Alice's."""
    doc = json.loads(SHIPPED_CONFIGS[0].read_text())  # scenario1_cell.json
    doc["antennas"]["bob"]["gain_dbi"] = 5.0
    return write_config(tmp_path, doc, "bob_5_dbi.json")


SWEEP_CONFIGS = {"cell": lambda tmp_path: SHIPPED_CONFIGS[0],
                 "directed": lambda tmp_path: SHIPPED_CONFIGS[1],
                 "cell-bob-5-dBi": _bob_at_5_dbi}


def _key(doc: dict, path: str):
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


# every short name and numeric key path that each config sets (Bob's edit sets no new key)
SWEEP_CASES = [
    pytest.param(which, name, id=f"{which}-{name}")
    for which, config in (("cell", SHIPPED_CONFIGS[0]), ("directed", SHIPPED_CONFIGS[1]),
                          ("cell-bob-5-dBi", SHIPPED_CONFIGS[0]))
    for rc in [load_config(config)]
    for name in [*cli.SWEEP_ALIASES, *cli._numeric_paths()]
    if _key(rc.raw, cli.SWEEP_ALIASES.get(name, name)) is not None]


def _swept_rows(monkeypatch, config: Path, out: Path, variable: str, values: list) -> list:
    """The rows, as floats, that ``sweep`` writes for the values."""
    rows = []
    monkeypatch.setattr(cli, "write_sweep_csv", lambda swept, path: rows.extend(swept))
    assert run(["sweep", "--config", str(config), "--variable", variable,
                "--values", ",".join(map(repr, values)), "--area-resolution", "4.0",
                "--out", str(out)]) == 0
    return rows


# A row at the config's own value is that config: every short name and key path
# gives the direct calls' floats bit for bit.  Bob at 5 dBi shows that G_A moves
# Alice's gain alone.
@pytest.mark.parametrize("which, name", SWEEP_CASES)
def test_a_row_at_the_configs_own_value_is_that_config(tmp_path, monkeypatch, capsys,
                                                       which, name):
    config = SWEEP_CONFIGS[which](tmp_path)
    rc = load_config(config)
    value = _key(rc.raw, cli.SWEEP_ALIASES.get(name, name))
    [row] = _swept_rows(monkeypatch, config, tmp_path / "out", name, [value])
    sc = rc.scenario
    expected = planner.plan(sc, rc.n, rc.rate_bits, rc.phi_target)
    got = [row["c_ab_bits"], row["l_bits"], row["achieved_phi"]]
    want = [expected.c_ab_bits, expected.code.randomness_bits, expected.achieved_phi]
    if sc.variant == "cell":
        got += [row[c] for c in ("r_e0_m", "r_delta_hi_m", "r_delta_lo_m")]
        want += [secmap.threshold_radius(expected, sc, d) for d in (1e-3, 0.99, 0.01)]
    else:
        got.append(row["insecure_fraction"])
        want.append(secmap.insecure_fraction(secmap.evaluate_map(expected, sc, 4.0)))
    assert [v.hex() for v in got] == [v.hex() for v in want]


# A row away from the config's own value is the config with that one key replaced:
# written as a config, its document gives the row's plan and radius through the CLI.
@pytest.mark.parametrize("which, name", SWEEP_CASES)
def test_a_rows_document_reproduces_the_row(tmp_path, monkeypatch, capsys, which, name):
    config = SWEEP_CONFIGS[which](tmp_path)
    doc = json.loads(config.read_text())
    path = cli.SWEEP_ALIASES.get(name, name)
    own = _key(load_config(config).raw, path)
    value = round(own * 1.1) if path == "code.n" else own * 1.1
    [row] = _swept_rows(monkeypatch, config, tmp_path / "sweep", name, [float(value)])
    *sections, key = path.split(".")
    section = doc
    for part in sections:
        section = section.setdefault(part, {})
    section[key] = value
    command = "threshold" if doc["scenario"]["variant"] == "cell" else "plan"
    assert run([command, "--config", str(write_config(tmp_path, doc, "row.json")),
                "--out", str(tmp_path / "row")]) == 0
    meta = json.loads((tmp_path / "row" / f"{command}_metadata.json").read_text())["run"]
    assert (row["c_ab_bits"], row["l_bits"], row["achieved_phi"]) == (
        meta["plan"]["c_ab_bits"], meta["plan"]["randomness_bits"],
        meta["plan"]["achieved_phi"])
    if command == "threshold":
        assert row["r_e0_m"] == meta["threshold"]["r_e0_m"]


def test_readme_lists_each_sweep_alias_with_its_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = dict(re.findall(r"^\| `(\w+)` \| `([\w.]+)`", readme, re.MULTILINE))
    assert listed == cli.SWEEP_ALIASES
