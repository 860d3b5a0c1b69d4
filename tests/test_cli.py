import json
import math
from pathlib import Path

import pytest

from conftest import CALIBRATED_BEAMWIDTH_DEG
from thzsecmap.cli import load_config, run
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

    @pytest.mark.parametrize("section, key", [("code", "blocklen"),
                                              ("scenario", "transmitter_setback_m")],
                             ids=["code.blocklen", "scenario.transmitter_setback_m"])
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key):
        doc = base_config(str(tmp_path / "out"))
        doc[section][key] = 100
        path = write_config(tmp_path, doc)
        assert run(["plan", "--config", str(path)]) == 2
        assert f"unknown key {section}.{key}" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"environment": \n  !')
        assert run(["plan", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

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
        assert "horizontal_distance_m" in capsys.readouterr().err

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


class TestMapCommand:
    def test_writes_expected_files_only(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(str(out)))
        assert run(["map", "--config", str(path), "--resolution", "4.0",
                    "--threads", "1"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["map.csv", "map.pgm", "map_metadata.json"]
        # nothing written outside the output directory
        outside = [p.name for p in tmp_path.iterdir() if p.is_file()]
        assert outside == ["config.json"]

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
        expected = plan(rc.scenario, rc.n, rc.rate_bits, rc.phi_target,
                        rc.scenario.transmit_power_w)
        assert meta["run"]["plan"]["randomness_bits"] == expected.code.randomness_bits
        assert meta["power"]["transmit_mw"] == 2.5
        assert meta["antennas"]["eve"]["gain_dbi"] == rc.scenario.eve.gain_dbi
        assert meta["scenario"]["variant"] == "cell"
        assert meta["run"]["map"] == {"resolution_m": 4.0, "nx": 6, "ny": 6,
                                      "origin_m": [-10.0, -10.0], "receiver_height_m": 1.0}

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
        from dataclasses import replace

        from conftest import CALIBRATED_TX_POWER_W
        from thzsecmap import plan_cell, threshold_radius

        out = tmp_path / "out"
        doc = base_config(str(out))
        path = write_config(tmp_path, doc)
        assert run(["threshold", "--config", str(path), "--delta", "1e-3"]) == 0
        meta = json.loads((out / "threshold_metadata.json").read_text())
        cfg = replace(cell_config, room_extent_m=(20.0, 20.0))
        plan = plan_cell(cfg, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W)
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


def _set_eve_floor_minus_inf(doc):
    doc["antennas"]["eve"]["min_relative_gain_db"] = -math.inf


def _set_room_below_footprint(doc):
    doc["scenario"]["room_extent_m"] = [10.0, 10.0]  # the cone footprint radius is 7.2 m


def _set_directed(doc):
    doc.update(base_config(doc["output"]["dir"], variant="directed"))


def _set_directed_beyond_room(doc):
    _set_directed(doc)
    doc["scenario"]["horizontal_distance_m"] = 70.0


def _set_directed_small_kappa(doc):
    _set_directed(doc)
    # 20 dBi gives a 1e-151 deg beamwidth, which loads; the swept 60 dBi gives 1e-153 deg
    doc["antennas"]["alice"]["kappa_deg2"] = 1e-300


@pytest.mark.parametrize("argv, edit", [
    *[pytest.param(argv, None, id=" ".join(argv)) for argv in (
        ["map", "--resolution", "-1"],
        ["map", "--resolution", "0"],
        ["threshold", "--delta", "2"],
        ["threshold", "--delta", "0"],
        ["radial", "--steps", "1"],
        ["radial", "--r-min", "5", "--r-max", "1"],
        ["radial", "--r-max", "1e200", "--steps", "3"],
        ["link", "--distance", "-3"],
        ["sweep", "--variable", "phi_target", "--values", "2"],
        ["sweep", "--variable", "R", "--values", "-1"],
        ["sweep", "--variable", "G_E", "--values", "-5"],
        ["sweep", "--variable", "l_AB", "--values", "0"],
        ["sweep", "--variable", "G_A", "--values", "1e308"],
        ["map", "--resolution", "0.01"],
        ["map", "--resolution", "5e-324"],
    )],
    pytest.param(["plan"], _set_alice_gain_zero, id="plan alice gain 0 dBi"),
    pytest.param(["plan"], _set_transmit_nan, id="plan transmit_mw NaN"),
    pytest.param(["plan"], _set_temperature_inf, id="plan temperature_k Infinity"),
    pytest.param(["plan"], _set_eve_floor_minus_inf, id="plan eve floor -Infinity"),
    pytest.param(["plan"], _set_room_below_footprint, id="plan cell room 10 m"),
    pytest.param(["plan"], _set_directed_beyond_room, id="plan directed receiver beyond room"),
    pytest.param(["sweep", "--variable", "d_AB", "--values", "70"], _set_directed,
                 id="sweep directed d_AB 70"),
    pytest.param(["sweep", "--variable", "G_A", "--values", "60"], _set_directed_small_kappa,
                 id="sweep directed G_A 60 on kappa 1e-300"),
])
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, argv, edit):
    doc = base_config(str(tmp_path / "out"))
    if edit is not None:
        edit(doc)
    path = write_config(tmp_path, doc)
    assert run([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid input: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# warnings become errors, so a numpy warning ahead of the message fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, option", [
    pytest.param(argv, option, id=" ".join(argv)) for argv, option in (
        (["map", "--resolution", "abc"], "--resolution"),
        (["map", "--resolution", "nan"], "--resolution"),
        (["radial", "--r-max", "inf", "--steps", "3"], "--r-max"),
        (["link", "--distance", "-inf"], "--distance"),
        (["map", "--threads", "0"], "--threads"),
        (["map", "--threads", "-3"], "--threads"),
        (["radial", "--steps", "2.5"], "--steps"),
        (["sweep", "--variable", "R", "--values", "0.1,nan"], "--values"),
        (["sweep", "--variable", "R", "--values", ","], "--values"),
        (["sweep", "--variable", "R"], "--values"),
        (["sweep", "--variable", "X", "--values", "1"], "--variable"),
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


def test_unresolvable_profile_exits_2(tmp_path, capsys, monkeypatch):
    from thzsecmap.secmap import _EveEvaluator

    def bumpy(self, radius_m):
        if 3.0 < radius_m < 5.0:
            return 0.9
        return max(0.0, 0.5 - 0.05 * radius_m)

    monkeypatch.setattr(_EveEvaluator, "delta_at_radius", bumpy)
    path = write_config(tmp_path, base_config(str(tmp_path / "out")))
    assert run(["threshold", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not monotone" in err
