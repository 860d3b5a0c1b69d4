import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import oracles
from conftest import CALIBRATED_TX_POWER_MW
from thzsecmap import (
    ConfigError,
    InfeasiblePlanError,
    Scene,
    beamwidth_from_gain,
    cone_radius,
    evaluate_map,
    insecure_fraction,
    link_budget,
    link_from_snr,
    min_security,
    pattern_gain,
    plan_cell,
    plan_directed,
    radial_profile,
    receiver_x,
    sweep,
    threshold_radius,
)
from thzsecmap import geometry, planner, secmap
from thzsecmap.cli import SWEEP_ALIASES, load_config, run, sweep_row
from thzsecmap.secmap import (
    SWEEP_COLUMNS,
    MapValues,
    RadialProfile,
    SecrecyMapGrid,
    SecurityCurve,
    write_map_csv,
    write_map_pgm,
    write_profile_csv,
    write_sweep_csv,
)

CONFIGS = Path(__file__).parent.parent / "src" / "thzsecmap" / "configs"


@pytest.fixture
def small_cell(cell_config):
    return cell_config._replace(room_extent_m=(24.0, 24.0))


@pytest.fixture
def cell_plan(small_cell):
    return plan_cell(small_cell, 2000, 0.2, 1e-3)


def shipped(name):
    rc = load_config(CONFIGS / name)
    sc = rc.scenario
    return sc, planner.plan(sc, rc.n, rc.rate_bits, rc.phi_target)


def shipped_sweep(name, variable, values, **kwargs):
    """``sweep --variable variable`` of a shipped config, in-process: rows of the config
    with the key that ``variable`` names, a short name or a key path, replaced."""
    rc = load_config(CONFIGS / name)
    return sweep(rc.scenario, variable, values,
                 sweep_row(rc, SWEEP_ALIASES.get(variable, variable)), **kwargs)


# The per-point layers that perfbench traces, where Eve's links and levels look
# them up: the bound in secmap, the link in geometry's Scene.eve_link.  Its tracer,
# like these counters, swaps module attributes, so each layer must be looked up when
# it is called; the plan's own link looks up planner's names and is not counted.
LINK_PATH = ((secmap, "min_security"), (geometry, "pattern_gain"), (geometry, "link_budget"),
             (geometry, "offset_angle"))


def count_calls(monkeypatch, targets=LINK_PATH) -> dict[str, list]:
    """Record the arguments of every call through each ``(module, name)`` of ``targets``."""
    calls = {}
    for module, name in targets:
        record = calls[name] = []
        original = getattr(module, name)

        def counted(*args, _original=original, _record=record, **kwargs):
            _record.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_probes(monkeypatch, search) -> tuple[int, int]:
    """Eve's links and the bound minimizations that ``search()`` makes."""
    calls = count_calls(monkeypatch, ((geometry, "link_budget"), (secmap, "min_security")))
    search()
    return len(calls["link_budget"]), len(calls["min_security"])


def _brute_force(map_plan, config, grid) -> np.ndarray:
    """The level at every grid point, from its own link and bound minimization."""
    return np.array([[min_security(map_plan.code, oracles.eve_link(config, x, y))[0]
                      for x in grid.xs] for y in grid.ys])


class TestEvaluateMap:
    def test_values_in_unit_interval(self, cell_plan, small_cell):
        grid = evaluate_map(cell_plan, small_cell, 2.0)
        assert type(grid.values) is MapValues
        assert all(type(row) is tuple and all(type(v) is float for v in row)
                   for row in grid.values)
        assert grid.values.size == len(grid.xs) * len(grid.ys)
        values = np.asarray(grid.values)
        assert values.shape == (13, 13)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_radial_symmetry_exact(self, cell_plan, small_cell):
        values = np.asarray(evaluate_map(cell_plan, small_cell, 2.0).values)
        assert np.array_equal(values, values[:, ::-1])
        assert np.array_equal(values, values[::-1, :])
        assert np.array_equal(values, values.T)

    def test_center_insecure_far_corner_secure(self, cell_config, calibrated_alice):
        plan = plan_cell(cell_config, 2000, 0.2, 1e-3)
        grid = evaluate_map(plan, cell_config, 6.0)
        cy = len(grid.ys) // 2
        cx = len(grid.xs) // 2
        values = np.asarray(grid.values)
        assert values[cy, cx] > 0.99
        assert values[0, 0] < 1e-6

    def test_single_point_equals_direct_call(self, cell_plan, small_cell):
        grid = evaluate_map(cell_plan, small_cell, 3.0)
        iy, ix = 1, 2  # off-center point in the transition region of this room
        d, theta = Scene(small_cell).path(float(grid.xs[ix]), float(grid.ys[iy]))
        g_tx = pattern_gain(small_cell.alice, theta)
        link = link_budget(CALIBRATED_TX_POWER_MW * 1e-3, g_tx, small_cell.eve.gain_linear, d,
                           small_cell.environment)
        assert min_security(cell_plan.code, link)[0] == np.asarray(grid.values)[iy, ix]

    def test_repeat_is_identical(self, cell_plan, small_cell, tmp_path):
        one = evaluate_map(cell_plan, small_cell, 2.0)
        again = evaluate_map(cell_plan, small_cell, 2.0)
        assert np.array_equal(one.values, again.values)
        write_map_csv(one, tmp_path / "one.csv")
        write_map_csv(again, tmp_path / "again.csv")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_infeasible_plan_rejected(self, small_cell):
        bad = plan_cell(small_cell, 2000, 3.0, 1e-3)
        with pytest.raises(InfeasiblePlanError):
            evaluate_map(bad, small_cell, 2.0)

    def test_eve_gain_dominance(self, small_cell):
        plan = plan_cell(small_cell, 2000, 0.2, 1e-3)
        low = evaluate_map(plan, small_cell, 2.0)
        boosted = small_cell._replace(eve=small_cell.eve._replace(gain_dbi=20.0))
        high = evaluate_map(plan, boosted, 2.0)
        assert np.all(np.asarray(high.values) >= np.asarray(low.values))

    # the non-square room pairs x and y values from different axes, whose
    # magnitudes need not match bit for bit
    @pytest.mark.parametrize("name, room, resolution", [
        ("scenario1_cell.json", None, 2.0),
        ("scenario1_cell.json", (60.0, 40.0), 0.7),
        ("scenario2_directed.json", None, 2.0),
        ("scenario2_directed.json", None, 1.0),
    ])
    def test_memo_equals_brute_force(self, name, room, resolution):
        config, map_plan = shipped(name)
        if room is not None:
            config = config._replace(room_extent_m=room)
        grid = evaluate_map(map_plan, config, resolution)
        assert np.asarray(grid.values).tobytes() == _brute_force(map_plan, config, grid).tobytes()

    # Each column walks outward over |y| and stops at its first exact zero, so
    # a map builds a link for each class with delta > 0 and for each column's
    # first zero, and a bound minimization for each distinct SNR among them:
    # (links, bound minimizations) per map.  The cell maps hold no zero.
    WORK = {("scenario1_cell.json", 2.0): (136, 120),
            ("scenario1_cell.json", 0.25): (7381, 5251),
            ("scenario2_directed.json", 4.0): (39, 39),
            ("scenario2_directed.json", 0.25): (5986, 5986)}

    @pytest.mark.parametrize("name, resolution, points, classes", [
        ("scenario1_cell.json", 2.0, 961, 136),  # 16 |x| values, unordered pairs
        ("scenario1_cell.json", 0.25, 58081, 7381),  # 121 |x| values
        ("scenario2_directed.json", 4.0, 256, 128),  # 16 x values times 8 |y| values
        ("scenario2_directed.json", 0.25, 58081, 29161),  # 241 x values times 121 |y|
    ])
    def test_each_symmetry_class_evaluated_once(self, monkeypatch, name, resolution, points,
                                                classes):
        config, map_plan = shipped(name)
        calls = count_calls(monkeypatch)
        grid = evaluate_map(map_plan, config, resolution)
        assert grid.values.size == points
        links, bounds = self.WORK[name, resolution]
        counts = {layer: len(args) for layer, args in calls.items()}
        assert counts == {"min_security": bounds, "pattern_gain": links,
                          "link_budget": links, "offset_angle": links}
        cell = config.variant == geometry.CELL

        def key(x, y):  # the class's canonical position, as the map builds it
            a, u = abs(x) if cell else x, abs(y)
            return (u, a) if cell and u < a else (a, u)

        # from the grid: the classes with delta > 0, plus each column's first
        # zero, one per column that holds a zero (a cell class (a, u) lies in
        # columns a and u, so two cell columns may share their first zero)
        positive, zeros = set(), {}  # classes with delta > 0; x class -> |y| of its zeros
        for y, row in zip(grid.ys, grid.values):
            for x, v in zip(grid.xs, row):
                if v > 0.0:
                    positive.add(key(x, y))
                else:
                    zeros.setdefault(abs(x), []).append(abs(y))
        first_zeros = {key(a, min(us)) for a, us in zeros.items()}
        assert links == len(positive) + len(first_zeros)
        assert len(positive | {key(a, u) for a, us in zeros.items() for u in us}) == classes

    def test_mirrored_rows_are_one_tuple(self):
        config, map_plan = shipped("scenario1_cell.json")
        grid = evaluate_map(map_plan, config, 2.0)
        rows = grid.values
        assert all(rows[k] is rows[-1 - k] for k in range(len(rows)))
        assert len({id(row) for row in rows}) == 16

    @seed(20261025)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_equals_brute_force_on_random_configs(self, data):
        name = data.draw(st.sampled_from(["scenario1_cell.json", "scenario2_directed.json"]))
        rc = load_config(CONFIGS / name)
        config = rc.scenario
        ex, ey = (data.draw(st.floats(8.0, 60.0)) for _ in range(2))
        if config.variant == "directed":
            d_ab = data.draw(st.floats(1.0, ex))
            config = config._replace(horizontal_distance_m=d_ab)
        else:  # the receiver sits on the cone edge, which must lie in the room
            ex = max(ex, 2.0 * receiver_x(config._replace(room_extent_m=(60.0, 60.0))))
        config = config._replace(
            room_extent_m=(ex, ey),
            eve=config.eve._replace(gain_dbi=data.draw(st.floats(0.0, 30.0))),
            transmit_mw=config.transmit_mw * 10.0 ** data.draw(st.floats(-2.0, 1.0)))
        resolution = max(ex, ey) / data.draw(st.integers(8, 30))
        n = round(10.0 ** data.draw(st.floats(2.0, 4.7)))
        map_plan = planner.plan(config, n, rc.rate_bits, rc.phi_target)
        assume(map_plan.feasible)
        grid = evaluate_map(map_plan, config, resolution)
        brute = _brute_force(map_plan, config, grid)
        assert [v.hex() for row in grid.values for v in row] == [v.hex() for v in brute.flat]

    @pytest.mark.parametrize("name", ["scenario1_cell.json", "scenario2_directed.json"])
    def test_bob_link_is_one_path(self, monkeypatch, name):
        config = load_config(CONFIGS / name).scenario
        calls = count_calls(monkeypatch, ((planner, "link_budget"), (geometry, "offset_angle")))
        planner.bob_link(config)
        counts = {layer: len(args) for layer, args in calls.items()}
        assert counts == {"link_budget": 1, "offset_angle": 1}

    def test_eve_with_bobs_antenna_sees_bobs_link(self):
        config, _ = shipped("scenario1_cell.json")
        config = config._replace(eve=config.bob)
        bob = [v.hex() for v in planner.bob_link(config)[0]]
        eve = oracles.eve_link(config, receiver_x(config), 0.0)
        assert [v.hex() for v in eve] == bob
        assert [v.hex() for v in Scene(config).eve_link(receiver_x(config), 0.0)] == bob


class TestSecurityCurve:
    # The curve memoizes on the SNR: min_security reads a link only through
    # rho and its capacity, which must follow from the SNR alone, bit for bit.
    @seed(20261026)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(1e-6, 10.0), st.floats(1e-3, 1e4), st.floats(1e-3, 1e4),
           st.floats(0.01, 1e4))
    def test_a_link_is_fixed_by_its_snr(self, power, g_tx, g_rx, distance):
        config, _ = shipped("scenario1_cell.json")
        link = link_budget(power, g_tx, g_rx, distance, config.environment)
        again = link_from_snr(link.snr)
        assert (again.rho.hex(), again.capacity_nats.hex()) == \
            (link.rho.hex(), link.capacity_nats.hex())

    def test_exceeds_agrees_with_the_bound(self, monkeypatch):
        config, map_plan = shipped("scenario2_directed.json")
        xs, ys = geometry.grid_axes(config, 4.0)
        links = [oracles.eve_link(config, x, abs(y)) for x in xs for y in ys]
        assert secmap.INSECURE_LEVEL == 0.5
        expected = [min_security(map_plan.code, link)[0] > 0.5 for link in links]
        curve = SecurityCurve(map_plan)
        calls = count_calls(monkeypatch, ((secmap, "min_security"),))["min_security"]
        assert [curve.exceeds(link) for link in links] == expected
        # each SNR at most once, and none that the bracket already decides
        assert len(calls) == len({args[1].snr for args in calls}) < len(links)

    def test_delta_is_memoized_on_the_snr(self, monkeypatch):
        config, map_plan = shipped("scenario1_cell.json")
        curve = SecurityCurve(map_plan)
        calls = count_calls(monkeypatch, ((secmap, "min_security"),))["min_security"]
        levels = [curve.delta(link_from_snr(snr)) for snr in (0.5, 2.0, 0.5, 2.0, 0.5)]
        assert levels == [min_security(map_plan.code, link_from_snr(snr))[0]
                          for snr in (0.5, 2.0, 0.5, 2.0, 0.5)]
        assert len(calls) == 2

    def test_infeasible_plan_rejected(self, small_cell):
        with pytest.raises(InfeasiblePlanError):
            SecurityCurve(plan_cell(small_cell, 2000, 3.0, 1e-3))


class TestRadialProfile:
    def test_non_increasing(self, cell_plan, small_cell):
        profile = radial_profile(cell_plan, small_cell, 0.0, 25.0, 101)
        assert np.all(np.diff(profile.deltas) <= 1e-12)

    def test_starts_at_one_for_paper_parameters(self, cell_plan, small_cell):
        profile = radial_profile(cell_plan, small_cell, 0.0, 25.0, 26)
        assert profile.deltas[0] > 0.999

    def test_matches_map_at_grid_radii(self, cell_plan, small_cell):
        grid = evaluate_map(cell_plan, small_cell, 2.0)
        cy = len(grid.ys) // 2
        cx = len(grid.xs) // 2
        radii = [float(grid.xs[cx + k]) for k in range(1, 6)]
        profile = radial_profile(cell_plan, small_cell, radii[0], radii[-1], len(radii))
        for k, r in enumerate(radii):
            assert profile.deltas[k] == np.asarray(grid.values)[cy, cx + k], f"radius {r}"

    def test_directed_unsupported(self, directed_config):
        plan = plan_directed(directed_config, 2000, 0.2, 1e-3)
        with pytest.raises(ConfigError):
            radial_profile(plan, directed_config, 0.0, 10.0, 5)

    def test_one_link_and_one_bound_per_radius(self, monkeypatch):
        config, plan = shipped("scenario1_cell.json")
        assert count_probes(monkeypatch,
                            lambda: radial_profile(plan, config, 0.0, 30.0, 121)) == (121, 121)

    def test_bad_range(self, cell_plan, small_cell):
        with pytest.raises(ValueError):
            radial_profile(cell_plan, small_cell, 5.0, 5.0, 10)

    def test_radii_are_a_tuple_of_floats(self, cell_plan, small_cell):
        profile = radial_profile(cell_plan, small_cell, 0, 10, 5)
        assert profile.radii_m == (0.0, 2.5, 5.0, 7.5, 10.0)
        assert all(type(v) is float for v in profile.radii_m + profile.deltas)

    @pytest.mark.parametrize("start, stop, num", [(0.0, 30.0, 121), (0.0, 30.0, 1001),
                                                  (2.5, 17.3, 77), (0.1, 0.7, 3),
                                                  (1e-300, 1e150, 4097)])
    def test_radii_equal_numpy_linspace(self, start, stop, num):
        assert secmap._linspace(start, stop, num) == tuple(np.linspace(start, stop, num).tolist())

    def test_a_step_that_underflows_is_refused(self, cell_plan, small_cell):
        # 2e-323 / 9 rounds to 0; numpy would scale k / 9 instead and still repeat radii
        with pytest.raises(ValueError, match=re.escape(
                "r_min 0.0 m to r_max 2e-323 m in 10 steps gives radii that are not strictly "
                "increasing; widen the range or use fewer steps")):
            radial_profile(cell_plan, small_cell, 0.0, 2e-323, 10)

    @pytest.mark.parametrize("radii, deltas, message", [
        ((0.0, math.nan, 2.0), (1.0, 0.5, 0.0), "finite"),
        ((0.0, 1.0, math.inf), (1.0, 0.5, 0.0), "finite"),
        ((-math.inf, 0.0), (1.0, 0.5), "finite"),
        ((0.0, 1.0, 2.0), (1.0, 0.5), "3 radii but 2"),
        ((0.0, 1.0), (1.0, 0.5, 0.0), "2 radii but 3"),
        ((0.0, 2.0, 1.0), (1.0, 0.5, 0.0), "strictly increasing"),
    ])
    def test_rejects_bad_radii(self, radii, deltas, message):
        with pytest.raises(ValueError, match=message):
            RadialProfile(radii_m=radii, deltas=deltas)


class TestThresholdRadius:
    def test_matches_dense_scan(self, cell_plan, small_cell):
        r = threshold_radius(cell_plan, small_cell, 1e-3)
        scan = oracles.scan_crossing_radius(
            lambda r: min_security(cell_plan.code,
                                   oracles.eve_link(small_cell, r, 0.0))[0], 1e-3,
            r_max=40.0)
        assert abs(r - scan) <= 0.02

    def test_zero_when_secure_everywhere(self, small_cell):
        # a weak, distant eavesdropper never reaches the target level, even on axis
        plan = plan_cell(small_cell, 8000, 0.2, 1e-3)
        quiet = small_cell._replace(eve=small_cell.eve._replace(gain_dbi=0.0),
                                    height_difference_m=8.5)
        assert threshold_radius(plan, quiet, 0.999999) == 0.0

    def test_delta_validation(self, cell_plan, small_cell):
        with pytest.raises(ValueError):
            threshold_radius(cell_plan, small_cell, 0.0)
        with pytest.raises(ValueError):
            threshold_radius(cell_plan, small_cell, 1.0)

    def test_directed_unsupported(self, directed_config):
        plan = plan_directed(directed_config, 2000, 0.2, 1e-3)
        with pytest.raises(ConfigError):
            threshold_radius(plan, directed_config, 1e-3)

    def test_one_link_and_one_bound_per_probe(self, monkeypatch):
        config, plan = shipped("scenario1_cell.json")
        assert count_probes(monkeypatch, lambda: threshold_radius(plan, config, 1e-3)) == (13, 13)

    # The bisection needs a level that does not rise with the radius.  The level
    # does not fall as Eve's SNR rises (test_bounds.py), so the SNR must not
    # rise with the radius, for every antenna pattern and height.  A sidelobe
    # floor above the half-power level (about -3.0103 dB) is refused.
    @seed(20261022)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(0.0, 40.0), st.one_of(st.none(), st.floats(0.5, 180.0)),
           st.one_of(st.none(), st.floats(-80.0, -3.02)), st.floats(0.0, 40.0),
           st.floats(0.05, 50.0), st.lists(st.floats(0.0, 500.0), min_size=1, max_size=40))
    def test_eve_snr_does_not_rise_with_the_radius(self, gain, beamwidth, floor, eve_gain,
                                                   height, drawn):
        config, _ = shipped("scenario1_cell.json")
        config = config._replace(
            alice=config.alice._replace(gain_dbi=gain, beamwidth_override_deg=beamwidth,
                                        min_relative_gain_db=floor),
            eve=config.eve._replace(gain_dbi=eve_gain),
            height_difference_m=height)
        radii = sorted({*(k / 4.0 for k in range(401)), *drawn,
                        *(math.nextafter(r, math.inf) for r in drawn)})
        snrs = [oracles.eve_link(config, r, 0.0).snr for r in radii]
        for k in range(1, len(radii)):
            assert snrs[k] <= snrs[k - 1], (radii[k - 1], radii[k])

    # A map walks each grid column outward over |y| and the directed sweep
    # bisects it, so Eve's SNR must not rise as |y| grows at a fixed x either,
    # for every pattern, height and d_AB, on a cell column as on a directed one.
    @pytest.mark.parametrize("name", ["scenario1_cell.json", "scenario2_directed.json"])
    @seed(20261023)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(0.0, 40.0), st.one_of(st.none(), st.floats(0.5, 180.0)),
           st.one_of(st.none(), st.floats(-80.0, -3.02)), st.floats(0.0, 40.0),
           st.floats(0.05, 50.0),
           st.one_of(st.floats(0.0, 60.0, exclude_min=True), st.just(60.0)),  # the room's depth
           st.lists(st.floats(0.0, 60.0), max_size=3),
           st.lists(st.floats(0.0, 500.0), min_size=1, max_size=40))
    def test_eve_snr_does_not_rise_along_a_column(self, name, gain, beamwidth, floor, eve_gain,
                                                  height, d_ab, drawn_xs, drawn_us):
        config, _ = shipped(name)
        config = config._replace(
            alice=config.alice._replace(gain_dbi=gain, beamwidth_override_deg=beamwidth,
                                        min_relative_gain_db=floor),
            eve=config.eve._replace(gain_dbi=eve_gain),
            height_difference_m=height)
        width = config.room_extent_m[0]
        if config.variant == geometry.DIRECTED:
            config = config._replace(horizontal_distance_m=d_ab)
            # the transmitter wall, Bob and the far wall
            columns = [0.0, d_ab, width]
        else:
            # the transmitter axis, the cone's edge where it meets the floor, and the side wall
            columns = [0.0, width / 2.0]
            if beamwidth_from_gain(config.alice) < 180.0:
                columns.append(cone_radius(config.alice, height))
        us = sorted({*(k / 4.0 for k in range(121)), *drawn_us,
                     *(math.nextafter(u, math.inf) for u in drawn_us)})
        for x in (*columns, *drawn_xs):
            snrs = [oracles.eve_link(config, x, u).snr for u in us]
            for k in range(1, len(us)):
                assert snrs[k] <= snrs[k - 1], (x, us[k - 1], us[k])


class TestSweep:
    def test_gain_sweep_reproduces_footprint_shrink(self, paper_env, cell_config):
        cfg = cell_config._replace(alice=cell_config.alice._replace(beamwidth_override_deg=None),
                                   transmit_mw=9.0)
        rows = sweep(cfg, "G_A", [10.0, 15.0, 20.0, 25.0],
                     lambda g: (cfg._replace(alice=cfg.alice._replace(gain_dbi=g)),
                                2000, 0.2, 1e-3))
        radii = [row["r_b_m"] for row in rows]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_blocklength_sweep_sharpens_transition(self, cell_config):
        rows = sweep(cell_config, "n", [500, 2000, 8000], lambda n: (cell_config, n, 0.2, 1e-3))
        widths = [row["transition_width_m"] for row in rows]
        r_e0 = [row["r_e0_m"] for row in rows]
        assert widths[0] > widths[1] > widths[2]
        assert r_e0[0] > r_e0[1] > r_e0[2]

    def test_rate_sweep_grows_threshold(self, cell_config):
        cfg9 = cell_config._replace(transmit_mw=9.0)
        rows = sweep(cfg9, "R", [0.1, 0.2, 0.4], lambda r: (cfg9, 2000, r, 1e-3))
        r_e0 = [row["r_e0_m"] for row in rows]
        assert r_e0[0] <= r_e0[1] <= r_e0[2]

    def test_directed_distance_sweep_grows_area(self, directed_config):
        rows = sweep(directed_config, "d_AB", [5.0, 15.0, 25.0],
                     lambda d: (directed_config._replace(horizontal_distance_m=d),
                                2000, 0.2, 1e-3),
                     area_resolution_m=3.0)
        fracs = [row["insecure_fraction"] for row in rows]
        assert fracs[0] <= fracs[1] <= fracs[2]
        assert all(row["r_e0_m"] is None for row in rows)

    # sweep knows no names: the command line refuses every name but the short
    # names and the numeric key paths, in one line that names --variable
    def test_unknown_variable_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        for variable in ("bogus", "scenario.variant", "scenario.room_extent_m", "output.dir",
                         "run", "code", "G_B"):
            assert run(["sweep", "--config", str(CONFIGS / "scenario1_cell.json"),
                        "--variable", variable, "--values", "1", "--out", str(out)]) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("invalid input: argument --variable: invalid choice"), variable
        assert not out.exists()

    # the cell config refuses the directed receiver's distance in the first row
    def test_d_ab_requires_directed(self, monkeypatch):
        plans = count_calls(monkeypatch, ((planner, "plan"),))["plan"]
        with pytest.raises(ConfigError, match=r"^d_AB = 5\.0: scenario\.horizontal_distance_m "
                                              r"must be set in the directed variant and only "
                                              r"there, got 5\.0 in the cell variant$"):
            shipped_sweep("scenario1_cell.json", "d_AB", [5.0, 10.0])
        assert plans == []  # refused before the first plan

    def test_crossings_share_evaluations(self, cell_config, monkeypatch):
        calls = count_calls(monkeypatch)["min_security"]
        [row] = sweep(cell_config, "n", [2000], lambda n: (cell_config, n, 0.2, 1e-3))
        in_sweep = len(calls)
        calls.clear()
        row_plan = planner.plan(cell_config, 2000, 0.2, 1e-3)
        for column, level in (("r_delta_hi_m", 0.99), ("r_e0_m", 1e-3), ("r_delta_lo_m", 0.01)):
            assert row[column] == threshold_radius(row_plan, cell_config, level), column
        assert 0 < in_sweep < len(calls)

    # The three crossings of a row share one curve: a radius that two of them
    # probe builds its link again but costs no second bound minimization.
    @pytest.mark.parametrize("n, bounds", [(500, 29), (2000, 25), (8000, 24)])
    def test_cell_row_link_and_bound_counts(self, monkeypatch, n, bounds):
        counts = count_probes(monkeypatch,
                              lambda: shipped_sweep("scenario1_cell.json", "n", [float(n)]))
        assert counts == (39, bounds)

    # README quotes these: a directed row, d_AB 5 to 30 m on the shipped config,
    # builds 19-52 links and runs 3-13 bound minimizations at 4.0 m, 409-1612 and
    # 18-57 at 0.25 m
    @pytest.mark.parametrize("resolution, links, bounds", [(4.0, (19, 52), (3, 13)),
                                                           (0.25, (409, 1612), (18, 57))])
    def test_directed_row_counts_quoted_in_readme(self, monkeypatch, resolution, links,
                                                  bounds):
        counts = [count_probes(monkeypatch, lambda: shipped_sweep(
                      "scenario2_directed.json", "d_AB", [d_ab], area_resolution_m=resolution))
                  for d_ab in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)]
        row_links, row_bounds = zip(*counts)
        assert (min(row_links), max(row_links)) == links
        assert (min(row_bounds), max(row_bounds)) == bounds
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        assert all(f"{lo}–{hi}" in readme for lo, hi in (links, bounds))

    @pytest.mark.parametrize("delta_0", [1.5, 1.0, 0.0, -1.0])
    def test_delta_outside_the_unit_interval_rejected(self, cell_config, monkeypatch, delta_0):
        plans = count_calls(monkeypatch, ((planner, "plan"),))["plan"]
        with pytest.raises(ValueError, match=r"delta_0 must lie in \(0, 1\)"):
            sweep(cell_config, "n", [2000], lambda n: (cell_config, n, 0.2, 1e-3),
                  delta_0=delta_0)
        assert plans == []  # refused before the first plan

    def test_infeasible_rows_marked(self, cell_config):
        rows = sweep(cell_config, "R", [0.2, 2.5], lambda r: (cell_config, 2000, r, 1e-3))
        assert rows[0]["feasible"] and not rows[1]["feasible"]
        assert rows[1]["l_bits"] is None

    def test_non_finite_rate_rejected(self):
        with pytest.raises(ConfigError, match="^R = nan: code.rate_bits must be finite, got nan$"):
            shipped_sweep("scenario2_directed.json", "R", [math.nan])

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_blocklength_rejected(self, value):
        with pytest.raises(ConfigError, match=f"^n = {value!r}: code.n must be an integer, "
                                              f"got {value!r}$"):
            shipped_sweep("scenario1_cell.json", "n", [value])


def _map_fraction(config, n, rate_bits, phi_target, resolution_m):
    """The directed column's reference: the count over the full map."""
    map_plan = planner.plan(config, n, rate_bits, phi_target)
    return insecure_fraction(evaluate_map(map_plan, config, resolution_m))


@st.composite
def directed_cases(draw):
    """A directed scenario around the shipped one, its code and an area resolution."""
    config = load_config(CONFIGS / "scenario2_directed.json").scenario
    gain = draw(st.floats(10.0, 30.0))
    config = config._replace(
        alice=config.alice._replace(gain_dbi=gain), bob=config.bob._replace(gain_dbi=gain),
        eve=config.eve._replace(gain_dbi=draw(st.floats(5.0, 30.0))),
        height_difference_m=draw(st.floats(1.0, 10.0)),
        horizontal_distance_m=draw(st.floats(1.0, 60.0)))
    code = (draw(st.integers(200, 8000)), draw(st.floats(0.05, 1.0)),
            10.0 ** draw(st.floats(-6.0, -1.0)))
    return config, code, draw(st.floats(1.5, 6.0))


class TestDirectedInsecureFraction:
    """The directed sweep column bisects on Eve's SNR; the full map's count is the reference."""

    # 0.7 m and 1/3 m give y axes whose |y| values do not pair up; 0.25 m,
    # the default map grid, is checked on one row only.
    @pytest.mark.parametrize("resolution", [4.0, 2.0, 0.7, 1.0 / 3.0, 0.25])
    def test_equals_the_map_count_on_the_shipped_config(self, resolution):
        rc = load_config(CONFIGS / "scenario2_directed.json")
        distances = [15.0] if resolution == 0.25 else [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        rows = shipped_sweep("scenario2_directed.json", "d_AB", distances,
                             area_resolution_m=resolution)
        for row, d_ab in zip(rows, distances):
            config = rc.scenario._replace(horizontal_distance_m=d_ab)
            expected = _map_fraction(config, rc.n, rc.rate_bits, rc.phi_target, resolution)
            assert row["insecure_fraction"].hex() == expected.hex(), d_ab
        assert rows[-1]["insecure_fraction"] > 0.0

    @pytest.mark.parametrize("variable, value, resolution", [
        ("d_AB", 2.0, 1e300),  # a one-point grid, insecure
        ("d_AB", 15.0, 1e300),  # and secure
        ("G_A", 300.0, 1.0),  # a beam narrower than a grid cell
    ])
    def test_equals_the_map_count_on_edge_grids(self, variable, value, resolution):
        rc = load_config(CONFIGS / "scenario2_directed.json")
        [row] = shipped_sweep("scenario2_directed.json", variable, [value],
                              area_resolution_m=resolution)
        config = rc.scenario
        if variable == "d_AB":
            config = config._replace(horizontal_distance_m=value)
        else:  # Alice's gain alone
            config = config._replace(alice=config.alice._replace(gain_dbi=value))
        expected = _map_fraction(config, rc.n, rc.rate_bits, rc.phi_target, resolution)
        assert row["insecure_fraction"].hex() == expected.hex()

    @seed(20261020)
    @settings(max_examples=60, deadline=None, database=None)
    @given(directed_cases())
    def test_equals_the_map_count_on_random_configs(self, case):
        config, (n, rate_bits, phi_target), resolution = case
        d_ab = config.horizontal_distance_m
        [row] = sweep(config, "d_AB", [d_ab],
                      lambda d: (config._replace(horizontal_distance_m=d), n, rate_bits,
                                 phi_target),
                      area_resolution_m=resolution)
        if not row["feasible"]:
            assert row["insecure_fraction"] is None
            return
        expected = _map_fraction(config, n, rate_bits, phi_target, resolution)
        assert row["insecure_fraction"].hex() == expected.hex()

    def test_a_level_of_exactly_one_half_is_not_insecure(self, monkeypatch):
        rc = load_config(CONFIGS / "scenario2_directed.json")
        row_plan = planner.plan(rc.scenario, rc.n, rc.rate_bits, rc.phi_target)
        xs, ys = geometry.grid_axes(rc.scenario, 4.0)
        snrs = sorted({oracles.eve_link(rc.scenario, x, abs(y)).snr
                       for x in xs for y in ys})
        low, high = snrs[len(snrs) // 3], snrs[2 * len(snrs) // 3]

        def steps(code, link):  # 0, then exactly INSECURE_LEVEL, then 1, rising with the SNR
            return (0.0 if link.snr < low else 0.5 if link.snr < high else 1.0), None

        monkeypatch.setattr(secmap, "min_security", steps)
        [row] = shipped_sweep("scenario2_directed.json", "d_AB",
                              [rc.scenario.horizontal_distance_m], area_resolution_m=4.0)
        grid = evaluate_map(row_plan, rc.scenario, 4.0)
        values = np.asarray(grid.values)
        assert np.count_nonzero(values == 0.5) > 0
        assert row["insecure_fraction"] == insecure_fraction(grid)
        assert row["insecure_fraction"] == np.count_nonzero(values == 1.0) / values.size

    # Three rows of the shipped config: exact link and bound counts, and the
    # structural bounds of a bisection per grid column with one bound per link.
    @pytest.mark.parametrize("resolution", [4.0, 2.0])
    def test_column_bisection_link_and_bound_counts(self, monkeypatch, resolution):
        links, bounds = {4.0: (96, 23), 2.0: (241, 31)}[resolution]
        rc = load_config(CONFIGS / "scenario2_directed.json")
        xs, ys = geometry.grid_axes(rc.scenario, resolution)
        depths = len({abs(y) for y in ys})  # the classes of one column
        distances = [5.0, 15.0, 30.0]
        calls = count_calls(monkeypatch)
        shipped_sweep("scenario2_directed.json", "d_AB", distances, area_resolution_m=resolution)
        rows = len(distances)
        assert len(calls["link_budget"]) == len(calls["pattern_gain"]) == links
        assert len(calls["offset_angle"]) == links + rows  # and the plans' links
        assert len(calls["min_security"]) == bounds
        assert links <= rows * len(xs) * (math.ceil(math.log2(depths)) + 1)
        assert bounds <= links


def _table(header: str, rows) -> str:
    """CSV text built independently of the package: 9 significant digits, row-major."""
    return "".join(line + "\n" for line in
                   [header, *(",".join(format(v, ".9g") for v in row) for row in rows)])


def _hand_built_grid() -> SecrecyMapGrid:
    """Repeated levels, 0.0 beside -0.0 (equal, yet printed apart), a subnormal,
    a half grey level, and axes that are not symmetric."""
    values = MapValues(((0.25, 1.0, 0.0, -0.0),
                        (-0.0, 5e-324, 0.25, 0.0),
                        (1.0, 0.0, 0.1 + 0.2, 0.5),
                        (0.25, -0.0, 0.5, 1.0)))
    return SecrecyMapGrid(xs=(-1.5, 0.0, 2.0, 7.25), ys=(-0.5, 1.0 / 3.0, 4.0, 9.0),
                          values=values)


def _shared_rows_grid() -> SecrecyMapGrid:
    """Rows that are one object, next to rows that are equal but not the same object."""
    a, b = (0.5, -0.0, 1.0, 0.25), (1.0, 0.0, 0.5, 5e-324)
    values = MapValues((a, b, a, tuple(b), a, (0.5, -0.0, 1.0, 0.25)))
    return SecrecyMapGrid(xs=(-3.0, -1.0, 1.0, 3.0), ys=(-2.5, -1.5, -0.5, 0.5, 1.5, 2.5),
                          values=values)


def _shipped_map(name, resolution, room=None) -> SecrecyMapGrid:
    config, map_plan = shipped(name)
    if room is not None:
        config = config._replace(room_extent_m=room)
    return evaluate_map(map_plan, config, resolution)


WRITER_GRIDS = {
    "hand built": _hand_built_grid,
    "shared rows": _shared_rows_grid,
    "cell map": lambda: _shipped_map("scenario1_cell.json", 2.0),
    # |y| values that do not pair up, so some rows have no mirror
    "unpaired rows": lambda: _shipped_map("scenario1_cell.json", 0.7, (60.0, 40.0)),
    "directed map": lambda: _shipped_map("scenario2_directed.json", 1.0),  # exact zeros
    # each of the 256 grey levels once: the shipped maps hold fewer than half of them
    "every grey level": lambda: SecrecyMapGrid(
        xs=tuple(map(float, range(16))), ys=tuple(map(float, range(16))),
        values=MapValues(tuple(k / 255.0 for k in range(j, j + 16)) for j in range(0, 256, 16))),
}


class TestWritersAgainstPerPointOracles:
    @pytest.mark.parametrize("name", WRITER_GRIDS)
    def test_csv_and_pgm_bytes(self, name, tmp_path):
        grid = WRITER_GRIDS[name]()
        for write, oracle in ((write_map_csv, oracles.write_map_csv_per_point),
                              (write_map_pgm, oracles.write_map_pgm_per_point)):
            write(grid, tmp_path / "package")
            oracle(grid, tmp_path / "oracle")
            assert (tmp_path / "package").read_bytes() == (tmp_path / "oracle").read_bytes()

    def test_the_oracles_see_signs_and_half_levels(self, tmp_path):
        grid = _shared_rows_grid()
        oracles.write_map_csv_per_point(grid, tmp_path / "map.csv")
        oracles.write_map_pgm_per_point(grid, tmp_path / "map.pgm")
        assert "-3,-2.5,0.5\n-1,-2.5,-0\n" in (tmp_path / "map.csv").read_text()
        assert (tmp_path / "map.pgm").read_text().splitlines()[3] == "128 255 0 191"

    def test_a_shared_row_is_range_checked(self):
        good, bad = (0.5, 1.0), (0.5, math.nan)
        with pytest.raises(ValueError, match="security levels"):
            SecrecyMapGrid(xs=(0.0, 1.0), ys=(0.0, 1.0, 2.0),
                           values=MapValues((good, bad, bad)))


class TestSerialization:
    @pytest.mark.parametrize("value, text", [
        (0.1, "0.1"), (np.float64(1 / 3), "0.333333333"), (None, ""), (True, "true"),
        (2**60 + 1, "1152921504606846977"), (np.int64(-7), "-7"),
        (np.uint8(255), "255"), (np.float32(0.1), "0.1"), ("R", "R")])
    def test_cell_text(self, value, text):
        assert secmap._cell(value) == text

    def test_csv_layout_and_digits(self, cell_plan, small_cell, tmp_path):
        grid = evaluate_map(cell_plan, small_cell, 4.0)
        path = tmp_path / "map.csv"
        write_map_csv(grid, path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "x_m,y_m,delta"
        assert len(lines) == 1 + grid.values.size
        first = lines[1].split(",")
        assert float(first[0]) == grid.xs[0]
        assert float(first[1]) == grid.ys[0]
        # row-major: x varies fastest
        second = lines[2].split(",")
        assert (float(second[0]), float(second[1])) == (grid.xs[1], grid.ys[0])

    def test_csv_deterministic_across_runs(self, cell_plan, small_cell, tmp_path):
        write_map_csv(evaluate_map(cell_plan, small_cell, 3.0), tmp_path / "a.csv")
        write_map_csv(evaluate_map(cell_plan, small_cell, 3.0), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pgm_format(self, cell_plan, small_cell, tmp_path):
        grid = evaluate_map(cell_plan, small_cell, 4.0)
        path = tmp_path / "map.pgm"
        write_map_pgm(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        nx, ny = map(int, lines[1].split())
        assert (ny, nx) == np.asarray(grid.values).shape
        assert lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == grid.values.size
        assert all(0 <= v <= 255 for v in pixels)
        # secure far corner renders bright, insecure center dark
        assert pixels[0] == 255
        center = np.asarray(grid.values).shape[1] // 2
        assert pixels[center * nx + center] == 0

    def test_profile_csv(self, cell_plan, small_cell, tmp_path):
        profile = radial_profile(cell_plan, small_cell, 0.0, 10.0, 5)
        path = tmp_path / "radial.csv"
        write_profile_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r_m,delta"
        assert len(lines) == 6

    def test_sweep_csv_columns(self, cell_config, tmp_path):
        rows = sweep(cell_config, "G_E", [10.0], lambda g: (cell_config, 2000, 0.2, 1e-3))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2

    def test_map_text_is_exact(self, cell_plan, small_cell, tmp_path):
        grid = evaluate_map(cell_plan, small_cell, 6.0)
        path = tmp_path / "map.csv"
        write_map_csv(grid, path)
        values = np.asarray(grid.values)
        expected = _table("x_m,y_m,delta",
                          ((x, y, values[iy, ix]) for iy, y in enumerate(grid.ys)
                           for ix, x in enumerate(grid.xs)))
        assert path.read_text() == expected

    def test_hand_built_map_text_is_exact(self, tmp_path):
        grid = _hand_built_grid()
        path = tmp_path / "map.csv"
        write_map_csv(grid, path)
        values = np.asarray(grid.values)
        expected = _table("x_m,y_m,delta",
                          ((x, y, values[iy, ix]) for iy, y in enumerate(grid.ys)
                           for ix, x in enumerate(grid.xs)))
        assert ",-0\n" in expected and ",0\n" in expected and ",4.94065646e-324\n" in expected
        assert path.read_text() == expected

    @pytest.mark.parametrize("hand_built", [False, True])
    def test_pgm_text_is_exact(self, hand_built, cell_plan, small_cell, tmp_path):
        grid = _hand_built_grid() if hand_built else evaluate_map(cell_plan, small_cell, 3.0)
        path = tmp_path / "map.pgm"
        write_map_pgm(grid, path)
        values = np.asarray(grid.values)
        ny, nx = values.shape
        # Python's round, like np.rint, rounds half to even: 0.5 renders 128
        pixels = [" ".join(str(round(255.0 * (1.0 - v))) for v in row)
                  for row in values.tolist()]
        assert path.read_text() == "".join(line + "\n"
                                           for line in ["P2", f"{nx} {ny}", "255", *pixels])

    def test_profile_text_is_exact(self, cell_plan, small_cell, tmp_path):
        profile = radial_profile(cell_plan, small_cell, 0.0, 13.0, 7)
        path = tmp_path / "radial.csv"
        write_profile_csv(profile, path)
        assert path.read_text() == _table("r_m,delta", zip(profile.radii_m, profile.deltas))

    def test_sweep_text_is_exact(self, cell_config, tmp_path):
        feasible, infeasible = sweep(cell_config, "R", [0.2, 3.0],
                                     lambda r: (cell_config, 2000, r, 1e-3))
        path = tmp_path / "sweep.csv"
        write_sweep_csv([feasible, infeasible], path)
        numbers = [format(feasible[c], ".9g") for c in SWEEP_COLUMNS[3:11]]
        r_b, c_ab = (format(infeasible[c], ".9g") for c in ("r_b_m", "c_ab_bits"))
        assert path.read_text() == (
            ",".join(SWEEP_COLUMNS) + "\n"
            + ",".join(["R", "0.2", "true", *numbers, ""]) + "\n"
            + f"R,3,false,{r_b},{c_ab},,,,,,,\n")


def test_insecure_fraction_counts_cells(cell_plan, small_cell):
    grid = evaluate_map(cell_plan, small_cell, 2.0)
    frac = insecure_fraction(grid)
    values = np.asarray(grid.values)
    expected = float(np.count_nonzero(values > 0.5)) / values.size
    assert frac == expected
    assert 0.0 < frac < 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
def test_levels_must_lie_in_unit_interval(bad):
    levels = np.array([0.5, bad])
    axis = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="security levels"):
        SecrecyMapGrid(xs=axis, ys=axis[:1], values=levels[None, :])
    with pytest.raises(ValueError, match="security levels"):
        RadialProfile(radii_m=axis, deltas=levels)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2,), (2, 1)])
def test_grid_values_must_match_the_axes(shape):
    axis = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="do not match 1 y and 2 x"):
        SecrecyMapGrid(xs=axis, ys=axis[:1], values=np.zeros(shape))


def test_grid_values_must_match_the_axes_in_every_row():
    axis = (0.0, 1.0)
    ragged = ((0.5, 0.5), (0.5,))  # two rows, of two levels and of one
    with pytest.raises(ValueError, match="do not match 2 y and 2 x"):
        SecrecyMapGrid(xs=axis, ys=axis, values=ragged)


def test_infinite_resolution_is_refused():
    # a directed sweep builds the grid axes of its area column
    rc = load_config(CONFIGS / "scenario2_directed.json")
    message = "resolution must be positive and finite, got inf"
    map_plan = planner.plan(rc.scenario, rc.n, rc.rate_bits, rc.phi_target)
    with pytest.raises(ValueError, match=message):
        evaluate_map(map_plan, rc.scenario, math.inf)
    with pytest.raises(ValueError, match=message):
        shipped_sweep("scenario2_directed.json", "d_AB", [15.0], area_resolution_m=math.inf)
