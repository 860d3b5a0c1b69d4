import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import CALIBRATED_TX_POWER_W
from thzsecmap import (
    ConfigError,
    InfeasiblePlanError,
    build_scenario,
    cone_radius,
    evaluate_map,
    insecure_fraction,
    link_budget,
    min_security,
    offset_angle,
    pattern_gain,
    plan_cell,
    plan_directed,
    radial_profile,
    sweep,
    threshold_radius,
)
from thzsecmap.secmap import (
    SWEEP_COLUMNS,
    map_csv_lines,
    profile_csv_lines,
    sweep_csv_lines,
    write_map_csv,
    write_map_pgm,
)


@pytest.fixture
def small_cell(cell_config):
    return replace(cell_config, room_extent_m=(24.0, 24.0))


@pytest.fixture
def cell_plan(small_cell):
    return plan_cell(small_cell, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W)


class TestEvaluateMap:
    def test_values_in_unit_interval(self, cell_plan, small_cell):
        grid = evaluate_map(cell_plan, small_cell, 2.0)
        assert grid.values.shape == (13, 13)
        assert np.all(grid.values >= 0.0) and np.all(grid.values <= 1.0)

    def test_radial_symmetry_exact(self, cell_plan, small_cell):
        grid = evaluate_map(cell_plan, small_cell, 2.0)
        assert np.array_equal(grid.values, grid.values[:, ::-1])
        assert np.array_equal(grid.values, grid.values[::-1, :])
        assert np.array_equal(grid.values, grid.values.T)

    def test_center_insecure_far_corner_secure(self, cell_config, calibrated_alice):
        plan = plan_cell(cell_config, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W)
        grid = evaluate_map(plan, cell_config, 6.0)
        cy = len(grid.ys) // 2
        cx = len(grid.xs) // 2
        assert grid.values[cy, cx] > 0.99
        assert grid.values[0, 0] < 1e-6

    def test_single_point_equals_direct_call(self, cell_plan, small_cell):
        grid = evaluate_map(cell_plan, small_cell, 3.0)
        r_b = cone_radius(small_cell.alice, small_cell.height_difference_m)
        nodes = build_scenario(small_cell, bob_offset=r_b)
        alice = nodes["alice"]
        iy, ix = 1, 2  # off-center point in the transition region of this room
        pos = np.array([grid.xs[ix], grid.ys[iy], small_cell.receiver_height_m])
        theta = offset_angle(alice.boresight, alice.position, pos)
        g_tx = pattern_gain(small_cell.alice, theta)
        diff = pos - alice.position
        d = math.sqrt(float(diff[0]) ** 2 + float(diff[1]) ** 2 + float(diff[2]) ** 2)
        link = link_budget(CALIBRATED_TX_POWER_W, g_tx, small_cell.eve.gain_linear, d,
                           small_cell.environment)
        assert min_security(cell_plan.code, link)[0] == grid.values[iy, ix]

    def test_thread_partitioning_is_invisible(self, cell_plan, small_cell):
        one = evaluate_map(cell_plan, small_cell, 2.0, threads=1)
        many = evaluate_map(cell_plan, small_cell, 2.0, threads=3)
        assert np.array_equal(one.values, many.values)
        assert map_csv_lines(one) == map_csv_lines(many)

    def test_infeasible_plan_rejected(self, small_cell):
        bad = plan_cell(small_cell, 2000, 3.0, 1e-3, CALIBRATED_TX_POWER_W)
        with pytest.raises(InfeasiblePlanError):
            evaluate_map(bad, small_cell, 2.0)

    def test_eve_gain_dominance(self, small_cell):
        plan = plan_cell(small_cell, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W)
        low = evaluate_map(plan, small_cell, 2.0)
        boosted = replace(small_cell, eve=replace(small_cell.eve, gain_dbi=20.0))
        high = evaluate_map(plan, boosted, 2.0)
        assert np.all(high.values >= low.values)

    def test_metadata_describes_the_grid(self, cell_plan, small_cell):
        # the plan and the scenario are recorded by the CLI's metadata writer
        grid = evaluate_map(cell_plan, small_cell, 4.0)
        assert grid.metadata == {"resolution_m": 4.0, "nx": 7, "ny": 7,
                                 "origin_m": [-12.0, -12.0],
                                 "receiver_height_m": small_cell.receiver_height_m}


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
            assert profile.deltas[k] == grid.values[cy, cx + k], f"radius {r}"

    def test_directed_unsupported(self, directed_config):
        plan = plan_directed(directed_config, 15.0, 2000, 0.2, 1e-3, 0.5e-3)
        with pytest.raises(ConfigError):
            radial_profile(plan, directed_config, 0.0, 10.0, 5)

    def test_bad_range(self, cell_plan, small_cell):
        with pytest.raises(ValueError):
            radial_profile(cell_plan, small_cell, 5.0, 5.0, 10)


class TestThresholdRadius:
    def test_matches_dense_scan(self, cell_plan, small_cell):
        from thzsecmap.secmap import _EveEvaluator

        r = threshold_radius(cell_plan, small_cell, 1e-3)
        evaluator = _EveEvaluator(cell_plan, small_cell)
        scan = oracles.scan_crossing_radius(evaluator.delta_at_radius, 1e-3, r_max=40.0)
        assert abs(r - scan) <= 0.02

    def test_zero_when_secure_everywhere(self, small_cell):
        # a weak, distant eavesdropper never reaches the target level, even on axis
        plan = plan_cell(small_cell, 8000, 0.2, 1e-3, CALIBRATED_TX_POWER_W)
        quiet = replace(small_cell, eve=replace(small_cell.eve, gain_dbi=0.0),
                        height_difference_m=8.5)
        assert threshold_radius(plan, quiet, 0.999999) == 0.0

    def test_delta_validation(self, cell_plan, small_cell):
        with pytest.raises(ValueError):
            threshold_radius(cell_plan, small_cell, 0.0)
        with pytest.raises(ValueError):
            threshold_radius(cell_plan, small_cell, 1.0)

    def test_directed_unsupported(self, directed_config):
        plan = plan_directed(directed_config, 15.0, 2000, 0.2, 1e-3, 0.5e-3)
        with pytest.raises(ConfigError):
            threshold_radius(plan, directed_config, 1e-3)

    def test_non_monotone_profile_diagnosed(self, cell_plan, small_cell, monkeypatch):
        from thzsecmap.errors import ProfileError
        from thzsecmap.secmap import _EveEvaluator

        def bumpy(self, radius_m):
            if 3.0 < radius_m < 5.0:
                return 0.9
            return max(0.0, 0.5 - 0.05 * radius_m)

        monkeypatch.setattr(_EveEvaluator, "delta_at_radius", bumpy)
        with pytest.raises(ProfileError):
            threshold_radius(cell_plan, small_cell, 1e-3)


class TestSweep:
    def test_gain_sweep_reproduces_footprint_shrink(self, paper_env, cell_config):
        cfg = replace(cell_config, alice=replace(cell_config.alice, beamwidth_override_deg=None))
        rows = sweep(cfg, 2000, 0.2, 1e-3, 9e-3, "G_A", [10.0, 15.0, 20.0, 25.0])
        radii = [row["r_b_m"] for row in rows]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_blocklength_sweep_sharpens_transition(self, cell_config):
        rows = sweep(cell_config, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W, "n",
                     [500, 2000, 8000])
        widths = [row["transition_width_m"] for row in rows]
        r_e0 = [row["r_e0_m"] for row in rows]
        assert widths[0] > widths[1] > widths[2]
        assert r_e0[0] > r_e0[1] > r_e0[2]

    def test_rate_sweep_grows_threshold(self, cell_config):
        rows = sweep(cell_config, 2000, 0.2, 1e-3, 9e-3, "R", [0.1, 0.2, 0.4])
        r_e0 = [row["r_e0_m"] for row in rows]
        assert r_e0[0] <= r_e0[1] <= r_e0[2]

    def test_directed_distance_sweep_grows_area(self, directed_config):
        rows = sweep(directed_config, 2000, 0.2, 1e-3, 0.5e-3, "d_AB", [5.0, 15.0, 25.0],
                     area_resolution_m=3.0)
        fracs = [row["insecure_fraction"] for row in rows]
        assert fracs[0] <= fracs[1] <= fracs[2]
        assert all(row["r_e0_m"] is None for row in rows)

    def test_unknown_variable_rejected(self, cell_config):
        with pytest.raises(ConfigError):
            sweep(cell_config, 2000, 0.2, 1e-3, 9e-3, "bogus", [1.0])

    def test_d_ab_requires_directed(self, cell_config):
        with pytest.raises(ConfigError):
            sweep(cell_config, 2000, 0.2, 1e-3, 9e-3, "d_AB", [5.0])

    def test_infeasible_rows_marked(self, cell_config):
        rows = sweep(cell_config, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W, "R", [0.2, 2.5])
        assert rows[0]["feasible"] and not rows[1]["feasible"]
        assert rows[1]["l_bits"] is None


class TestSerialization:
    def test_csv_layout_and_digits(self, cell_plan, small_cell, tmp_path):
        grid = evaluate_map(cell_plan, small_cell, 4.0)
        lines = map_csv_lines(grid)
        assert lines[0] == "x_m,y_m,delta"
        assert len(lines) == 1 + grid.values.size
        first = lines[1].split(",")
        assert float(first[0]) == grid.xs[0]
        assert float(first[1]) == grid.ys[0]
        path = tmp_path / "map.csv"
        write_map_csv(grid, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.count("\n") == len(lines)

    def test_csv_deterministic_across_runs(self, cell_plan, small_cell):
        a = map_csv_lines(evaluate_map(cell_plan, small_cell, 3.0))
        b = map_csv_lines(evaluate_map(cell_plan, small_cell, 3.0))
        assert a == b

    def test_pgm_format(self, cell_plan, small_cell, tmp_path):
        grid = evaluate_map(cell_plan, small_cell, 4.0)
        path = tmp_path / "map.pgm"
        write_map_pgm(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        nx, ny = map(int, lines[1].split())
        assert (ny, nx) == grid.values.shape
        assert lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == grid.values.size
        assert all(0 <= v <= 255 for v in pixels)
        # secure far corner renders bright, insecure center dark
        assert pixels[0] == 255
        center = grid.values.shape[1] // 2
        assert pixels[center * nx + center] == 0

    def test_profile_csv(self, cell_plan, small_cell):
        profile = radial_profile(cell_plan, small_cell, 0.0, 10.0, 5)
        lines = profile_csv_lines(profile)
        assert lines[0] == "r_m,delta"
        assert len(lines) == 6

    def test_sweep_csv_columns(self, cell_config):
        rows = sweep(cell_config, 2000, 0.2, 1e-3, CALIBRATED_TX_POWER_W, "G_E", [10.0])
        lines = sweep_csv_lines(rows)
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2


def test_insecure_fraction_counts_cells(cell_plan, small_cell):
    grid = evaluate_map(cell_plan, small_cell, 2.0)
    frac = insecure_fraction(grid, 0.5)
    expected = float(np.count_nonzero(grid.values > 0.5)) / grid.values.size
    assert frac == expected
    assert 0.0 < frac < 1.0
