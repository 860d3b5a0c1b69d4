import math
from dataclasses import replace

import numpy as np
import pytest

from thzsecmap import (
    Antenna,
    OutOfCellError,
    ScenarioConfig,
    build_scenario,
    cone_radius,
    eve_grid,
    grid_axes,
    offset_angle,
    pattern_gain,
)
from thzsecmap.geometry import MAX_GRID_POINTS


class TestBuildScenarioCell:
    def test_nadir_placement(self, cell_config):
        nodes = build_scenario(cell_config, bob_offset=0.0)
        alice, bob = nodes["alice"], nodes["bob"]
        assert np.allclose(alice.boresight, [0.0, 0.0, -1.0])
        assert float(np.linalg.norm(bob.position - alice.position)) == pytest.approx(3.5)
        assert offset_angle(alice.boresight, alice.position, bob.position) == pytest.approx(0.0)

    def test_cone_edge_offset_angle(self, cell_config):
        r_b = cone_radius(cell_config.alice, cell_config.height_difference_m)
        nodes = build_scenario(cell_config, bob_offset=r_b)
        alice, bob = nodes["alice"], nodes["bob"]
        theta = offset_angle(alice.boresight, alice.position, bob.position)
        from thzsecmap import beamwidth_from_gain

        half_width = math.radians(beamwidth_from_gain(cell_config.alice)) / 2.0
        assert theta == pytest.approx(half_width, abs=1e-12)
        # at the cone edge the transmit pattern is exactly half power
        assert pattern_gain(cell_config.alice, theta) == pytest.approx(
            cell_config.alice.gain_linear / 2.0, rel=1e-12)

    def test_two_vector_offset(self, cell_config):
        nodes = build_scenario(cell_config, bob_offset=(3.0, 4.0))
        assert nodes["bob"].position[0] == 3.0
        assert nodes["bob"].position[1] == 4.0

    def test_outside_cone_rejected(self, cell_config):
        r_b = cone_radius(cell_config.alice, cell_config.height_difference_m)
        with pytest.raises(OutOfCellError):
            build_scenario(cell_config, bob_offset=r_b + 0.05)

    def test_bob_receive_antenna_aimed_at_alice(self, cell_config):
        nodes = build_scenario(cell_config, bob_offset=2.0)
        alice, bob = nodes["alice"], nodes["bob"]
        assert offset_angle(bob.boresight, bob.position, alice.position) == pytest.approx(0.0)


class TestBuildScenarioDirected:
    def test_slant_distance(self, directed_config):
        nodes = build_scenario(directed_config)
        alice, bob = nodes["alice"], nodes["bob"]
        # frozen: hypot(15, 8.5)
        assert float(np.linalg.norm(bob.position - alice.position)) == pytest.approx(
            17.2409396496, abs=1e-9)

    def test_boresight_hits_bob(self, directed_config):
        nodes = build_scenario(directed_config)
        alice, bob = nodes["alice"], nodes["bob"]
        assert offset_angle(alice.boresight, alice.position, bob.position) == pytest.approx(0.0)

    def test_outside_room_rejected(self, directed_config):
        from dataclasses import replace

        bad = replace(directed_config, horizontal_distance_m=100.0)
        with pytest.raises(ValueError):
            build_scenario(bad)

    def test_requires_distance(self, paper_env):
        a = Antenna(20.0)
        with pytest.raises(ValueError):
            ScenarioConfig(variant="directed", environment=paper_env, alice=a, bob=a, eve=a,
                           transmit_power_w=1e-3, height_difference_m=8.5)


class TestOffsetAngle:
    def test_parallel(self):
        assert offset_angle(np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 3.0]),
                            np.array([0.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert offset_angle(np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 3.0]),
                            np.array([1.0, 0.0, 3.0])) == pytest.approx(math.pi / 2.0)

    def test_planar_example(self):
        # frozen: atan(7.2 / 3.5)
        theta = offset_angle(np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 3.5]),
                             np.array([7.2, 0.0, 0.0]))
        assert theta == pytest.approx(1.1183214372, abs=1e-9)

    def test_coincident_points(self):
        p = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            offset_angle(np.array([0.0, 0.0, 1.0]), p, p.copy())


class TestEveGrid:
    def test_fencepost_count(self, paper_env):
        a = Antenna(10.0, beamwidth_override_deg=128.15)
        cfg = ScenarioConfig(variant="cell", environment=paper_env, alice=a, bob=a, eve=a,
                             transmit_power_w=1e-3, height_difference_m=3.5,
                             room_extent_m=(10.0, 10.0))
        grid = eve_grid(cfg, 5.0)
        assert grid.shape == (9, 3)

    def test_all_at_receiver_height(self, cell_config):
        grid = eve_grid(cell_config, 10.0)
        assert np.all(grid[:, 2] == cell_config.receiver_height_m)

    def test_mirror_symmetry(self, cell_config):
        xs, ys = grid_axes(cell_config, 7.5)
        assert np.allclose(xs, -xs[::-1])
        assert np.allclose(ys, -ys[::-1])

    def test_row_major_order(self, cell_config):
        grid = eve_grid(cell_config, 30.0)
        xs, ys = grid_axes(cell_config, 30.0)
        # x varies fastest
        assert np.array_equal(grid[: len(xs), 0], xs)
        assert np.all(grid[: len(xs), 1] == ys[0])

    def test_directed_grid_starts_at_wall(self, directed_config):
        xs, ys = grid_axes(directed_config, 10.0)
        assert xs[0] == 0.0
        assert np.allclose(ys, -ys[::-1])

    def test_rejects_bad_resolution(self, cell_config):
        with pytest.raises(ValueError):
            eve_grid(cell_config, 0.0)

    # only the boundary case builds axes (2 x 2000 values); the others must be
    # refused from the counts alone, before any array exists
    @pytest.mark.parametrize("extent, resolution, points", [
        ((1999.0, 1999.0), 1.0, 2000 * 2000),
        ((1999.0, 2000.0), 1.0, 2000 * 2001),
        ((4_000_000.0, 0.5), 1.0, 4_000_001),
        ((60.0, 60.0), 1e-5, 6_000_001 ** 2),
        ((60.0, 60.0), 5e-324, math.inf),
    ])
    def test_point_cap(self, cell_config, extent, resolution, points):
        assert MAX_GRID_POINTS == 2000 * 2000
        cfg = replace(cell_config, room_extent_m=extent)
        if points <= MAX_GRID_POINTS:
            xs, ys = grid_axes(cfg, resolution)
            assert len(xs) * len(ys) == points
        else:
            with pytest.raises(ValueError, match=f" = {points} grid points exceed the limit"):
                grid_axes(cfg, resolution)


def test_cell_radial_symmetry_of_geometry(cell_config):
    nodes = build_scenario(cell_config, bob_offset=0.0)
    alice = nodes["alice"]
    r = 9.0
    angles = []
    for phi in (0.0, 0.7, 1.9, 3.1, 4.4, 5.8):
        pos = np.array([r * math.cos(phi), r * math.sin(phi), cell_config.receiver_height_m])
        angles.append(offset_angle(alice.boresight, alice.position, pos))
    assert max(angles) - min(angles) < 1e-12
