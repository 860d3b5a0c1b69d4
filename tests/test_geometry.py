import math
from dataclasses import replace

import numpy as np
import pytest

from thzsecmap import (
    Antenna,
    GeometryError,
    ScenarioConfig,
    beamwidth_from_gain,
    cone_radius,
    grid_axes,
    offset_angle,
    path,
    pattern_gain,
    receiver_x,
    transmitter,
)
from thzsecmap.geometry import MAX_GRID_POINTS


def directed_path_oracle(config, x, y):
    """Length and boresight angle from hypot and atan2 alone: atan2(|b x v|, b . v)."""
    h = config.height_difference_m
    bx, bz = config.horizontal_distance_m, -h  # boresight toward the receiver at (d, 0)
    vx, vy, vz = x, y, -h  # ray toward (x, y)
    cross = math.hypot(-bz * vy, bz * vx - bx * vz, bx * vy)
    return math.hypot(x, y, h), math.atan2(cross, bx * vx + bz * vz)


class TestBuildScenarioCell:
    def test_nadir_placement(self, cell_config):
        origin, boresight = transmitter(cell_config)
        assert origin == (0.0, 0.0, 4.5)
        assert boresight == (0.0, 0.0, -1.0)
        assert path(cell_config, 0.0, 0.0) == (3.5, 0.0)

    def test_cone_edge_offset_angle(self, cell_config):
        r_b = cone_radius(cell_config.alice, cell_config.height_difference_m)
        assert receiver_x(cell_config) == r_b
        distance, theta = path(cell_config, r_b, 0.0)
        half_width = math.radians(beamwidth_from_gain(cell_config.alice)) / 2.0
        assert theta == pytest.approx(half_width, abs=1e-12)
        assert distance == pytest.approx(math.hypot(r_b, 3.5), rel=1e-15)
        # at the cone edge the transmit pattern is exactly half power
        assert pattern_gain(cell_config.alice, theta) == pytest.approx(
            cell_config.alice.gain_linear / 2.0, rel=1e-12)

    def test_cone_edge_outside_room_rejected(self, cell_config):
        # the 7.2 m footprint radius does not fit in a 10 m room
        small = replace(cell_config, room_extent_m=(10.0, 10.0))
        with pytest.raises(GeometryError, match=r"receiver offset \(7\.2.*, 0\.0\) lies outside"):
            receiver_x(small)

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (3.0, 4.0), (-7.2, 0.5), (0.0, -29.0),
                                      (25.0, 25.0)])
    def test_path_matches_hypot_atan2(self, cell_config, x, y):
        distance, theta = path(cell_config, x, y)
        assert distance == pytest.approx(math.hypot(x, y, 3.5), rel=1e-15)
        assert theta == pytest.approx(math.atan2(math.hypot(x, y), 3.5), abs=1e-12)


class TestBuildScenarioDirected:
    def test_slant_distance(self, directed_config):
        # frozen: hypot(15, 8.5)
        assert path(directed_config, receiver_x(directed_config), 0.0)[0] == pytest.approx(
            17.2409396496, abs=1e-9)

    def test_boresight_hits_bob(self, directed_config):
        origin, boresight = transmitter(directed_config)
        assert origin == (0.0, 0.0, 9.5)
        assert math.hypot(*boresight) == pytest.approx(1.0, rel=1e-15)
        assert boresight[1] == 0.0
        assert path(directed_config, receiver_x(directed_config), 0.0)[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (3.0, 4.0), (15.0, -6.0), (40.0, 0.0),
                                      (59.0, 29.0)])
    def test_path_matches_hypot_atan2(self, directed_config, x, y):
        distance, theta = path(directed_config, x, y)
        want_distance, want_theta = directed_path_oracle(directed_config, x, y)
        assert distance == pytest.approx(want_distance, rel=1e-15)
        assert theta == pytest.approx(want_theta, abs=1e-7)

    def test_outside_room_rejected(self, directed_config):
        bad = replace(directed_config, horizontal_distance_m=100.0)
        with pytest.raises(GeometryError, match="receiver distance 100.0 m lies outside the room"):
            receiver_x(bad)
        with pytest.raises(GeometryError):
            path(bad, 1.0, 0.0)

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
        xs, ys = grid_axes(cfg, 5.0)
        assert (len(xs), len(ys)) == (3, 3)

    def test_mirror_symmetry(self, cell_config):
        xs, ys = grid_axes(cell_config, 7.5)
        assert np.allclose(xs, -xs[::-1])
        assert np.allclose(ys, -ys[::-1])

    def test_directed_grid_starts_at_wall(self, directed_config):
        xs, ys = grid_axes(directed_config, 10.0)
        assert xs[0] == 0.0
        assert np.allclose(ys, -ys[::-1])

    def test_rejects_bad_resolution(self, cell_config):
        with pytest.raises(ValueError):
            grid_axes(cell_config, 0.0)

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
    r = 9.0
    paths = [path(cell_config, r * math.cos(phi), r * math.sin(phi))
             for phi in (0.0, 0.7, 1.9, 3.1, 4.4, 5.8)]
    distances, angles = zip(*paths)
    assert max(angles) - min(angles) < 1e-12
    assert max(distances) - min(distances) < 1e-12
