import math
import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from thzsecmap import (
    Antenna,
    GeometryError,
    RadioEnvironment,
    ScenarioConfig,
    Scene,
    beamwidth_from_gain,
    cone_radius,
    grid_axes,
    offset_angle,
    pattern_gain,
    receiver_x,
)
from thzsecmap.geometry import MAX_GRID_POINTS, MIN_LENGTH_M


def directed_path_oracle(config, x, y):
    """Length and boresight angle from hypot and atan2 alone: atan2(|b x v|, b . v)."""
    h = config.height_difference_m
    bx, bz = config.horizontal_distance_m, -h  # boresight toward the receiver at (d, 0)
    vx, vy, vz = x, y, -h  # ray toward (x, y)
    cross = math.hypot(-bz * vy, bz * vx - bx * vz, bx * vy)
    return math.hypot(x, y, h), math.atan2(cross, bx * vx + bz * vz)


class TestBuildScenarioCell:
    def test_nadir_placement(self, cell_config):
        scene = Scene(cell_config)
        assert scene.origin == (0.0, 0.0, 3.5)
        assert scene.boresight == (0.0, 0.0, -1.0)
        assert scene.path(0.0, 0.0) == (3.5, 0.0)

    def test_cone_edge_offset_angle(self, cell_config):
        r_b = cone_radius(cell_config.alice, cell_config.height_difference_m)
        assert receiver_x(cell_config) == r_b
        distance, theta = Scene(cell_config).path(r_b, 0.0)
        half_width = math.radians(beamwidth_from_gain(cell_config.alice)) / 2.0
        assert theta == pytest.approx(half_width, abs=1e-12)
        assert distance == pytest.approx(math.hypot(r_b, 3.5), rel=1e-15)
        # at the cone edge the transmit pattern is exactly half power
        assert pattern_gain(cell_config.alice, theta) == pytest.approx(
            cell_config.alice.gain_linear / 2.0, rel=1e-12)

    def test_cone_edge_outside_room_rejected(self, cell_config):
        # the 7.2 m footprint radius does not fit in a 10 m room
        small = cell_config._replace(room_extent_m=(10.0, 10.0))
        with pytest.raises(GeometryError, match=r"receiver offset \(7\.2.*, 0\.0\) lies outside"):
            receiver_x(small)

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (3.0, 4.0), (-7.2, 0.5), (0.0, -29.0),
                                      (25.0, 25.0)])
    def test_path_matches_hypot_atan2(self, cell_config, x, y):
        distance, theta = Scene(cell_config).path(x, y)
        assert distance == pytest.approx(math.hypot(x, y, 3.5), rel=1e-15)
        assert theta == pytest.approx(math.atan2(math.hypot(x, y), 3.5), abs=1e-12)


class TestBuildScenarioDirected:
    def test_slant_distance(self, directed_config):
        # frozen: hypot(15, 8.5)
        assert Scene(directed_config).path(receiver_x(directed_config), 0.0)[0] == pytest.approx(
            17.2409396496, abs=1e-9)

    def test_boresight_hits_bob(self, directed_config):
        scene = Scene(directed_config)
        assert scene.origin == (0.0, 0.0, 8.5)
        assert math.hypot(*scene.boresight) == pytest.approx(1.0, rel=1e-15)
        assert scene.boresight[1] == 0.0
        assert scene.path(receiver_x(directed_config), 0.0)[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (3.0, 4.0), (15.0, -6.0), (40.0, 0.0),
                                      (59.0, 29.0)])
    def test_path_matches_hypot_atan2(self, directed_config, x, y):
        distance, theta = Scene(directed_config).path(x, y)
        want_distance, want_theta = directed_path_oracle(directed_config, x, y)
        assert distance == pytest.approx(want_distance, rel=1e-15)
        assert theta == pytest.approx(want_theta, abs=1e-7)

    def test_outside_room_rejected(self, directed_config):
        # the room's far wall, 60 m away, within the 1e-9 m tolerance, and just beyond it
        for inside in (60.0, 60.0 + 5e-10):
            assert receiver_x(directed_config._replace(horizontal_distance_m=inside)) == inside
        for outside in (100.0, 60.0 + 2e-9):
            with pytest.raises(ValueError, match=r"^horizontal_distance_m must lie in \(0, 60.0\] "
                                                 f"m, up to room_extent_m\\[0\\], got {outside}$"):
                directed_config._replace(horizontal_distance_m=outside)

    def test_requires_distance(self, paper_env):
        a = Antenna(20.0)
        with pytest.raises(ValueError):
            ScenarioConfig(variant="directed", environment=paper_env, alice=a, bob=a, eve=a,
                           transmit_mw=1.0, height_difference_m=8.5, n=2000, rate_bits=0.2,
                           phi_target=1e-3)


# a smaller height's square underflows, and the link to the receiver below is undefined
@pytest.mark.parametrize("height", [0.0, 9.99e-151, 1e-300])
def test_height_too_small_is_refused_by_name(cell_config, height):
    with pytest.raises(ValueError) as refused:
        cell_config._replace(height_difference_m=height)
    assert str(refused.value) == (f"height_difference_m must lie in [1e-150, 1e+150] m, "
                                  f"got {height}")
    lowest = cell_config._replace(height_difference_m=MIN_LENGTH_M)
    assert Scene(lowest).path(receiver_x(lowest), 0.0)[0] > 0.0



# the code's keys are fields of the scenario record, which checks their ranges
@pytest.mark.parametrize("field, value, reason", [
    pytest.param(field, value, reason, id=f"{field}-{value}") for field, values, reason in (
        ("n", (0, 2 ** 53 + 1, 2000.0, True), "must lie in [1, 2**53]"),
        ("rate_bits", (0.0, -1.0), "must be positive"),
        ("rate_bits", (math.inf, -math.inf, math.nan), "must be finite"),
        ("phi_target", (0.0, 1.0, math.nan), "must lie in (0, 1)"),
    ) for value in values
])
def test_bad_code_value_is_refused_by_name(cell_config, field, value, reason):
    with pytest.raises(ValueError) as built:
        ScenarioConfig(**{**cell_config._asdict(), field: value})
    got = "an integer of 16 digits" if value == 2 ** 53 + 1 else value
    assert str(built.value) == f"{field} {reason}, got {got}"
    with pytest.raises(ValueError) as replaced:
        cell_config._replace(**{field: value})
    assert str(replaced.value) == str(built.value)


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
                             transmit_mw=1.0, height_difference_m=3.5, n=2000, rate_bits=0.2,
                             phi_target=1e-3, room_extent_m=(10.0, 10.0))
        xs, ys = grid_axes(cfg, 5.0)
        assert (len(xs), len(ys)) == (3, 3)

    def test_mirror_symmetry(self, cell_config):
        xs, ys = grid_axes(cell_config, 7.5)
        assert np.allclose(xs, [-x for x in reversed(xs)])
        assert np.allclose(ys, [-y for y in reversed(ys)])

    def test_directed_grid_starts_at_wall(self, directed_config):
        xs, ys = grid_axes(directed_config, 10.0)
        assert xs[0] == 0.0
        assert np.allclose(ys, [-y for y in reversed(ys)])

    def test_rejects_bad_resolution(self, cell_config):
        with pytest.raises(ValueError):
            grid_axes(cell_config, 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="must be positive and finite"):
                grid_axes(cell_config, bad)

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
        cfg = cell_config._replace(room_extent_m=extent)
        if points <= MAX_GRID_POINTS:
            xs, ys = grid_axes(cfg, resolution)
            assert len(xs) * len(ys) == points
        else:
            with pytest.raises(ValueError, match=f" = {points} grid points exceed the limit"):
                grid_axes(cfg, resolution)


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(["cell", "directed"]), st.floats(0.1, 200.0), st.floats(0.1, 200.0),
       st.one_of(st.floats(0.01, 50.0), st.sampled_from([0.1, 0.25, 0.3, 0.7, 1.0 / 3.0])))
def test_axes_equal_numpy_arange_bit_for_bit(variant, ex, ey, resolution):
    assume(max(ex, ey) / resolution < 1000.0)
    a = Antenna(gain_dbi=10.0)
    env = RadioEnvironment(carrier_frequency_ghz=300.0, bandwidth_ghz=1.0, temperature_k=290.0,
                           noise_figure_db=9.0)
    cfg = ScenarioConfig(variant=variant, environment=env, alice=a, bob=a, eve=a,
                         transmit_mw=1.0, height_difference_m=3.5, n=2000, rate_bits=0.2,
                         phi_target=1e-3,
                         horizontal_distance_m=ex if variant == "directed" else None,
                         room_extent_m=(ex, ey))
    xs, ys = grid_axes(cfg, resolution)
    assert all(type(v) is float for v in xs + ys)
    nx, ny = len(xs), len(ys)
    assert (nx, ny) == (math.floor(ex / resolution + 1e-9) + 1,
                        math.floor(ey / resolution + 1e-9) + 1)
    expected_y = np.arange(ny) * resolution - (ny - 1) * resolution / 2.0
    expected_x = np.arange(nx) * resolution
    if variant == "cell":
        expected_x = expected_x - (nx - 1) * resolution / 2.0
    assert np.array(xs).tobytes() == expected_x.tobytes()
    assert np.array(ys).tobytes() == expected_y.tobytes()


def test_cell_radial_symmetry_of_geometry(cell_config):
    r = 9.0
    paths = [Scene(cell_config).path(r * math.cos(phi), r * math.sin(phi))
             for phi in (0.0, 0.7, 1.9, 3.1, 4.4, 5.8)]
    distances, angles = zip(*paths)
    assert max(angles) - min(angles) < 1e-12
    assert max(distances) - min(distances) < 1e-12
