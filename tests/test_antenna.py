import math
import pytest
from hypothesis import given, strategies as st

from conftest import CALIBRATED_BEAMWIDTH_DEG
from thzsecmap import (Antenna, GeometryError, beamwidth_from_gain, cone_radius, db_to_ratio,
                       pattern_gain)


class TestBeamwidthFromGain:
    def test_kraus_relation_10dbi(self):
        # frozen: sqrt(41253 / 10)
        assert beamwidth_from_gain(Antenna(10.0)) == pytest.approx(64.2284983477, abs=1e-8)

    def test_quadrupled_gain_halves_beamwidth(self):
        one = beamwidth_from_gain(Antenna(10.0))
        four = beamwidth_from_gain(Antenna(10.0 + 10.0 * math.log10(4.0)))
        assert four == pytest.approx(one / 2.0, rel=1e-12)

    def test_override_wins(self):
        ant = Antenna(10.0, beamwidth_override_deg=128.1)
        assert beamwidth_from_gain(ant) == 128.1

    def test_clamped_at_180(self):
        assert beamwidth_from_gain(Antenna(0.0)) == 180.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Antenna(-1.0)
        with pytest.raises(ValueError):
            Antenna(10.0, beamwidth_override_deg=0.0)
        with pytest.raises(ValueError):
            Antenna(10.0, beamwidth_override_deg=190.0)
        # a sidelobe floor above the half-power level would lift the cone edge's gain
        for floor in (5.0, 0.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="^min_relative_gain_db must be at most "
                                                 "the half-power level"):
                Antenna(10.0, min_relative_gain_db=floor)
        assert Antenna(10.0, min_relative_gain_db=-3.02).relative_gain_floor < 0.5

    @pytest.mark.parametrize("kwargs, key", [
        ({"beamwidth_override_deg": 1e-300}, "beamwidth_override_deg"),
        ({"gain_dbi": 3075.0}, "gain_dbi"),  # the Kraus relation gives 3.6e-152 deg
    ])
    def test_too_narrow_to_evaluate(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} gives .* too narrow"):
            Antenna(**{"gain_dbi": 10.0, **kwargs})

    # a pinned beamwidth reads no gain, yet the overflow is refused at once
    @pytest.mark.parametrize("override", [None, 10.0])
    def test_overflowing_gain_names_the_field(self, override):
        with pytest.raises(ValueError, match=r"^gain_dbi: 3100 dB overflows a linear ratio$"):
            Antenna(3100.0, beamwidth_override_deg=override)


@pytest.mark.parametrize("antenna", [
    Antenna(gain_dbi=10.0),
    Antenna(gain_dbi=20.0, min_relative_gain_db=-30.0),
    Antenna(gain_dbi=10.0, beamwidth_override_deg=CALIBRATED_BEAMWIDTH_DEG),
])
def test_cached_constants_follow_the_fields(antenna):
    def formulas(ant):
        floor = 1e-300
        if ant.min_relative_gain_db is not None:
            floor = max(floor, db_to_ratio(ant.min_relative_gain_db))
        return (db_to_ratio(ant.gain_dbi), math.radians(beamwidth_from_gain(ant)), floor)

    def cached(ant):
        return (ant.gain_linear, ant.beamwidth_rad, ant.relative_gain_floor)

    assert cached(antenna) == formulas(antenna)
    other = antenna._replace(gain_dbi=antenna.gain_dbi + 3.0, min_relative_gain_db=-20.0)
    assert cached(other) == formulas(other)
    assert other.gain_linear != antenna.gain_linear
    assert other.relative_gain_floor != antenna.relative_gain_floor


class TestPatternGain:
    def test_boresight(self):
        ant = Antenna(10.0)
        assert pattern_gain(ant, 0.0) == ant.gain_linear

    def test_half_power_exact(self):
        ant = Antenna(10.0)
        half = math.radians(beamwidth_from_gain(ant)) / 2.0
        assert pattern_gain(ant, half) / pattern_gain(ant, 0.0) == 0.5

    def test_full_width_is_sixteenth(self):
        # 2**(-4) at one full beamwidth off boresight
        ant = Antenna(10.0)
        full = math.radians(beamwidth_from_gain(ant))
        assert pattern_gain(ant, full) / pattern_gain(ant, 0.0) == pytest.approx(0.0625, rel=1e-14)

    def test_sidelobe_floor(self):
        ant = Antenna(10.0, min_relative_gain_db=-20.0)
        wide = pattern_gain(ant, math.pi)
        assert wide == pytest.approx(ant.gain_linear * 1e-2, rel=1e-12)

    def test_narrow_beam_never_underflows_to_zero(self):
        # a 40 dBi pencil beam evaluated behind the antenna stays positive
        ant = Antenna(40.0)
        assert pattern_gain(ant, math.pi) > 0.0

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            pattern_gain(Antenna(10.0), -0.1)
        with pytest.raises(ValueError):
            pattern_gain(Antenna(10.0), math.pi + 0.1)

    @given(st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=0.0, max_value=math.pi))
    def test_non_increasing(self, a, b):
        ant = Antenna(15.0)
        lo, hi = min(a, b), max(a, b)
        assert pattern_gain(ant, hi) <= pattern_gain(ant, lo) + 1e-15


class TestConeRadius:
    def test_calibrated_paper_radius(self):
        ant = Antenna(10.0, beamwidth_override_deg=CALIBRATED_BEAMWIDTH_DEG)
        assert cone_radius(ant, 3.5) == pytest.approx(7.2, abs=1e-9)

    def test_default_kappa_10dbi(self):
        # frozen: 3.5 * tan(radians(sqrt(4125.3)) / 2); documents the gap to the
        # published 7.2 m radius, whose beamwidth model is pinned by override
        assert cone_radius(Antenna(10.0), 3.5) == pytest.approx(2.1967590014, abs=1e-8)

    def test_linear_in_height(self):
        ant = Antenna(10.0)
        assert cone_radius(ant, 7.0) == pytest.approx(2.0 * cone_radius(ant, 3.5), rel=1e-12)

    def test_decreasing_in_gain_increasing_in_height(self):
        radii = [cone_radius(Antenna(g), 3.5) for g in (5.0, 10.0, 15.0, 20.0, 25.0)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        heights = [cone_radius(Antenna(10.0), h) for h in (2.0, 3.5, 5.0, 8.5)]
        assert all(a < b for a, b in zip(heights, heights[1:]))

    def test_degenerate_geometry(self):
        with pytest.raises(GeometryError):
            cone_radius(Antenna(0.0), 3.5)  # clamped to 180 deg
        with pytest.raises(ValueError):
            cone_radius(Antenna(10.0), 0.0)


def test_pattern_continuity_on_grid():
    ant = Antenna(10.0)
    thetas = [i * math.pi / 2000.0 for i in range(2001)]
    values = [pattern_gain(ant, th) for th in thetas]
    assert all(a >= b for a, b in zip(values, values[1:]))
    jumps = [abs(a - b) for a, b in zip(values, values[1:])]
    assert max(jumps) < ant.gain_linear * 0.01
