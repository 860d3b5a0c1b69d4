import math
import pytest
from hypothesis import given, strategies as st

import oracles
from thzsecmap import (
    Antenna,
    BoundFreeParams,
    LinkState,
    RadialProfile,
    RadioEnvironment,
    ScenarioConfig,
    SecrecyCode,
    SecrecyMapGrid,
    db_to_ratio,
    fspl_gain,
    link_budget,
    link_from_capacity_bits,
    link_from_snr,
    ratio_to_db,
    watts_to_dbm,
)


class TestFsplGain:
    def test_300ghz_1m_frozen(self):
        # frozen from the dB-domain Friis oracle (oracles.fspl_db)
        value = fspl_gain(300e9, 1.0)
        assert value == pytest.approx(6.3238151746e-09, rel=1e-9)
        assert ratio_to_db(value) == pytest.approx(-81.9902083163, abs=1e-6)
        assert ratio_to_db(value) == pytest.approx(-oracles.fspl_db(300e9, 1.0), abs=1e-12)

    def test_inverse_square(self):
        assert fspl_gain(300e9, 2.0) == pytest.approx(fspl_gain(300e9, 1.0) / 4.0, rel=1e-14)

    def test_300ghz_8m_frozen(self):
        assert ratio_to_db(fspl_gain(300e9, 8.0)) == pytest.approx(-100.0520080561, abs=1e-6)

    def test_monotone_in_frequency_and_distance(self):
        assert fspl_gain(600e9, 1.0) < fspl_gain(300e9, 1.0)
        assert fspl_gain(300e9, 3.0) < fspl_gain(300e9, 1.0)

    @pytest.mark.parametrize("fc,d", [(0.0, 1.0), (-1.0, 1.0), (300e9, 0.0), (300e9, -2.0)])
    def test_domain_errors(self, fc, d):
        with pytest.raises(ValueError):
            fspl_gain(fc, d)


class TestNoisePower:
    def test_paper_operating_point(self, paper_env):
        # frozen: k_B * 290 * 1e9 * 10^0.9
        value = paper_env.noise_power_w
        assert value == pytest.approx(3.1803966005e-11, rel=1e-9)
        assert watts_to_dbm(value) == pytest.approx(-74.9751871942, abs=1e-6)

    def test_unit_noise_factor(self):
        env = RadioEnvironment(300e9, 1e9, 290.0, 0.0)
        assert env.noise_power_w == pytest.approx(1.380649e-23 * 290.0 * 1e9, rel=1e-12)

    def test_one_hertz_band(self):
        env = RadioEnvironment(300e9, 1.0, 290.0, 0.0)
        assert env.noise_power_w == pytest.approx(4.0038821e-21, rel=1e-9)

    def test_cached_on_the_environment(self, paper_env):
        assert "noise_power_w" in vars(paper_env)  # computed once, by the constructor's check
        colder = paper_env._replace(temperature_k=145.0)
        assert colder.noise_power_w == paper_env.noise_power_w / 2.0  # halving is exact

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            RadioEnvironment(300e9, 0.0, 290.0, 9.0)
        with pytest.raises(ValueError):
            RadioEnvironment(300e9, 1e9, -1.0, 9.0)
        with pytest.raises(ValueError):
            RadioEnvironment(300e9, 1e9, 290.0, -0.1)


class TestLinkBudget:
    def test_directed_paper_link(self, paper_env):
        # frozen from the all-dB budget oracle (oracles.snr_db_budget)
        link = link_budget(0.5e-3, db_to_ratio(20.0), db_to_ratio(20.0),
                           math.hypot(15.0, 8.5), paper_env)
        assert ratio_to_db(link.snr) == pytest.approx(5.2434602884, abs=1e-6)
        assert link.capacity_bits == pytest.approx(2.1192280708, abs=1e-8)
        oracle_db = oracles.snr_db_budget(10.0 * math.log10(0.5), 20.0, 20.0, 300e9,
                                          math.hypot(15.0, 8.5), 290.0, 1e9, 9.0)
        assert ratio_to_db(link.snr) == pytest.approx(oracle_db, abs=1e-9)

    def test_unit_snr_gives_unit_capacity(self):
        link = link_from_snr(1.0)
        assert link.capacity_bits == pytest.approx(1.0, rel=1e-14)

    def test_zero_snr_limit(self):
        link = link_from_snr(0.0)
        assert link.rho == 0.0
        assert link.capacity_bits == 0.0

    def test_invariants_hold(self, paper_env):
        link = link_budget(1e-3, 10.0, 10.0, 4.0, paper_env)
        assert link.snr == pytest.approx(link.received_power_w / link.noise_power_w, rel=1e-14)
        assert link.capacity_nats == pytest.approx(math.log1p(link.snr), rel=1e-14)
        assert link.rho ** 2 * (1.0 + link.snr) == pytest.approx(link.snr, rel=1e-12)

    def test_capacity_monotone(self, paper_env):
        base = link_budget(1e-3, 10.0, 10.0, 4.0, paper_env)
        assert link_budget(2e-3, 10.0, 10.0, 4.0, paper_env).capacity_bits > base.capacity_bits
        assert link_budget(1e-3, 20.0, 10.0, 4.0, paper_env).capacity_bits > base.capacity_bits
        assert link_budget(1e-3, 10.0, 20.0, 4.0, paper_env).capacity_bits > base.capacity_bits
        assert link_budget(1e-3, 10.0, 10.0, 8.0, paper_env).capacity_bits < base.capacity_bits

    def test_domain_errors_propagate(self, paper_env):
        with pytest.raises(ValueError):
            link_budget(0.0, 10.0, 10.0, 4.0, paper_env)
        with pytest.raises(ValueError):
            link_budget(1e-3, -1.0, 10.0, 4.0, paper_env)
        with pytest.raises(ValueError):
            link_budget(1e-3, 10.0, 10.0, 0.0, paper_env)

    def test_infinite_snr_rejected(self):
        with pytest.raises(ValueError, match="rho must lie in"):  # rho = inf / inf is NaN
            link_from_snr(math.inf)

    def test_link_from_capacity_round_trip(self):
        link = link_from_capacity_bits(1.2)
        assert link.capacity_bits == pytest.approx(1.2, rel=1e-12)


_ENV = RadioEnvironment(300e9, 1e9, 290.0, 9.0)
_ANTENNA = Antenna(10.0)


# (record, field, a value its checks accept, values they refuse, the refusal's message)
@pytest.mark.parametrize("record, field, good, bad, message", [
    pytest.param(link_from_snr(1.0), "snr", 3.0, {"noise_power_w": 0.0, "snr": -1.0, "rho": 1.0},
                 "^(noise power|snr|rho) ", id="LinkState"),
    pytest.param(_ENV, "temperature_k", 145.0, {"bandwidth_hz": 0.0, "noise_figure_db": -0.1},
                 "^(bandwidth|noise figure) ", id="RadioEnvironment"),
    pytest.param(_ANTENNA, "gain_dbi", 20.0,
                 {"min_relative_gain_db": 5.0, "beamwidth_override_deg": 190.0},
                 "^(min_relative_gain_db|beamwidth_override_deg) ", id="Antenna"),
    pytest.param(ScenarioConfig("cell", _ENV, _ANTENNA, _ANTENNA, _ANTENNA, 1e-3, 3.5),
                 "height_difference_m", 8.5, {"height_difference_m": 1e-300, "variant": "x"},
                 "^(height difference must be at least 1e-150 m|variant must)",
                 id="ScenarioConfig"),
    pytest.param(SecrecyCode(2000, 0.2, 0.5), "randomness_bits", 0.0,
                 {"blocklength": 0, "rate_bits": -1.0}, "^(blocklength|secrecy rate) ",
                 id="SecrecyCode"),
    pytest.param(BoundFreeParams(0.5, 0.1), "alpha", 2.0, {"alpha": 1.0, "lambda_nats": 0.0},
                 "^(alpha|lambda) ", id="BoundFreeParams"),
    pytest.param(SecrecyMapGrid((0.0,), (0.0,), ((0.5,),), {}), "values", ((0.25,),),
                 {"values": ((1.5,),), "xs": (0.0, 1.0)}, "^(security levels|values) ",
                 id="SecrecyMapGrid"),
    pytest.param(RadialProfile((0.0, 1.0), (1.0, 0.5)), "deltas", (0.5, 0.25),
                 {"radii_m": (1.0, 0.0), "deltas": (1.0,)}, "^(radii|2 radii) ",
                 id="RadialProfile"),
])
def test_record_checked_and_immutable(record, field, good, bad, message):
    """Every way of building a checked record runs its constructor's checks."""
    # a value computed once per instance: a copy must compute its own
    cached = {Antenna: "gain_linear", RadioEnvironment: "noise_power_w"}.get(type(record))
    before = getattr(record, cached) if cached else None
    copy = record._replace(**{field: good})
    assert type(copy) is type(record) and getattr(copy, field) == good
    if cached:
        assert getattr(copy, cached) == getattr(type(record)(*copy), cached) != before
    for name, value in bad.items():
        with pytest.raises(ValueError, match=message) as built:
            type(record)(**{**record._asdict(), name: value})
        with pytest.raises(ValueError) as replaced:
            record._replace(**{name: value})
        assert str(replaced.value) == str(built.value)
    with pytest.raises(AttributeError):
        setattr(record, field, good)


@given(st.floats(min_value=-150.0, max_value=150.0))
def test_db_round_trip(db):
    assert ratio_to_db(db_to_ratio(db)) == pytest.approx(db, abs=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_round_trip(dbm):
    watts = 10 ** ((dbm - 30) / 10)
    assert watts_to_dbm(watts) == pytest.approx(dbm, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_rho_identity(snr):
    link = link_from_snr(snr)
    assert link.rho ** 2 * (1.0 + snr) == pytest.approx(snr, rel=1e-12)
    assert 0.0 <= link.rho < 1.0
