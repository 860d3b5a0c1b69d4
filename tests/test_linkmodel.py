import math

import pytest
from hypothesis import given, strategies as st

import oracles
from thzsecmap import (
    RadioEnvironment,
    db_to_ratio,
    dbm_to_watts,
    fspl_gain,
    link_budget,
    link_from_capacity_bits,
    link_from_snr,
    noise_power,
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
        value = noise_power(paper_env)
        assert value == pytest.approx(3.1803966005e-11, rel=1e-9)
        assert watts_to_dbm(value) == pytest.approx(-74.9751871942, abs=1e-6)

    def test_unit_noise_factor(self):
        env = RadioEnvironment(300e9, 1e9, 290.0, 0.0)
        assert noise_power(env) == pytest.approx(1.380649e-23 * 290.0 * 1e9, rel=1e-12)

    def test_one_hertz_band(self):
        env = RadioEnvironment(300e9, 1.0, 290.0, 0.0)
        assert noise_power(env) == pytest.approx(4.0038821e-21, rel=1e-9)

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

    def test_link_from_capacity_round_trip(self):
        link = link_from_capacity_bits(1.2)
        assert link.capacity_bits == pytest.approx(1.2, rel=1e-12)


@given(st.floats(min_value=-150.0, max_value=150.0))
def test_db_round_trip(db):
    assert ratio_to_db(db_to_ratio(db)) == pytest.approx(db, abs=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_round_trip(dbm):
    assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_rho_identity(snr):
    link = link_from_snr(snr)
    assert link.rho ** 2 * (1.0 + snr) == pytest.approx(snr, rel=1e-12)
    assert 0.0 <= link.rho < 1.0
