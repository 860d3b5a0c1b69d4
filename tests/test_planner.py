import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import oracles
from conftest import CALIBRATED_TX_POWER_W
from thzsecmap import (
    CELL,
    DIRECTED,
    Antenna,
    InfeasiblePlanError,
    RadioEnvironment,
    ScenarioConfig,
    SecrecyCode,
    cone_radius,
    link_from_snr,
    min_reliability,
    plan_cell,
    plan_directed,
    planner,
    require_feasible,
)
from thzsecmap.cli import load_config
from thzsecmap.linkmodel import LN2

CONFIGS = Path(__file__).parent.parent / "src" / "thzsecmap" / "configs"
MISS_BITS = 1e-9  # raising a planned L by this much must break its target


class TestPlanCell:
    def test_paper_setting_meets_target(self, cell_config):
        # published operating point: the target error must hold at the cone edge
        plan = plan_cell(cell_config, 2000, 0.2, 1e-3)
        assert plan.feasible
        assert plan.achieved_phi <= 1e-3
        assert plan.code.randomness_bits > 0.0

    def test_worst_case_link_uses_half_gain_and_edge_distance(self, cell_config):
        plan = plan_cell(cell_config, 2000, 0.2, 1e-3)
        r_b = cone_radius(cell_config.alice, cell_config.height_difference_m)
        slant = math.hypot(cell_config.height_difference_m, r_b)
        from thzsecmap import link_budget

        expected = link_budget(CALIBRATED_TX_POWER_W, cell_config.alice.gain_linear / 2.0,
                               cell_config.bob.gain_linear, slant, cell_config.environment)
        assert plan.bob_link.snr == pytest.approx(expected.snr, rel=1e-12)

    def test_no_rate_budget_is_infeasible(self, cell_config):
        plan = plan_cell(cell_config, 2000, 3.0, 1e-3)
        assert not plan.feasible
        assert plan.code is None
        with pytest.raises(InfeasiblePlanError):
            require_feasible(plan)

    def test_maximality(self, cell_config):
        plan = plan_cell(cell_config, 2000, 0.2, 1e-3)
        l_bits = plan.code.randomness_bits
        bumped = SecrecyCode(2000, 0.2, l_bits + MISS_BITS)
        assert min_reliability(bumped, plan.bob_link)[0] > 1e-3

    def test_matches_scan_oracle(self, cell_config):
        plan = plan_cell(cell_config, 1000, 0.2, 1e-3)
        link = plan.bob_link

        def phi_of_l(l_bits):
            return min_reliability(SecrecyCode(1000, 0.2, l_bits), link)[0]

        scan = oracles.scan_max_randomness(phi_of_l, link.capacity_bits, 0.2, 1e-3)
        assert scan is not None
        assert abs(plan.code.randomness_bits - scan) <= 2e-4

    def test_l_monotone_in_power_and_rate(self, cell_config):
        by_power = [cell_config._replace(transmit_power_w=p) for p in (2e-3, 4e-3, 9e-3)]
        ls_power = [plan_cell(cfg, 2000, 0.2, 1e-3).code.randomness_bits for cfg in by_power]
        assert all(b >= a for a, b in zip(ls_power, ls_power[1:]))
        ls_rate = [plan_cell(by_power[-1], 2000, r, 1e-3).code.randomness_bits
                   for r in (0.1, 0.2, 0.4)]
        assert all(b <= a for a, b in zip(ls_rate, ls_rate[1:]))

    def test_worst_case_dominance(self, cell_config):
        from thzsecmap import Scene, link_budget, pattern_gain

        plan = plan_cell(cell_config, 2000, 0.2, 1e-3)
        r_b = cone_radius(cell_config.alice, cell_config.height_difference_m)
        for frac in (0.0, 0.3, 0.6, 0.9):
            d, theta = Scene(cell_config).path(frac * r_b, 0.0)
            link = link_budget(CALIBRATED_TX_POWER_W, pattern_gain(cell_config.alice, theta),
                               cell_config.bob.gain_linear, d, cell_config.environment)
            assert min_reliability(plan.code, link)[0] <= plan.achieved_phi * (1 + 1e-9)

    def test_invalid_target(self, cell_config):
        with pytest.raises(ValueError):
            plan_cell(cell_config, 2000, 0.2, 0.0)
        with pytest.raises(ValueError):
            plan_cell(cell_config, 2000, 0.2, 1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, cell_config, rate):
        with pytest.raises(ValueError, match="code rates must be finite"):
            plan_cell(cell_config, 2000, rate, 1e-3)

    def test_rejects_directed_config(self, directed_config):
        with pytest.raises(ValueError):
            plan_cell(directed_config, 2000, 0.2, 1e-3)


class TestPlanDirected:
    def test_paper_setting(self, directed_config):
        # C_AB about 2.12 bit at the aligned 15 m / 8.5 m geometry
        plan = plan_directed(directed_config, 2000, 0.2, 1e-3)
        assert plan.feasible
        assert plan.c_ab_bits == pytest.approx(2.1192280708, abs=1e-6)
        assert plan.code.randomness_bits < plan.c_ab_bits - 0.2
        assert plan.achieved_phi <= 1e-3

    def test_shorter_distance_larger_randomness(self, directed_config):
        configs = [directed_config._replace(horizontal_distance_m=d) for d in (25.0, 15.0, 5.0)]
        ls = [plan_directed(cfg, 2000, 0.2, 1e-3).code.randomness_bits for cfg in configs]
        assert ls[0] < ls[1] < ls[2]

    def test_infeasible_when_power_too_small(self, directed_config):
        plan = plan_directed(directed_config._replace(transmit_power_w=1e-9), 2000, 0.2, 1e-3)
        assert not plan.feasible

    def test_matches_scan_oracle(self, directed_config):
        plan = plan_directed(directed_config, 800, 0.2, 1e-3)
        link = plan.bob_link

        def phi_of_l(l_bits):
            return min_reliability(SecrecyCode(800, 0.2, l_bits), link)[0]

        scan = oracles.scan_max_randomness(phi_of_l, link.capacity_bits, 0.2, 1e-3)
        assert abs(plan.code.randomness_bits - scan) <= 2e-4

    def test_rejects_cell_config(self, cell_config):
        with pytest.raises(ValueError):
            plan_directed(cell_config, 2000, 0.2, 1e-3)

    def test_bob_link_has_full_boresight_gain(self, directed_config):
        # the aim leaves a rounding-level angle at 5 m, where the pattern gain
        # would fall short of the boresight gain in the last bits
        from thzsecmap.planner import bob_link

        config = directed_config._replace(horizontal_distance_m=5.0)
        link, distance, g_tx = bob_link(config)
        assert g_tx == config.alice.gain_linear
        assert distance == pytest.approx(math.hypot(5.0, 8.5), rel=1e-15)


class TestRandomizedMaximality:
    def test_randomized_instances(self, paper_env):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 20:
            gain = float(rng.uniform(8.0, 25.0))
            power = float(np.exp(rng.uniform(np.log(5e-4), np.log(2e-2))))
            n = int(rng.integers(300, 5001))
            rate = float(rng.uniform(0.05, 0.6))
            phi_target = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e-2))))
            ant = Antenna(gain)
            cfg = ScenarioConfig(variant="cell", environment=paper_env, alice=ant, bob=ant,
                                 eve=ant, transmit_power_w=power, height_difference_m=3.5)
            plan = plan_cell(cfg, n, rate, phi_target)
            if not plan.feasible:
                continue
            code_up = SecrecyCode(n, rate, plan.code.randomness_bits + MISS_BITS)
            assert plan.achieved_phi <= phi_target
            assert min_reliability(code_up, plan.bob_link)[0] > phi_target
            checked += 1


def test_plan_result_dict_round_trip(cell_config):
    plan = plan_cell(cell_config, 2000, 0.2, 1e-3)
    d = plan.to_dict()
    assert d["feasible"] is True
    assert d["randomness_bits"] == plan.code.randomness_bits
    assert d["l_feasible_interval_bits"] == [0.0, plan.code.randomness_bits]


def test_power_comes_from_the_scenario(cell_config):
    plan = plan_cell(cell_config._replace(transmit_power_w=9e-3), 2000, 0.2, 1e-3)
    base = plan_cell(cell_config, 2000, 0.2, 1e-3)
    assert plan.transmit_power_w == 9e-3
    assert plan.bob_link.snr == pytest.approx(base.bob_link.snr * 9e-3 / CALIBRATED_TX_POWER_W,
                                              rel=1e-12)


def _random_plan_inputs(rng, env, variant):
    """A random scenario and (n, R, phi target) over wide ranges; about 2 in 3 are feasible."""
    ant = Antenna(float(rng.uniform(10.0 if variant == CELL else 0.0, 40.0)))
    cfg = ScenarioConfig(
        variant=variant, environment=env, alice=ant, bob=ant, eve=ant,
        transmit_power_w=float(np.exp(rng.uniform(np.log(1e-5), 0.0))),
        height_difference_m=float(rng.uniform(0.5, 20.0)),
        horizontal_distance_m=float(rng.uniform(1.0, 30.0)) if variant == DIRECTED else None)
    n = int(np.exp(rng.uniform(0.0, np.log(1e6))))
    rate = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.0))))
    phi_target = float(np.exp(rng.uniform(np.log(1e-15), np.log(0.9))))
    return cfg, n, rate, phi_target


def _cell_config_at_rho(rho: float) -> ScenarioConfig:
    """A cell scenario whose transmit power puts the given rho at Bob's position."""
    cfg = ScenarioConfig(variant=CELL, environment=RadioEnvironment(300e9, 1e9, 290.0, 9.0),
                         alice=Antenna(10.0), bob=Antenna(10.0), eve=Antenna(10.0),
                         transmit_power_w=1.0, height_difference_m=3.5)
    snr_per_watt = planner.bob_link(cfg)[0].snr
    return cfg._replace(transmit_power_w=rho * rho / (1.0 - rho * rho) / snr_per_watt)


def count_plan_calls(monkeypatch) -> list:
    """Record the randomness rate of every ``min_reliability`` call the planner makes."""
    calls = []
    original = planner.min_reliability

    def counted(code, link):
        calls.append(code.randomness_bits)
        return original(code, link)

    monkeypatch.setattr(planner, "min_reliability", counted)
    return calls


class TestSolvedMaximum:
    @pytest.mark.parametrize("variant", [CELL, DIRECTED])
    def test_randomized_against_bisection_oracle(self, paper_env, variant):
        rng = np.random.default_rng(2020)
        feasible = 0
        while feasible < 200:
            cfg, n, rate, phi_target = _random_plan_inputs(rng, paper_env, variant)
            plan = planner.plan(cfg, n, rate, phi_target)
            link = plan.bob_link
            oracle = oracles.bisect_max_randomness(
                lambda l_bits: min_reliability(SecrecyCode(n, rate, l_bits), link)[0],
                link.capacity_bits, rate, phi_target)
            assert plan.feasible == (oracle is not None), (cfg, n, rate, phi_target)
            if not plan.feasible:
                continue
            l_bits = plan.code.randomness_bits
            assert oracle[0] <= l_bits < oracle[0] + 1e-6, (cfg, n, rate, phi_target)
            assert plan.achieved_phi <= phi_target
            assert plan.achieved_phi.hex() == min_reliability(plan.code, link)[0].hex()
            feasible += 1

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(min_value=1, max_value=200_000),
           st.floats(min_value=0.2, max_value=0.999),
           st.floats(min_value=1e-3, max_value=2.0),
           st.floats(min_value=-30.0, max_value=-0.2))
    def test_at_least_the_scanned_maximum(self, n, rho, rate, log_phi):
        phi_target = math.exp(log_phi)
        plan = plan_cell(_cell_config_at_rho(rho), n, rate, phi_target)
        assume(plan.feasible)
        link = plan.bob_link
        scan, _, h = oracles.scan_max_randomness_nats(n, link.rho, link.capacity_nats,
                                                      rate * LN2, phi_target)
        # a wrong or a local root of h plans an L below the scanned maximum
        assert plan.code.randomness_bits >= scan / LN2 - 1e-12
        # the basis of the solve: the maximum of F is the one sign change of h
        positive = h > 0.0
        assert positive[0] and np.count_nonzero(positive[1:] != positive[:-1]) == 1

    @pytest.mark.parametrize("rho, n, rate, phi_target", [
        (0.7781019546664518, 129, 0.49812933140140836, 1.1067570591308664e-05),
        (0.9608500137836076, 24, 0.13392226421852566, 1.813216112954386e-07),
    ])
    def test_steps_down_past_ulps_that_the_rate_sum_absorbs(self, rho, n, rate, phi_target):
        # L is far below R, so R + L changes only every few dozen ulps of L: the
        # solved L needed 89 and 659 single-ulp steps down to meet the target
        plan = plan_cell(_cell_config_at_rho(rho), n, rate, phi_target)
        link = plan.bob_link
        oracle = oracles.bisect_max_randomness(
            lambda l_bits: min_reliability(SecrecyCode(n, rate, l_bits), link)[0],
            link.capacity_bits, rate, phi_target)
        assert oracle[0] <= plan.code.randomness_bits < oracle[0] + 1e-6
        assert plan.achieved_phi <= phi_target


class TestPlanWork:
    @pytest.mark.parametrize("config, variable, value, calls", [
        ("scenario1_cell.json", "n", 500, 4),
        ("scenario1_cell.json", "n", 2000, 2),
        ("scenario1_cell.json", "n", 8000, 3),
        ("scenario2_directed.json", "d_AB", 5.0, 2),
        ("scenario2_directed.json", "d_AB", 10.0, 3),
        ("scenario2_directed.json", "d_AB", 15.0, 3),
        ("scenario2_directed.json", "d_AB", 20.0, 3),
        ("scenario2_directed.json", "d_AB", 25.0, 2),
        ("scenario2_directed.json", "d_AB", 30.0, 2),
    ])
    def test_min_reliability_calls_on_the_shipped_configs(self, monkeypatch, config, variable,
                                                          value, calls):
        rc = load_config(CONFIGS / config)
        scenario, n = rc.scenario, rc.n
        if variable == "n":
            n = value
        else:
            scenario = scenario._replace(horizontal_distance_m=value)
        recorded = count_plan_calls(monkeypatch)
        plan = planner.plan(scenario, n, rc.rate_bits, rc.phi_target)
        # L = 0 first, then the solved L and each step down from it
        assert recorded[0] == 0.0 and recorded[-1] == plan.code.randomness_bits
        assert len(recorded) == calls

    def test_min_reliability_calls_on_random_instances(self, monkeypatch, paper_env):
        rng = np.random.default_rng(19)
        recorded = count_plan_calls(monkeypatch)
        for i in range(300):
            cfg, n, rate, phi_target = _random_plan_inputs(rng, paper_env, (CELL, DIRECTED)[i % 2])
            del recorded[:]
            plan = planner.plan(cfg, n, rate, phi_target)
            assert len(recorded) <= (2 + planner._STEPS_DOWN_MAX if plan.feasible else 1)
