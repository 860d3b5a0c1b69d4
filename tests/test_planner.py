import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import CALIBRATED_TX_POWER_W
from thzsecmap import (
    Antenna,
    InfeasiblePlanError,
    ScenarioConfig,
    SecrecyCode,
    cone_radius,
    link_from_snr,
    min_reliability,
    plan_cell,
    plan_directed,
    require_feasible,
)
from thzsecmap.planner import L_BISECTION_TOL_BITS


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
        bumped = SecrecyCode(2000, 0.2, l_bits + 2.0 * L_BISECTION_TOL_BITS)
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
        by_power = [replace(cell_config, transmit_power_w=p) for p in (2e-3, 4e-3, 9e-3)]
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
        configs = [replace(directed_config, horizontal_distance_m=d) for d in (25.0, 15.0, 5.0)]
        ls = [plan_directed(cfg, 2000, 0.2, 1e-3).code.randomness_bits for cfg in configs]
        assert ls[0] < ls[1] < ls[2]

    def test_infeasible_when_power_too_small(self, directed_config):
        plan = plan_directed(replace(directed_config, transmit_power_w=1e-9), 2000, 0.2, 1e-3)
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

        config = replace(directed_config, horizontal_distance_m=5.0)
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
            code_up = SecrecyCode(n, rate, plan.code.randomness_bits + 2.0 * L_BISECTION_TOL_BITS)
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
    plan = plan_cell(replace(cell_config, transmit_power_w=9e-3), 2000, 0.2, 1e-3)
    base = plan_cell(cell_config, 2000, 0.2, 1e-3)
    assert plan.transmit_power_w == 9e-3
    assert plan.bob_link.snr == pytest.approx(base.bob_link.snr * 9e-3 / CALIBRATED_TX_POWER_W,
                                              rel=1e-12)
