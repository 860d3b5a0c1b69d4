import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from thzsecmap import (
    BoundFreeParams,
    SecrecyCode,
    channel_divergence,
    eve_error_floor,
    link_from_capacity_bits,
    link_from_snr,
    min_reliability,
    min_security,
    reliability_bound,
    renyi_bivariate_gaussian,
    security_bound,
)
from thzsecmap.bounds import _min_logsum_linear

LN2 = math.log(2.0)


class TestRenyiBivariateGaussian:
    def test_identical_distributions(self):
        for alpha in (0.3, 0.9, 1.5, 3.0):
            assert renyi_bivariate_gaussian(alpha, 0.6, 0.6) == pytest.approx(0.0, abs=1e-15)

    def test_alpha2_closed_form_frozen(self):
        # frozen: -ln(0.36); cross-checked by 2-D quadrature of the order-2 integral
        value = renyi_bivariate_gaussian(2.0, 0.8, 0.0)
        assert value == pytest.approx(1.0216512475, abs=1e-9)
        assert value == pytest.approx(oracles.renyi_alpha2_quadrature(0.8, 0.0), abs=2e-5)

    def test_alpha_to_one_limit(self):
        # KL limit: -0.5*ln(1 - rho^2)
        for eps in (1e-6, -1e-6):
            value = renyi_bivariate_gaussian(1.0 + eps, 0.8, 0.0)
            assert value == pytest.approx(0.5108256238, rel=1e-4)

    def test_nonnegative_against_independent(self):
        for alpha in (0.2, 0.7, 1.3, 2.5):
            for rho in (0.0, 0.3, 0.9):
                if alpha > 1.0 and alpha - 1.0 >= 1.0 / max(rho, 1e-9):
                    continue
                assert renyi_bivariate_gaussian(alpha, rho, 0.0) >= -1e-15

    def test_validity_domain(self):
        with pytest.raises(ValueError):
            renyi_bivariate_gaussian(3.0, 0.8, 0.0)  # (1-3)*0.8 = -1.6
        with pytest.raises(ValueError):
            renyi_bivariate_gaussian(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            renyi_bivariate_gaussian(0.5, 1.0, 0.0)


class TestChannelDivergence:
    def test_alpha_to_one_equals_capacity(self):
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
            snr = rho * rho / (1.0 - rho * rho)
            link = link_from_snr(snr)
            for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
                value = channel_divergence(alpha, link)
                assert value == pytest.approx(link.capacity_nats, rel=1e-4)

    def test_zero_rho_is_zero(self):
        link = link_from_snr(0.0)
        for alpha in (0.2, 0.9, 1.5, 10.0):
            assert channel_divergence(alpha, link) == 0.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = float(rng.uniform(0.05, 0.95))
            link = link_from_snr(rho * rho / (1.0 - rho * rho))
            top = 1.0 + 1.0 / rho
            alphas = np.sort(rng.uniform(0.05, top - 1e-6, size=5))
            alphas = alphas[np.abs(alphas - 1.0) > 1e-9]
            values = [channel_divergence(float(a), link) for a in alphas]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestBoundEvaluators:
    def test_reliability_frozen_example(self):
        # frozen from an independent numpy evaluation of the two-term expression
        code = SecrecyCode(2000, 0.2, 0.5)
        link = link_from_capacity_bits(1.2)
        params = BoundFreeParams(alpha=0.9, lambda_nats=0.1)
        assert reliability_bound(code, link, params) == pytest.approx(1.7106043281e-4, rel=1e-9)

    def test_security_frozen_example(self):
        code = SecrecyCode(2000, 0.2, 0.5)
        link = link_from_capacity_bits(0.1)
        params = BoundFreeParams(alpha=1.5, lambda_nats=0.05)
        assert security_bound(code, link, params) == pytest.approx(8.9141453062e-8, rel=1e-9)

    def test_reliability_clamps_when_rate_infeasible(self):
        code = SecrecyCode(1000, 0.8, 0.5)
        link = link_from_capacity_bits(1.2)  # C <= R + L
        assert reliability_bound(code, link, BoundFreeParams(0.9, 0.05)) == 1.0

    def test_security_clamps_when_randomness_insufficient(self):
        code = SecrecyCode(1000, 0.2, 0.1)
        link = link_from_capacity_bits(0.5)  # L <= C_AE
        assert security_bound(code, link, BoundFreeParams(1.5, 0.05)) == 1.0

    def test_reliability_vanishes_with_blocklength(self):
        link = link_from_capacity_bits(1.2)
        params = BoundFreeParams(alpha=0.9, lambda_nats=0.1)
        values = [reliability_bound(SecrecyCode(n, 0.2, 0.5), link, params)
                  for n in (500, 1000, 2000, 4000, 8000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_security_non_increasing_in_randomness(self):
        link = link_from_capacity_bits(0.1)
        params = BoundFreeParams(alpha=1.5, lambda_nats=0.05)
        values = [security_bound(SecrecyCode(2000, 0.2, l), link, params)
                  for l in (0.3, 0.5, 0.8, 1.2)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_alpha_range_enforced(self):
        code = SecrecyCode(1000, 0.2, 0.5)
        link = link_from_capacity_bits(1.0)
        with pytest.raises(ValueError):
            reliability_bound(code, link, BoundFreeParams(1.5, 0.1))
        with pytest.raises(ValueError):
            security_bound(code, link, BoundFreeParams(0.9, 0.1))

    @given(st.integers(min_value=100, max_value=8000),
           st.floats(min_value=0.01, max_value=4.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=1e-4, max_value=0.999),
           st.floats(min_value=1e-4, max_value=1.0),
           st.floats(min_value=0.01, max_value=30.0))
    @settings(max_examples=150, deadline=None)
    def test_clamped_to_unit_interval(self, n, r_bits, l_bits, alpha_rel, lam, snr):
        code = SecrecyCode(n, r_bits, l_bits)
        link = link_from_snr(snr)
        phi = reliability_bound(code, link, BoundFreeParams(alpha_rel, lam))
        assert 0.0 <= phi <= 1.0
        alpha_sec = 1.0 + min(0.9 / link.rho, 50.0) if link.rho > 0 else 2.0
        delta = security_bound(code, link, BoundFreeParams(alpha_sec, lam))
        assert 0.0 <= delta <= 1.0


class TestParamValidation:
    def test_secrecy_code(self):
        with pytest.raises(ValueError):
            SecrecyCode(0, 0.2, 0.5)
        with pytest.raises(ValueError):
            SecrecyCode(100, 0.0, 0.5)
        with pytest.raises(ValueError):
            SecrecyCode(100, 0.2, -0.1)

    def test_free_params(self):
        with pytest.raises(ValueError):
            BoundFreeParams(alpha=1.0, lambda_nats=0.1)
        with pytest.raises(ValueError):
            BoundFreeParams(alpha=0.5, lambda_nats=0.0)


def _reliability_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(200, 6001))
        snr = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        link = link_from_snr(snr)
        c = link.capacity_bits
        r_bits = float(rng.uniform(0.05, max(0.06, 0.5 * c)))
        l_bits = float(rng.uniform(0.0, max(1e-3, 0.85 * (c - r_bits))))
        yield n, link, r_bits, l_bits


def _security_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(200, 6001))
        snr = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        link = link_from_snr(snr)
        l_bits = float(link.capacity_bits + rng.uniform(0.02, 1.5))
        yield n, link, l_bits


class TestOptimizers:
    def test_closed_form_lambda_matches_dense_scan(self):
        rng = np.random.default_rng(17)
        below = above = 0
        for _ in range(300):
            q, v = (float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 2)))
            width = float(np.exp(rng.uniform(math.log(1e-4), math.log(10.0))))
            # place the unconstrained stationary point below, inside or above (0, width]
            stationary = float(rng.uniform(-width, 2.0 * width))
            p = float(rng.uniform(-2000.0, 100.0))
            u = p + math.log(q / v) - stationary * (q + v)
            value, lam = _min_logsum_linear(p, q, u, v, width)
            scan = oracles.scan_min_logsum_linear(p, q, u, v, width)
            assert value <= scan + 1e-12 * abs(scan), (p, q, u, v, width)
            assert value == pytest.approx(float(np.logaddexp(p - q * lam, u + v * lam)),
                                          rel=1e-15, abs=0.0)
            assert 0.0 < lam <= width
            BoundFreeParams(alpha=2.0, lambda_nats=lam)
            below += stationary <= 0.0
            above += stationary >= width
        assert below >= 30 and above >= 30

    def test_min_reliability_matches_grid_oracle(self):
        compared = 0
        for n, link, r_bits, l_bits in _reliability_instances(25, seed=11):
            phi, params = min_reliability(SecrecyCode(n, r_bits, l_bits), link)
            grid = oracles.grid_min_log_reliability(n, link.capacity_bits, r_bits, l_bits,
                                                    link.rho)
            assert grid is not None
            counted, ok, err = oracles.compare_to_grid_oracle(phi, grid)
            assert ok, (n, link.snr, r_bits, l_bits, phi, err)
            assert params is not None and 0.0 < params.alpha < 1.0
            compared += counted
        assert compared >= 15

    def test_min_security_matches_grid_oracle(self):
        compared = 0
        for n, link, l_bits in _security_instances(25, seed=13):
            delta, params = min_security(SecrecyCode(n, 0.2, l_bits), link)
            grid = oracles.grid_min_log_security(n, link.capacity_bits, l_bits, link.rho)
            assert grid is not None
            counted, ok, err = oracles.compare_to_grid_oracle(delta, grid)
            assert ok, (n, link.snr, l_bits, delta, err)
            assert params is not None and params.alpha > 1.0
            compared += counted
        assert compared >= 15

    def test_infeasible_rate_returns_one(self):
        link = link_from_capacity_bits(0.6)
        assert min_reliability(SecrecyCode(1000, 0.4, 0.3), link) == (1.0, None)
        assert min_security(SecrecyCode(1000, 0.2, 0.5), link) == (1.0, None)

    def test_phi_star_non_increasing_in_capacity(self):
        code = SecrecyCode(1500, 0.3, 0.4)
        values = [min_reliability(code, link_from_capacity_bits(c))[0]
                  for c in (0.8, 1.0, 1.3, 1.8, 2.5)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_delta_star_non_decreasing_in_eve_capacity(self):
        code = SecrecyCode(1500, 0.3, 1.2)
        values = [min_security(code, link_from_capacity_bits(c))[0]
                  for c in (0.1, 0.3, 0.6, 0.9, 1.1)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_rho_security(self):
        # divergence vanishes, bound reduces to the randomness margin term
        link = link_from_snr(0.0)
        code = SecrecyCode(1000, 0.2, 0.1)
        delta, params = min_security(code, link)
        expected = math.exp(-1000 * 0.1 * LN2 / 2.0)
        assert delta <= expected * (1.0 + 1e-6)
        assert params is not None

    def test_deep_underflow_reports_zero(self):
        # exponents far past double range come back as exactly 0
        link = link_from_snr(1e-6)
        delta, params = min_security(SecrecyCode(8000, 0.2, 4.0), link)
        assert delta == 0.0
        assert params is not None
        phi, _ = min_reliability(SecrecyCode(8000, 0.1, 0.1), link_from_snr(1e4))
        assert phi == 0.0

    def test_argmin_reproduces_minimum(self):
        link = link_from_capacity_bits(1.2)
        code = SecrecyCode(2000, 0.2, 0.5)
        phi, params = min_reliability(code, link)
        assert reliability_bound(code, link, params) == pytest.approx(phi, rel=1e-9)
        link_e = link_from_capacity_bits(0.1)
        delta, params_e = min_security(code, link_e)
        assert security_bound(code, link_e, params_e) == pytest.approx(delta, rel=1e-9)


class TestEveErrorFloor:
    def test_single_bit(self):
        assert eve_error_floor(0.0, 1) == 0.5

    def test_vacuous(self):
        assert eve_error_floor(1.0, 3) == 0.0

    def test_frozen_example(self):
        assert eve_error_floor(1e-3, 10) == pytest.approx(0.9980234375, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            eve_error_floor(-0.1, 3)
        with pytest.raises(ValueError):
            eve_error_floor(0.5, 0)
