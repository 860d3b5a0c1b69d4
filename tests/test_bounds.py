import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from thzsecmap import (
    BoundFreeParams,
    SecrecyCode,
    link_from_capacity_bits,
    link_from_snr,
    min_reliability,
    min_security,
)
from oracles import channel_divergence, renyi_bivariate_gaussian
from thzsecmap.bounds import _exponents, _min_log_bound

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


class TestExponentsAgainstDivergence:
    """``_exponents``' E1 is the divergence exponent of the bounds with the capacity cancelled."""

    @seed(20261024)
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.integers(1, 2 ** 40), st.floats(1e-3, 0.999), st.floats(1e-3, 0.999),
           st.floats(1e-9, 10.0), st.booleans())
    def test_e1_equals_the_divergence_form(self, n, rho, fraction, lam, security):
        link = link_from_snr(rho * rho / (1.0 - rho * rho))
        rho, c = link.rho, link.capacity_nats
        if security:  # alpha = 1 + t in (1, 1 + 1/rho)
            t = fraction / rho
            d = channel_divergence(1.0 + t, link)
            expected = n * t * (d - c - lam)
        else:  # alpha = 1 - t in (0, 1)
            t = fraction
            d = channel_divergence(1.0 - t, link)
            expected = -n * t * (d - c + lam)
        e1 = _exponents(n, rho, t, lam, 0.5 if security else 1.0, 1.0)[0]
        # the divergence form subtracts C from D: its rounding scales with both
        assert e1 == pytest.approx(expected, rel=0.0, abs=1e-12 * n * t * (abs(d) + c + lam))


def _prob(log_value):
    return 1.0 if log_value >= 0.0 else math.exp(log_value)


def _reliability_at(code, link, params):
    """The reliability bound at one (alpha, lambda), from the scalar oracle, at most 1."""
    m = link.capacity_nats - (code.rate_bits + code.randomness_bits) * LN2
    return _prob(oracles.log_bound_at(code.blocklength, link.rho, 1.0 - params.alpha,
                                      params.lambda_nats, 1.0, m))


def _security_at(code, link, params):
    """The security bound at one (alpha, lambda), from the scalar oracle, at most 1."""
    m = code.randomness_bits * LN2 - link.capacity_nats
    return _prob(oracles.log_bound_at(code.blocklength, link.rho, params.alpha - 1.0,
                                      params.lambda_nats, 0.5, m))


class TestBoundEvaluators:
    """The scalar oracle that checks the optimizers' argmins, against frozen values."""

    def test_reliability_frozen_example(self):
        # frozen from an independent numpy evaluation of the two-term expression
        code = SecrecyCode(2000, 0.2, 0.5)
        link = link_from_capacity_bits(1.2)
        params = BoundFreeParams(alpha=0.9, lambda_nats=0.1)
        assert _reliability_at(code, link, params) == pytest.approx(1.7106043281e-4, rel=1e-9)

    def test_security_frozen_example(self):
        code = SecrecyCode(2000, 0.2, 0.5)
        link = link_from_capacity_bits(0.1)
        params = BoundFreeParams(alpha=1.5, lambda_nats=0.05)
        assert _security_at(code, link, params) == pytest.approx(8.9141453062e-8, rel=1e-9)

    def test_reliability_clamps_when_rate_infeasible(self):
        code = SecrecyCode(1000, 0.8, 0.5)
        link = link_from_capacity_bits(1.2)  # C <= R + L
        assert _reliability_at(code, link, BoundFreeParams(0.9, 0.05)) == 1.0

    def test_security_clamps_when_randomness_insufficient(self):
        code = SecrecyCode(1000, 0.2, 0.1)
        link = link_from_capacity_bits(0.5)  # L <= C_AE
        assert _security_at(code, link, BoundFreeParams(1.5, 0.05)) == 1.0

    def test_reliability_vanishes_with_blocklength(self):
        link = link_from_capacity_bits(1.2)
        params = BoundFreeParams(alpha=0.9, lambda_nats=0.1)
        values = [_reliability_at(SecrecyCode(n, 0.2, 0.5), link, params)
                  for n in (500, 1000, 2000, 4000, 8000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_security_non_increasing_in_randomness(self):
        link = link_from_capacity_bits(0.1)
        params = BoundFreeParams(alpha=1.5, lambda_nats=0.05)
        values = [_security_at(SecrecyCode(2000, 0.2, l), link, params)
                  for l in (0.3, 0.5, 0.8, 1.2)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=100, max_value=8000),
           st.floats(min_value=0.01, max_value=4.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.01, max_value=30.0))
    @settings(max_examples=150, deadline=None)
    def test_clamped_to_unit_interval(self, n, r_bits, l_bits, snr):
        # the minimized bounds are probabilities, also where no code meets the rates
        code = SecrecyCode(n, r_bits, l_bits)
        link = link_from_snr(snr)
        assert 0.0 <= min_reliability(code, link)[0] <= 1.0
        assert 0.0 <= min_security(code, link)[0] <= 1.0


class TestParamValidation:
    def test_secrecy_code(self):
        with pytest.raises(ValueError):
            SecrecyCode(0, 0.2, 0.5)
        with pytest.raises(ValueError):
            SecrecyCode(100, 0.0, 0.5)
        with pytest.raises(ValueError):
            SecrecyCode(100, 0.2, -0.1)
        with pytest.raises(ValueError):
            SecrecyCode(True, 0.2, 0.1)
        with pytest.raises(ValueError):
            SecrecyCode(2 ** 53 + 1, 0.2, 0.1)
        assert SecrecyCode(2 ** 53, 0.2, 0.1).blocklength == 2 ** 53
        with pytest.raises(ValueError, match=r"got an integer of 401 digits$"):
            SecrecyCode(10 ** 400, 0.2, 0.1)
        # past the 4300 digits that str() of an int accepts, counted exactly
        for n, text in ((10 ** 5000, "an integer of 5001 digits"),
                        (10 ** 5000 - 1, "an integer of 5000 digits"),
                        (-10 ** 9000, "a negative integer of 9001 digits")):
            with pytest.raises(ValueError, match=f"got {text}$"):
                SecrecyCode(n, 0.2, 0.1)

    @pytest.mark.parametrize("rate, randomness", [
        (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
        (0.2, math.nan), (0.2, math.inf), (0.2, -math.inf),
    ])
    def test_secrecy_code_rates_must_be_finite(self, rate, randomness):
        with pytest.raises(ValueError, match="code rates must be finite"):
            SecrecyCode(2000, rate, randomness)

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


def _wide_instances(count, seed):
    # n log-uniform in [1e2, 1e5], SNR log-uniform in [1e-4, 1e4]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(np.exp(rng.uniform(np.log(1e2), np.log(1e5))))
        yield n, link_from_snr(float(np.exp(rng.uniform(np.log(1e-4), np.log(1e4)))))


def _g(lam, n, rho, k, m, t_hi):
    """g(lambda) from the formulas in the bounds module docstring, in numpy.

    Returns g and, per point, the size of the terms that cancel in it.
    """
    t = np.minimum(lam / (rho * (np.sqrt(rho * rho + lam * lam) + rho)), t_hi)
    a = n * np.log1p(-(t * rho) ** 2)
    e2 = -k * n * (m - lam)
    log_t = np.log(t / k)
    return e2 + a + n * t * lam - log_t, np.abs(e2) + np.abs(a) + n * t * lam + np.abs(log_t)


def _same_in_log_space(a, b, rel=1e-12):
    # |ln a - ln b| <= rel*|ln a|; a subnormal carries only a few digits, so
    # there a few of its ulps are also allowed
    if a == b:
        return True
    if min(a, b) <= 0.0:
        return False
    return abs(math.log(a) - math.log(b)) <= rel * abs(math.log(a)) or abs(a - b) <= 2e-323


class TestOptimizers:
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

    # A plan fixes the code; the security level reads only n and L from it, so
    # random (n, L) pairs cover every feasible plan's code.
    @seed(20261021)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(min_value=100, max_value=20000),
           st.floats(min_value=0.0, max_value=6.0),
           st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40))
    def test_security_level_non_decreasing_in_snr(self, n, l_bits, drawn):
        code = SecrecyCode(n, 0.2, l_bits)
        log_spaced = [10.0 ** (k / 20.0) for k in range(-120, 61)]  # 1e-6 to 1e3
        neighbours = [math.nextafter(s, math.inf) for s in drawn]
        snrs = sorted({*log_spaced, *drawn, *neighbours})
        deltas = [min_security(code, link_from_snr(s))[0] for s in snrs]
        for k in range(1, len(snrs)):
            assert deltas[k - 1] <= deltas[k], (n, l_bits, snrs[k - 1], snrs[k])

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

    def test_lambda_pinned_at_margin(self):
        # g(m) <= 0: the log bound still falls at lambda = m, where e2 = 0, so the bound is 1
        link = link_from_snr(0.0101)
        code = SecrecyCode(1, 0.2, (link.capacity_nats + 0.05) / LN2)
        m = code.randomness_bits * LN2 - link.capacity_nats
        g, _ = _g(np.array([m]), 1, link.rho, 0.5, m, (1.0 - 1e-9) / link.rho)
        assert g[0] < 0.0
        delta, params = min_security(code, link)
        assert (delta, params.lambda_nats) == (1.0, m)
        assert _security_at(code, link, params) == 1.0

    def test_no_root_returns_one(self):
        # g > 0 on all of (0, m], but g(m) is on its rising side, so Newton
        # steps inward before it finds no root
        link = link_from_snr(1.0)
        code = SecrecyCode(100, 0.2, 1.1)
        m = code.randomness_bits * LN2 - link.capacity_nats
        lam = np.geomspace(1e-9 * m, m, 10000)
        g, _ = _g(lam, 100, link.rho, 0.5, m, (1.0 - 1e-9) / link.rho)
        assert g.min() > 0.0 and g[-1] > g[-2]
        delta, params = min_security(code, link)
        assert delta == 1.0 and params is not None
        assert _security_at(code, link, params) == 1.0

    def test_reliability_t_clamp(self):
        # m < C < 2*SNR keeps the reliability t* below 1 on (0, m], so only a
        # margin no code has reaches the clamp; there g is affine in lambda
        # and its root has a closed form
        n, link, m = 100, link_from_snr(0.1), 1.0
        t_hi = 1.0 - 1e-9
        value, t, lam = _min_log_bound(n, link.rho, 1.0, m, t_hi)
        log1p_term = math.log1p(-(t_hi * link.rho) ** 2)
        assert t == t_hi
        assert lam == pytest.approx((n * m - n * log1p_term + math.log(t_hi)) / (n * (1.0 + t_hi)),
                                    rel=1e-14)
        assert lam > 2.0 * link.snr
        assert value == pytest.approx(float(np.logaddexp(-n * (log1p_term + t_hi * lam),
                                                         -n * (m - lam))), rel=1e-14)

    def test_margin_of_one_ulp_keeps_alpha_off_one(self):
        # t* ~ m/(2 rho^2) falls below 2**-53 here, where 1 + t* rounds to 1
        link = link_from_snr(1.0)
        code = SecrecyCode(1000, 0.2, math.nextafter(link.capacity_nats / LN2, math.inf))
        assert 0.0 < code.randomness_bits * LN2 - link.capacity_nats < 1e-15
        delta, params = min_security(code, link)
        assert delta == 1.0 and params.alpha > 1.0
        assert _security_at(code, link, params) == 1.0

    def test_zero_rho_security(self):
        # divergence vanishes, bound reduces to the randomness margin term;
        # at SNR 1e-40 the root in lambda lies far below an ulp of the margin
        code = SecrecyCode(1000, 0.2, 0.1)
        expected = math.exp(-1000 * 0.1 * LN2 / 2.0)
        for snr in (0.0, 1e-40):
            link = link_from_snr(snr)
            delta, params = min_security(code, link)
            assert delta <= expected * (1.0 + 1e-6)
            assert params is not None
            assert _same_in_log_space(_security_at(code, link, params), delta)

    def test_deep_underflow_reports_zero(self):
        # exponents far past double range come back as exactly 0
        link = link_from_snr(1e-6)
        code = SecrecyCode(8000, 0.2, 4.0)
        delta, params = min_security(code, link)
        assert delta == 0.0
        assert _security_at(code, link, params) == 0.0
        code, link = SecrecyCode(8000, 0.1, 0.1), link_from_snr(1e4)
        phi, params = min_reliability(code, link)
        assert phi == 0.0
        assert _reliability_at(code, link, params) == 0.0

    def test_argmin_reproduces_minimum(self):
        link = link_from_capacity_bits(1.2)
        code = SecrecyCode(2000, 0.2, 0.5)
        phi, params = min_reliability(code, link)
        assert _reliability_at(code, link, params) == pytest.approx(phi, rel=1e-9)
        link_e = link_from_capacity_bits(0.1)
        delta, params_e = min_security(code, link_e)
        assert _security_at(code, link_e, params_e) == pytest.approx(delta, rel=1e-9)
        rng = np.random.default_rng(23)
        below_one = 0
        for n, link in _wide_instances(1000, seed=29):
            c = link.capacity_bits
            r_bits = float(rng.uniform(0.05, 1.0)) * c
            l_bits = float(rng.uniform(0.0, 1.0)) * (c - r_bits)
            code = SecrecyCode(n, r_bits, l_bits)
            phi, params = min_reliability(code, link)
            assert _same_in_log_space(_reliability_at(code, link, params), phi), (n, link.snr)
            code = SecrecyCode(n, 0.2, c + float(rng.uniform(0.0, 2.0)))
            delta, params = min_security(code, link)
            assert _same_in_log_space(_security_at(code, link, params), delta), (n, link.snr)
            below_one += (0.0 < phi < 1.0) + (0.0 < delta < 1.0)
        assert below_one >= 1000

    def test_minimum_is_exact(self):
        # the argmin is at least as good as the refined grid minimum, up to rounding
        compared = 0
        for n, link, r_bits, l_bits in _reliability_instances(25, seed=11):
            _, params = min_reliability(SecrecyCode(n, r_bits, l_bits), link)
            refined = oracles.grid_min_log_reliability(n, link.capacity_bits, r_bits, l_bits,
                                                       link.rho)[1]
            value = oracles.log_reliability_at(n, link.capacity_bits, r_bits, l_bits, link.rho,
                                               params.alpha, params.lambda_nats)
            assert value <= refined + 1e-11 * abs(refined), (n, link.snr, value, refined)
            compared += refined < 0.0
        for n, link, l_bits in _security_instances(25, seed=13):
            _, params = min_security(SecrecyCode(n, 0.2, l_bits), link)
            refined = oracles.grid_min_log_security(n, link.capacity_bits, l_bits, link.rho)[1]
            value = oracles.log_security_at(n, link.capacity_bits, l_bits, link.rho,
                                            params.alpha, params.lambda_nats)
            assert value <= refined + 1e-11 * abs(refined), (n, link.snr, value, refined)
            compared += refined < 0.0
        assert compared >= 40

    def test_g_is_convex(self):
        # Newton from lambda = m relies on it; lambda reaches 3x past 2*SNR,
        # where the reliability t* clamps
        rng = np.random.default_rng(31)
        for n, link in _wide_instances(1000, seed=37):
            rho = link.rho
            m = float(rng.uniform(0.0, 2.0)) * link.capacity_nats
            top = 3.0 * max(2.0 * link.snr, m)
            lam = np.geomspace(1e-6 * top, top, 1500)
            for k, t_hi in ((1.0, 1.0 - 1e-9), (0.5, (1.0 - 1e-9) / rho)):
                g, size = _g(lam, n, rho, k, m, t_hi)
                slope = np.diff(g) / np.diff(lam)
                noise = 8.0 * np.finfo(float).eps * (size[:-1] + size[1:]) / np.diff(lam)
                assert np.all(np.diff(slope) >= -(noise[:-1] + noise[1:])), (n, link.snr, k)

