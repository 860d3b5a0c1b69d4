"""Finite-blocklength reliability and semantic-security bounds.

The two achievability bounds are each a sum of two exponentials in the
blocklength n.  One exponent carries a Renyi divergence of order alpha
between the joint and product distributions of the channel input/output;
the other carries the rate margin.  Every information quantity is converted
to nats and both exponentials use base e, so the expressions are evaluated
on a single consistent scale.

The divergence of the complex AWGN channel is taken as twice the bivariate
(real) Gaussian closed form, which makes its alpha -> 1 limit equal the
channel capacity ln(1 + SNR).

Minimization over the free parameters (alpha, lambda) is nested.  For fixed
alpha the log objective logaddexp(p - q*lambda, u + v*lambda), q, v > 0, is
a log-sum-exp of affine functions of lambda and hence convex (Boyd &
Vandenberghe, *Convex Optimization* 3.1.5), so lambda is solved in closed
form: the stationary point, clamped to the admissible interval.  Alpha is
seeded on a 64-point log-spaced grid and refined by golden-section search
around the best seed.  Everything is evaluated in log space, so bound
values far below the smallest positive double are reported as exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linkmodel import LN2, LinkState

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_ALPHA_SEEDS = 64
_ALPHA_GUARD = 1e-9
_INNER_REL_TOL = 1e-9
_MAX_ITER = 200
MAX_BLOCKLENGTH = 2 ** 53  # the bounds compute with n as a float, exact up to here


@dataclass(frozen=True)
class SecrecyCode:
    """Wiretap code parameters.

    Attributes
    ----------
    blocklength : int
        Number of channel uses n.
    rate_bits : float
        Secrecy (message) rate R in bits per channel use.
    randomness_bits : float
        Local randomness rate L in bits per channel use, used to confuse
        the eavesdropper.
    """

    blocklength: int
    rate_bits: float
    randomness_bits: float

    def __post_init__(self) -> None:
        n = self.blocklength
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_BLOCKLENGTH:
            raise ValueError(f"blocklength must be an integer in [1, 2**53], got {n!r}")
        if self.rate_bits <= 0.0:
            raise ValueError(f"secrecy rate must be positive, got {self.rate_bits}")
        if self.randomness_bits < 0.0:
            raise ValueError(f"randomness rate must be >= 0, got {self.randomness_bits}")


@dataclass(frozen=True)
class BoundFreeParams:
    """Free parameters of one bound evaluation.

    ``alpha`` is the Renyi order (in (0,1) for the reliability bound, above 1
    for the security bound) and ``lambda_nats`` the positive rate-splitting
    slack.  The higher-order epsilon term is negligible and omitted.
    """

    alpha: float
    lambda_nats: float

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.alpha == 1.0:
            raise ValueError(f"alpha must be positive and != 1, got {self.alpha}")
        if self.lambda_nats <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lambda_nats}")


def _check_renyi_domain(alpha: float, rho_i: float, rho_j: float) -> float:
    # returns the mixed correlation alpha*rho_j + (1-alpha)*rho_i
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and != 1, got {alpha}")
    if not 0.0 <= rho_i < 1.0 or not 0.0 <= rho_j < 1.0:
        raise ValueError(f"correlations must lie in [0, 1), got {rho_i}, {rho_j}")
    mix = alpha * rho_j + (1.0 - alpha) * rho_i
    if mix * mix >= 1.0:
        raise ValueError(
            f"order alpha={alpha} outside validity domain for rho_i={rho_i}, rho_j={rho_j}"
        )
    return mix


def renyi_bivariate_gaussian(alpha: float, rho_i: float, rho_j: float = 0.0) -> float:
    """Renyi divergence of order alpha between bivariate Gaussians, in nats.

    Both distributions are standard bivariate normals differing only in
    their correlation coefficients rho_i (first argument) and rho_j
    (second argument).  Closed form:

        0.5*ln((1-rho_j^2)/(1-rho_i^2))
        - (1/(2(alpha-1))) * ln((1-(alpha*rho_j+(1-alpha)*rho_i)^2)/(1-rho_j^2))

    valid while the argument of the second logarithm stays positive.
    """
    mix = _check_renyi_domain(alpha, rho_i, rho_j)
    first = 0.5 * (math.log1p(-rho_j * rho_j) - math.log1p(-rho_i * rho_i))
    second = (math.log1p(-mix * mix) - math.log1p(-rho_j * rho_j)) / (2.0 * (alpha - 1.0))
    return first - second


def channel_divergence(alpha: float, link: LinkState) -> float:
    """Divergence between joint and product input/output laws of one link, nats.

    The channel is complex (two real dimensions), so the bivariate closed
    form is doubled; its alpha -> 1 limit then equals ``link.capacity_nats``.
    """
    _check_renyi_domain(alpha, link.rho, 0.0)
    return _divergence_from_t(alpha - 1.0, link.rho)


def _clamp_prob(log_value: float) -> float:
    if log_value >= 0.0:
        return 1.0
    return math.exp(log_value)  # underflows to exactly 0.0 below ~e^-745


def _logaddexp(e1: float, e2: float) -> float:
    if e1 < e2:
        e1, e2 = e2, e1
    return e1 + math.log1p(math.exp(e2 - e1))


def reliability_bound(code: SecrecyCode, link_ab: LinkState, params: BoundFreeParams) -> float:
    """Achievable average error probability at the legitimate receiver.

    exp(-n(1-alpha)(D_alpha - C + lambda)) + exp(-n(C - R - L - lambda)),
    all in nats, clamped to [0, 1].  Requires alpha in (0, 1).
    """
    if not 0.0 < params.alpha < 1.0:
        raise ValueError(f"reliability bound requires alpha in (0,1), got {params.alpha}")
    div = channel_divergence(params.alpha, link_ab)
    c_nats = link_ab.capacity_nats
    margin = c_nats - (code.rate_bits + code.randomness_bits) * LN2
    p, q, u, v = _reliability_coefficients(1.0 - params.alpha, code.blocklength, c_nats,
                                           div, margin)
    return _clamp_prob(_logaddexp(p - q * params.lambda_nats, u + v * params.lambda_nats))


def security_bound(code: SecrecyCode, link_ae: LinkState, params: BoundFreeParams) -> float:
    """Achievable semantic security level against an eavesdropper's link.

    exp(-n(1-alpha)(D_alpha - C_E - lambda)) + exp(-n(L - C_E - lambda)/2),
    all in nats, clamped to [0, 1].  Requires alpha in the divergence
    validity domain (1, 1 + 1/rho).
    """
    if params.alpha <= 1.0:
        raise ValueError(f"security bound requires alpha > 1, got {params.alpha}")
    div = channel_divergence(params.alpha, link_ae)
    c_nats = link_ae.capacity_nats
    margin = code.randomness_bits * LN2 - c_nats
    p, q, u, v = _security_coefficients(params.alpha - 1.0, code.blocklength, c_nats,
                                        div, margin)
    return _clamp_prob(_logaddexp(p - q * params.lambda_nats, u + v * params.lambda_nats))


def _divergence_from_t(t_signed: float, rho: float) -> float:
    # Closed form with rho_j = 0 as a function of t = alpha - 1 (either sign):
    # D = -0.5*log1p(-rho^2) - (1/(2t))*log1p(-(t*rho)^2), doubled for the
    # complex channel.
    g = t_signed * rho
    return 2.0 * (-0.5 * math.log1p(-rho * rho) - math.log1p(-g * g) / (2.0 * t_signed))


def _min_logsum_linear(p: float, q: float, u: float, v: float, width: float) -> tuple[float, float]:
    """Minimize logaddexp(p - q*x, u + v*x) over x in (0, width] in closed form.

    A log-sum-exp of affine functions is convex (Boyd & Vandenberghe,
    *Convex Optimization* 3.1.5).  With q, v > 0 its stationary point
    x* = (p - u + ln(q/v)) / (q + v) balances the two exponentials, so the
    constrained minimum is x* clamped to the interval.  The floor keeps x
    positive, as BoundFreeParams requires.  Returns (value, x_min).
    """
    x = min(max((p - u + math.log(q / v)) / (q + v), 1e-15 * width), width)
    return _logaddexp(p - q * x, u + v * x), x


def _reliability_coefficients(t: float, n: int, c_nats: float, div: float,
                              margin: float) -> tuple[float, float, float, float]:
    # t = 1 - alpha, margin = C - R - L: log phi = logaddexp(p - q*lambda, u + v*lambda)
    return -n * t * (div - c_nats), n * t, -n * margin, float(n)


def _security_coefficients(t: float, n: int, c_nats: float, div: float,
                           margin: float) -> tuple[float, float, float, float]:
    # t = alpha - 1, margin = L - C_E: log delta = logaddexp(p - q*lambda, u + v*lambda)
    return n * t * (div - c_nats), n * t, -n * margin / 2.0, n / 2.0


def _search_alpha(objective, t_lo: float, t_hi: float) -> tuple[float, float, float]:
    """Log-spaced seed scan plus golden refinement on ln t.

    Returns (best log value, best t, best lambda).
    """
    ratio = (t_hi / t_lo) ** (1.0 / (_ALPHA_SEEDS - 1))
    best_val = math.inf
    best_i = 0
    best_t = t_lo
    best_lam = 0.0
    t = t_lo
    for i in range(_ALPHA_SEEDS):
        val, lam = objective(t)
        if val < best_val:
            best_val, best_t, best_lam, best_i = val, t, lam, i
        t *= ratio
    u_lo = math.log(t_lo) + max(best_i - 1, 0) * math.log(ratio)
    u_hi = math.log(t_lo) + min(best_i + 1, _ALPHA_SEEDS - 1) * math.log(ratio)
    a, b = u_lo, u_hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, lam_c = objective(math.exp(c))
    yd, lam_d = objective(math.exp(d))
    for _ in range(_MAX_ITER):
        if yc < yd:
            b, d, yd, lam_d = d, c, yc, lam_c
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc, lam_c = objective(math.exp(c))
        else:
            a, c, yc, lam_c = c, d, yd, lam_d
            h *= _INVPHI
            d = a + _INVPHI * h
            yd, lam_d = objective(math.exp(d))
        if abs(yc - yd) <= _INNER_REL_TOL * max(abs(yc), abs(yd)) or h <= 1e-15 * (u_hi - u_lo):
            break
    if yc < yd and yc < best_val:
        return yc, math.exp(c), lam_c
    if yd <= yc and yd < best_val:
        return yd, math.exp(d), lam_d
    return best_val, best_t, best_lam


def min_reliability(code: SecrecyCode, link_ab: LinkState) -> tuple[float, BoundFreeParams | None]:
    """Minimize the reliability bound over alpha in (0,1) and lambda in (0, C-R-L).

    Returns (phi_star, argmin params); (1.0, None) when the capacity does
    not exceed the combined rate R + L.
    """
    c_nats = link_ab.capacity_nats
    margin = c_nats - (code.rate_bits + code.randomness_bits) * LN2
    if margin <= 0.0:
        return 1.0, None
    n = code.blocklength
    rho = link_ab.rho

    def objective(t: float) -> tuple[float, float]:
        # t = 1 - alpha; returns (min log phi over lambda, argmin lambda)
        div = _divergence_from_t(-t, rho)
        return _min_logsum_linear(*_reliability_coefficients(t, n, c_nats, div, margin), margin)

    val, t, lam = _search_alpha(objective, _ALPHA_GUARD, 1.0 - _ALPHA_GUARD)
    return _clamp_prob(val), BoundFreeParams(alpha=1.0 - t, lambda_nats=lam)


def min_security(code: SecrecyCode, link_ae: LinkState) -> tuple[float, BoundFreeParams | None]:
    """Minimize the security bound over alpha in (1, 1 + 1/rho) and lambda in (0, L-C_E).

    Returns (delta_star, argmin params); (1.0, None) when the randomness
    rate L does not exceed the eavesdropper capacity.
    """
    c_nats = link_ae.capacity_nats
    margin = code.randomness_bits * LN2 - c_nats
    if margin <= 0.0:
        return 1.0, None
    n = code.blocklength
    rho = link_ae.rho
    # relative guard keeps (t*rho)^2 < 1 even when 1/rho dwarfs an absolute one
    t_hi = 1e12 if rho == 0.0 else (1.0 - _ALPHA_GUARD) / rho
    t_lo = t_hi * 1e-12

    def objective(t: float) -> tuple[float, float]:
        # t = alpha - 1; returns (min log delta over lambda, argmin lambda)
        div = _divergence_from_t(t, rho)
        return _min_logsum_linear(*_security_coefficients(t, n, c_nats, div, margin), margin)

    val, t, lam = _search_alpha(objective, t_lo, t_hi)
    return _clamp_prob(val), BoundFreeParams(alpha=1.0 + t, lambda_nats=lam)


def eve_error_floor(delta: float, bits: int) -> float:
    """Lower bound on the eavesdropper's average error when reconstructing b bits.

    max(0, 1 - delta - 2**-b).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not isinstance(bits, int) or bits < 1:
        raise ValueError(f"bits must be an integer >= 1, got {bits}")
    return max(0.0, 1.0 - delta - 2.0 ** (-bits))
