"""Finite-blocklength reliability and semantic-security bounds.

The two achievability bounds are each a sum of two exponentials in the
blocklength n.  One exponent carries a Renyi divergence of order alpha
between the joint and product distributions of the channel input/output;
the other carries the rate margin.  Every information quantity is converted
to nats and both exponentials use base e, so the expressions are evaluated
on a single consistent scale.

The divergence of the complex AWGN channel is taken as twice the bivariate
(real) Gaussian closed form, which makes its alpha -> 1 limit equal the
channel capacity C = ln(1 + SNR) = -ln(1 - rho^2).  The package never
evaluates that divergence; the tests keep it as an oracle for E1 below.

With t = 1 - alpha (reliability) or t = alpha - 1 (security) the capacity
cancels from the divergence exponent, and both log bounds read
logaddexp(E1, e2) with

    E1 = -n*(ln(1 - t^2 rho^2) + t*lambda),    e2 = -k*n*(m - lambda),

k = 1, m = C - R - L for reliability and k = 1/2, m = L - C_E for security.
For fixed lambda, E1 is convex in t with minimizer
t*(lambda) = lambda / (rho*(sqrt(rho^2 + lambda^2) + rho)), clamped to the
order's domain.  By the envelope theorem the lambda-minimized log bound
rises where g(lambda) = e2 - E1(t*, lambda) - ln(t*/k) is positive and
falls where it is negative; g' = n*(k + t*) - rho/(lambda*sqrt(rho^2 +
lambda^2)) increases, so g is convex.  The minimum over lambda in (0, m] is
therefore the larger root of g, found by Newton's method from lambda = m,
which approaches it monotonically from the right.  Without such a root the
bound is 1.  Everything is evaluated in log space, so bound values far
below the smallest positive double are reported as exactly 0.

The planner needs the largest randomness rate L whose reliability bound
meets a target phi.  E1 does not depend on L, so L meets it exactly when
some lambda has e^E1*(lambda) + e^(-n*(C - R - L - lambda)) <= phi, with
E1*(lambda) = E1(t*(lambda), lambda), and the largest such L is the maximum
over lambda of F(lambda) = C - R - lambda + ln(phi - e^E1*(lambda))/n.  By
the envelope theorem F rises where h(lambda) = E1*(lambda) + ln(1 + t*) -
ln(phi) is positive and falls where it is negative, with h' = -n*t* +
t*'/(1 + t*).  E1* is a minimum of functions affine in lambda and t* is
increasing and concave, so h is concave wherever t* is above its floor.
h(0+) = -ln(phi) > 0, and when L = 0 meets the target h(C - R) < 0 (else F
would rise all the way to F(C - R) < 0).  So h has one root, the maximum of
F, and Newton's method from lambda = C - R reaches it monotonically from the
right: each tangent of a concave function lies above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linkmodel import LN2, LinkState

_ALPHA_GUARD = 1e-9
_T_FLOOR = 2.0 ** -52  # the smallest t with 1 - t != 1 and 1 + t != 1
_NEWTON_MAX_STEPS = 100
MAX_BLOCKLENGTH = 2 ** 53  # the bounds compute with n as a float, exact up to here


def blocklength_text(n) -> str:
    """``repr(n)`` for a message, or an integer beyond the cap by its digit count."""
    if isinstance(n, int) and abs(n) > MAX_BLOCKLENGTH:
        m = abs(n)
        # str(m) is refused past 4300 digits: start at most at the digit count
        # (0.3010299 < log10(2)) and count up against powers of ten
        digits = (m.bit_length() - 1) * 3010299 // 10 ** 7 + 1
        while 10 ** digits <= m:
            digits += 1
        sign = "a negative" if n < 0 else "an"
        return f"{sign} integer of {digits} digits"
    return repr(n)


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
            raise ValueError(f"blocklength must be an integer in [1, 2**53], "
                             f"got {blocklength_text(n)}")
        rate, randomness = self.rate_bits, self.randomness_bits
        # negated forms, so that NaN, which fails every comparison, is rejected too
        if not (-math.inf < rate < math.inf and -math.inf < randomness < math.inf):
            raise ValueError(f"code rates must be finite, got R = {rate}, L = {randomness}")
        if rate <= 0.0:
            raise ValueError(f"secrecy rate must be positive, got {rate}")
        if randomness < 0.0:
            raise ValueError(f"randomness rate must be >= 0, got {randomness}")


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


def _clamp_prob(log_value: float) -> float:
    if log_value >= 0.0:
        return 1.0
    return math.exp(log_value)  # underflows to exactly 0.0 below ~e^-745


def _logaddexp(e1: float, e2: float) -> float:
    if e1 < e2:
        e1, e2 = e2, e1
    return e1 + math.log1p(math.exp(e2 - e1))


def _exponents(n: int, rho: float, t: float, lam: float, k: float,
               m: float) -> tuple[float, float, float]:
    # (E1, e2, -n*ln(1 - t^2 rho^2)) of either bound: its log value is logaddexp(E1, e2)
    tr = t * rho
    a = -n * math.log1p(-tr * tr)
    return a - n * t * lam, -k * n * (m - lam), a


def _t_star(rho: float, lam: float, t_hi: float) -> tuple[float, float]:
    # (t*, lam * d(ln t*)/d(lam)): the minimizer of E1 over t in [_T_FLOOR, t_hi],
    # in a form that neither cancels nor underflows at small lambda, and its
    # log-slope, which is 0 where t* is clamped
    if rho == 0.0:
        return t_hi, 0.0
    h = math.hypot(rho, lam)
    t = lam / rho / (h + rho)
    if t >= t_hi:
        return t_hi, 0.0
    if t <= _T_FLOOR:
        return _T_FLOOR, 0.0
    return t, rho / h


def _min_log_bound(n: int, rho: float, k: float, m: float,
                   t_hi: float) -> tuple[float, float, float]:
    """Minimize logaddexp(E1, e2) over t in [_T_FLOOR, t_hi] and lambda in (0, m].

    Newton's method on the convex g(lambda), started at lambda = m.  When
    g(m) <= 0 the log bound still falls at m and is minimized there.
    Otherwise every iterate stays at or right of the larger root of g, and
    the loop stops once it is reached to a few ulps or crossed by rounding.
    An iterate where g has no positive slope, or a step to lambda <= 0,
    shows that g > 0 on all of (0, m]: the log bound rises from
    logaddexp(0, -k*n*m) > 0, so the bound is 1, reported at lambda = m.
    Returns (log value, t, lambda).
    """
    lam = m
    for _ in range(_NEWTON_MAX_STEPS):
        t, s = _t_star(rho, lam, t_hi)
        e1, e2, a = _exponents(n, rho, t, lam, k, m)
        log_t = math.log(t / k)
        if e2 - e1 - log_t <= 0.0:
            break
        slope = n * (k + t) - s / lam
        # lam - g/slope, written so that a root far below lam keeps its digits
        new = (k * n * m + a + log_t - s) / slope if slope > 0.0 else 0.0
        if new <= 0.0:
            t = _t_star(rho, m, t_hi)[0]
            e1, e2, _ = _exponents(n, rho, t, m, k, m)
            return _logaddexp(e1, e2), t, m
        if new >= lam - 4.0 * math.ulp(lam):
            break
        lam = new
    else:
        raise RuntimeError(f"Newton search on lambda did not converge (n={n}, rho={rho!r}, "
                           f"k={k}, m={m!r})")
    return _logaddexp(e1, e2), t, lam


def max_randomness(n: int, rate_bits: float, link_ab: LinkState, phi_target: float) -> float:
    """Largest randomness rate L, in bits, at which the reliability bound meets phi_target.

    L_max is the maximum over lambda of F(lambda) = C - R - lambda +
    ln(phi - e^E1*(lambda))/n, in nats, whose derivative has the sign of
    h(lambda) = E1*(lambda) + ln(1 + t*(lambda)) - ln(phi).  Newton's method on
    the concave h, started at lambda = C - R, reaches its root from the right.
    The caller checks first that L = 0 meets the target, which puts h(C - R)
    below 0 and makes the clamp at 0 safe.  It also verifies the returned L
    with ``min_reliability``: rounding may leave the bound there a hair above
    the target.
    """
    top = link_ab.capacity_nats - rate_bits * LN2
    rho, log_phi = link_ab.rho, math.log(phi_target)
    lam = top
    for _ in range(_NEWTON_MAX_STEPS):
        t, s = _t_star(rho, lam, 1.0 - _ALPHA_GUARD)
        e1, _, a = _exponents(n, rho, t, lam, 1.0, top)
        log_1pt = math.log1p(t)
        if e1 + log_1pt - log_phi >= 0.0:  # the root, crossed by rounding
            break
        st = t * s / (1.0 + t)
        slope = n * t - st / lam  # -h'
        # lam + h/slope, written so that a root far below lam keeps its digits
        new = (a + log_1pt - log_phi - st) / slope if slope > 0.0 else 0.0
        if new <= 0.0 or new >= lam - 4.0 * math.ulp(lam):
            break
        lam = new
    else:
        raise RuntimeError(f"Newton search on lambda did not converge (n={n}, "
                           f"rho={rho!r}, R={rate_bits!r}, phi={phi_target!r})")
    if e1 >= log_phi:
        return 0.0
    f = top - lam + (log_phi + math.log1p(-math.exp(e1 - log_phi))) / n
    return max(0.0, f / LN2)


def min_reliability(code: SecrecyCode, link_ab: LinkState) -> tuple[float, BoundFreeParams | None]:
    """Minimize the reliability bound over alpha in (0,1) and lambda in (0, C-R-L].

    Returns (phi_star, argmin params); (1.0, None) when the capacity does
    not exceed the combined rate R + L.
    """
    margin = link_ab.capacity_nats - (code.rate_bits + code.randomness_bits) * LN2
    if margin <= 0.0:
        return 1.0, None
    val, t, lam = _min_log_bound(code.blocklength, link_ab.rho, 1.0, margin,
                                 1.0 - _ALPHA_GUARD)
    return _clamp_prob(val), BoundFreeParams(alpha=1.0 - t, lambda_nats=lam)


def min_security(code: SecrecyCode, link_ae: LinkState) -> tuple[float, BoundFreeParams | None]:
    """Minimize the security bound over alpha in (1, 1 + 1/rho) and lambda in (0, L-C_E].

    Returns (delta_star, argmin params); (1.0, None) when the randomness
    rate L does not exceed the eavesdropper capacity.
    """
    margin = code.randomness_bits * LN2 - link_ae.capacity_nats
    if margin <= 0.0:
        return 1.0, None
    rho = link_ae.rho
    # relative guard keeps (t*rho)^2 < 1 even when 1/rho dwarfs an absolute one
    t_hi = 1e12 if rho == 0.0 else (1.0 - _ALPHA_GUARD) / rho
    val, t, lam = _min_log_bound(code.blocklength, rho, 0.5, margin, t_hi)
    return _clamp_prob(val), BoundFreeParams(alpha=1.0 + t, lambda_nats=lam)
