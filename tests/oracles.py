"""Independent oracles used to freeze expected values and check optimizers.

Everything here is deliberately built on brute force (dense grids,
quadrature, linear scans) and dataclass-free numpy so it shares no code
path with the package's own search routines.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23


# ----------------------------------------------------------------------
# link budget in dB domain
# ----------------------------------------------------------------------

def fspl_db(freq_hz: float, distance_m: float) -> float:
    """Friis path loss in dB (positive number), via the 20-log form."""
    return 20.0 * math.log10(4.0 * math.pi * freq_hz * distance_m / SPEED_OF_LIGHT)


def snr_db_budget(tx_dbm: float, g_tx_dbi: float, g_rx_dbi: float, freq_hz: float,
                  distance_m: float, temp_k: float, bw_hz: float, nf_db: float) -> float:
    """Full link budget carried out entirely in decibels."""
    noise_dbm = 10.0 * math.log10(BOLTZMANN * temp_k * bw_hz * 1e3) + nf_db
    rx_dbm = tx_dbm + g_tx_dbi + g_rx_dbi - fspl_db(freq_hz, distance_m)
    return rx_dbm - noise_dbm


# ----------------------------------------------------------------------
# Renyi divergence by quadrature (bivariate standard normals)
# ----------------------------------------------------------------------

def renyi_alpha2_quadrature(rho_i: float, rho_j: float = 0.0, half_width: float = 10.0,
                            points: int = 1601) -> float:
    """D_2(f_i || f_j) = ln integral f_i^2 / f_j over the plane, by trapezoid."""
    xs = np.linspace(-half_width, half_width, points)
    x, y = np.meshgrid(xs, xs)

    def log_pdf(rho):
        det = 1.0 - rho * rho
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return -0.5 * q - math.log(2.0 * math.pi) - 0.5 * math.log(det)

    integrand = np.exp(2.0 * log_pdf(rho_i) - log_pdf(rho_j))
    inner = np.trapezoid(integrand, xs, axis=1)
    return math.log(float(np.trapezoid(inner, xs)))


# ----------------------------------------------------------------------
# dense grid minimization of the two bounds (log domain)
# ----------------------------------------------------------------------

def _divergence_grid(t: np.ndarray, rho: float, doubled: bool) -> np.ndarray:
    # t = alpha - 1 (sign carries the branch); rho_j = 0 closed form
    value = -0.5 * np.log1p(-rho * rho) - np.log1p(-(t * rho) ** 2) / (2.0 * t)
    return 2.0 * value if doubled else value


def _grid_log_reliability(n, c_nats, rl_nats, rho, t_grid, lam_grid, doubled):
    div = _divergence_grid(-t_grid, rho, doubled)  # alpha = 1 - t
    e1 = -n * t_grid[:, None] * (div[:, None] - c_nats + lam_grid[None, :])
    e2 = -n * (c_nats - rl_nats - lam_grid)[None, :]
    return np.logaddexp(e1, e2)


def _grid_log_security(n, c_nats, l_nats, rho, t_grid, lam_grid, doubled):
    div = _divergence_grid(t_grid, rho, doubled)  # alpha = 1 + t
    e1 = n * t_grid[:, None] * (div[:, None] - c_nats - lam_grid[None, :])
    e2 = -n * (l_nats - c_nats - lam_grid)[None, :] / 2.0
    return np.logaddexp(e1, e2)


def _zoomed_grid_min(evaluate, t_lo, t_hi, lam_lo, lam_hi, n_t=400, n_lam=400, zooms=4):
    """Dense log-spaced-by-t grid search with local zoom refinements.

    Returns (min over the stage-1 grid, refined minimum after zooms,
    stage-1 grid values).  The refined minimum resolves the continuum
    optimum far below the stage-1 spacing while remaining a pure grid scan.
    """
    stage1 = None
    window = 5  # cells kept around the incumbent; wide enough for diagonal valleys
    for _ in range(zooms + 1):
        t_grid = np.geomspace(t_lo, t_hi, n_t)
        lam_grid = np.linspace(lam_lo, lam_hi, n_lam)
        values = evaluate(t_grid, lam_grid)
        k = np.unravel_index(np.argmin(values), values.shape)
        if stage1 is None:
            stage1 = (float(values[k]), values)
        it, il = k
        t_lo2 = t_grid[max(it - window, 0)]
        t_hi2 = t_grid[min(it + window, n_t - 1)]
        lam_lo2 = lam_grid[max(il - window, 0)]
        lam_hi2 = lam_grid[min(il + window, n_lam - 1)]
        t_lo, t_hi, lam_lo, lam_hi = t_lo2, t_hi2, lam_lo2, lam_hi2
    return stage1[0], float(values[k]), stage1[1]


def grid_min_log_reliability(n, c_bits, r_bits, l_bits, rho, *, doubled=True,
                             n_t=400, n_lam=400, zooms=4):
    """Brute-force minimum of log(reliability bound); None when infeasible."""
    c_nats = c_bits * LN2
    rl_nats = (r_bits + l_bits) * LN2
    margin = c_nats - rl_nats
    if margin <= 0.0:
        return None

    def evaluate(t_grid, lam_grid):
        return _grid_log_reliability(n, c_nats, rl_nats, rho, t_grid, lam_grid, doubled)

    eps = 1e-9
    return _zoomed_grid_min(evaluate, eps, 1.0 - eps, margin * 1e-9, margin * (1 - 1e-9),
                            n_t, n_lam, zooms)


def grid_min_log_security(n, c_bits, l_bits, rho, *, doubled=True,
                          n_t=400, n_lam=400, zooms=4):
    """Brute-force minimum of log(security bound); None when infeasible."""
    c_nats = c_bits * LN2
    l_nats = l_bits * LN2
    margin = l_nats - c_nats
    if margin <= 0.0:
        return None
    t_hi = 1e12 if rho == 0.0 else (1.0 - 1e-9) / rho
    t_lo = t_hi * 1e-12

    def evaluate(t_grid, lam_grid):
        return _grid_log_security(n, c_nats, l_nats, rho, t_grid, lam_grid, doubled)

    return _zoomed_grid_min(evaluate, t_lo, t_hi, margin * 1e-9, margin * (1 - 1e-9),
                            n_t, n_lam, zooms)


def scan_min_logsum_linear(p, q, u, v, width, points=20001):
    """Minimum of ln(exp(p - q*x) + exp(u + v*x)) over a dense scan of (0, width].

    The scan is uniform and also log-spaced down to 1e-15*width, so a
    minimum pressed against either end of the interval is resolved.
    """
    xs = np.concatenate([np.linspace(0.0, width, points)[1:],
                         np.geomspace(1e-15 * width, width, points)])
    return float(np.min(np.logaddexp(p - q * xs, u + v * xs)))


def compare_to_grid_oracle(bound_value, grid_result, rel_tol=1e-6):
    """Check an optimizer result against a grid-oracle result.

    The bound is clamped to [0, 1], so grid logs are clamped at 0 before
    comparing.  Returns (compared, ok, err): ``compared`` is False when the
    minimum underflows past double precision and no numeric comparison is
    meaningful.
    """
    stage1, refined, _ = grid_result
    stage1_c = min(stage1, 0.0)
    refined_c = min(refined, 0.0)
    if refined_c == 0.0:
        return True, bound_value == 1.0, 0.0
    if refined_c < -700.0:
        # subnormal territory: log resolution degrades, so only require that
        # both sides agree the bound is negligible
        return False, bound_value < 1e-290, 0.0
    if bound_value == 0.0:
        return True, False, math.inf
    log_value = math.log(bound_value) if bound_value < 1.0 else 0.0
    below_grid = log_value <= stage1_c + 1e-9 * abs(stage1_c)
    err = abs(log_value - refined_c) / abs(refined_c)
    return True, below_grid and err <= rel_tol, err


# ----------------------------------------------------------------------
# planner and profile scan oracles
# ----------------------------------------------------------------------

def scan_max_randomness(phi_of_l, c_bits, r_bits, phi_target, step_bits=1e-4):
    """Largest L on a dense scan meeting the target; None when L=0 fails."""
    if phi_of_l(0.0) > phi_target:
        return None
    best = 0.0
    l = step_bits
    top = c_bits - r_bits
    while l < top:
        if phi_of_l(l) <= phi_target:
            best = l
        else:
            break
        l += step_bits
    return best


def scan_crossing_radius(delta_of_r, delta_0, r_max, step_m=0.01):
    """First radius on a dense scan where delta drops below delta_0."""
    if delta_of_r(0.0) < delta_0:
        return 0.0
    r = step_m
    while r <= r_max:
        if delta_of_r(r) < delta_0:
            return r
        r += step_m
    raise AssertionError(f"no crossing below {delta_0} up to {r_max} m")
