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
# Renyi divergence: closed form and quadrature (bivariate standard normals)
# ----------------------------------------------------------------------

def renyi_bivariate_gaussian(alpha: float, rho_i: float, rho_j: float = 0.0) -> float:
    """Renyi divergence of order alpha between bivariate Gaussians, in nats.

    Both distributions are standard bivariate normals differing only in
    their correlation coefficients rho_i (first argument) and rho_j
    (second argument).  Closed form:

        0.5*ln((1-rho_j^2)/(1-rho_i^2))
        - (1/(2(alpha-1))) * ln((1-(alpha*rho_j+(1-alpha)*rho_i)^2)/(1-rho_j^2))

    valid while the argument of the second logarithm stays positive.
    """
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and != 1, got {alpha}")
    if not 0.0 <= rho_i < 1.0 or not 0.0 <= rho_j < 1.0:
        raise ValueError(f"correlations must lie in [0, 1), got {rho_i}, {rho_j}")
    mix = alpha * rho_j + (1.0 - alpha) * rho_i
    if mix * mix >= 1.0:
        raise ValueError(
            f"order alpha={alpha} outside validity domain for rho_i={rho_i}, rho_j={rho_j}"
        )
    first = 0.5 * (math.log1p(-rho_j * rho_j) - math.log1p(-rho_i * rho_i))
    second = (math.log1p(-mix * mix) - math.log1p(-rho_j * rho_j)) / (2.0 * (alpha - 1.0))
    return first - second


def channel_divergence(alpha: float, link) -> float:
    """Divergence between joint and product input/output laws of one link, nats.

    The channel is complex (two real dimensions), so the bivariate closed
    form is doubled; its alpha -> 1 limit then equals ``link.capacity_nats``.
    The bounds' first exponent is n*t*(D - C - lambda) with D this
    divergence at alpha = 1 + t (security) and -n*t*(D - C + lambda) at
    alpha = 1 - t (reliability).
    """
    return 2.0 * renyi_bivariate_gaussian(alpha, link.rho)


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


def log_reliability_at(n, c_bits, r_bits, l_bits, rho, alpha, lam):
    """log(reliability bound) at one (alpha, lambda), by the grid formula."""
    return float(_grid_log_reliability(n, c_bits * LN2, (r_bits + l_bits) * LN2, rho,
                                       np.array([1.0 - alpha]), np.array([lam]), True)[0, 0])


def log_security_at(n, c_bits, l_bits, rho, alpha, lam):
    """log(security bound) at one (alpha, lambda), by the grid formula."""
    return float(_grid_log_security(n, c_bits * LN2, l_bits * LN2, rho,
                                    np.array([alpha - 1.0]), np.array([lam]), True)[0, 0])


def log_bound_at(n, rho, t, lam, k, m):
    """log of either bound at one (t, lambda), in scalar math from the bounds docstring.

    logaddexp(E1, e2) with E1 = -n*(ln(1 - t^2 rho^2) + t*lambda) and
    e2 = -k*n*(m - lambda): t = 1 - alpha, k = 1, m = C - R - L for the
    reliability bound; t = alpha - 1, k = 1/2, m = L - C_E for security.
    """
    e1 = -n * (math.log1p(-(t * rho) ** 2) + t * lam)
    e2 = -k * n * (m - lam)
    hi, lo = max(e1, e2), min(e1, e2)
    return hi + math.log1p(math.exp(lo - hi))


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


def bisect_max_randomness(phi_of_l, c_bits, r_bits, phi_target, tol_bits=1e-6):
    """Largest L meeting the target by bisection to ``tol_bits``, with phi there.

    Returns (L, phi(L)), or None when L = 0 misses the target.  The feasible
    end of the bracket is kept, so L lies at most ``tol_bits`` below the
    true maximum and never above it.
    """
    lo, phi_lo = 0.0, phi_of_l(0.0)  # phi_lo is always phi at the current lo
    if c_bits <= r_bits or phi_lo > phi_target:
        return None
    hi = c_bits - r_bits  # phi clamps to 1 here, always infeasible
    while hi - lo > tol_bits:
        mid = 0.5 * (lo + hi)
        phi_mid = phi_of_l(mid)
        if phi_mid <= phi_target:
            lo, phi_lo = mid, phi_mid
        else:
            hi = mid
    return lo, phi_lo


def scan_max_randomness_nats(n, rho, c_nats, r_nats, phi, n_lam=2001, n_t=401, zooms=4):
    """Largest L, in nats, meeting the reliability target, by dense scans.

    L meets phi when some lambda has e^E1*(lambda) + e^(-n*(C - R - L - lambda))
    <= phi, so the largest L is the maximum over lambda of
    F(lambda) = C - R - lambda + ln(phi - e^E1*(lambda))/n, with
    E1*(lambda) = min over t of -n*(ln(1 - t^2 rho^2) + t*lambda).  The
    minimum over t is taken on a log-spaced grid over the bound's t range
    [2^-52, 1 - 1e-9], refined ``zooms`` times around each lambda's grid
    minimum; F is maximized the same way on a log-spaced lambda grid over
    (0, C - R].  Returns (L_max in nats, lambda grid, h on that grid), where
    h(lambda) = E1*(lambda) + ln(1 + t*(lambda)) - ln(phi) has the sign of
    F'(lambda).
    """
    top = c_nats - r_nats
    log_t_lo, log_t_hi = math.log(2.0 ** -52), math.log(1.0 - 1e-9)

    def e1_star(lam):
        # (E1*, t*) for every lambda of the 1-D array lam
        log_t = np.broadcast_to(np.linspace(log_t_lo, log_t_hi, n_t), (lam.size, n_t))
        for _ in range(zooms + 1):
            t = np.exp(log_t)
            e1 = -n * (np.log1p(-(t * rho) ** 2) + t * lam[:, None])
            k = np.argmin(e1, axis=1)
            rows = np.arange(lam.size)
            lo = log_t[rows, np.maximum(k - 1, 0)]
            hi = log_t[rows, np.minimum(k + 1, n_t - 1)]
            best_e1, best_t = e1[rows, k], t[rows, k]
            log_t = np.linspace(lo, hi, n_t, axis=1)
        return best_e1, best_t

    def f_of(lam):
        e1, t = e1_star(lam)
        with np.errstate(invalid="ignore", divide="ignore"):
            f = top - lam + np.log(phi - np.exp(e1)) / n
        return np.where(np.exp(e1) < phi, f, -np.inf), e1, t

    lam = np.geomspace(top * 1e-12, top, n_lam)
    f, e1, t = f_of(lam)
    h = e1 + np.log1p(t) - math.log(phi)
    best = float(np.max(f))
    grid = lam
    for _ in range(zooms):
        k = int(np.argmax(f))
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 201)
        f = f_of(grid)[0]
        best = max(best, float(np.max(f)))
    return best, lam, h


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


# ----------------------------------------------------------------------
# Eve's link at one position
# ----------------------------------------------------------------------

def eve_link(plan, config, x, y):
    """The link to an eavesdropper at (x, y) under ``plan``, built on its own.

    ``Scene.eve_link``'s recipe, restated rather than called: the scene's
    path, the transmitter's pattern gain at the offset angle, and the link
    budget at the plan's power to Eve's gain; no symmetry class and no memo.
    """
    from thzsecmap import Scene, link_budget, pattern_gain

    distance, theta = Scene(config).path(x, y)
    return link_budget(plan.transmit_power_w, pattern_gain(config.alice, theta),
                       config.eve.gain_linear, distance, config.environment)


# ----------------------------------------------------------------------
# reference map writers: one text per grid point
# ----------------------------------------------------------------------

def _text(v) -> str:
    return format(v, ".9g")


def write_map_csv_per_point(grid, path) -> None:
    """Row-major CSV rows ``x_m,y_m,delta``, each line formatted on its own."""
    lines = ["x_m,y_m,delta"]
    for y, row in zip(grid.ys, grid.values):
        for x, d in zip(grid.xs, row):
            lines.append(f"{_text(x)},{_text(y)},{_text(d)}")
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def write_map_pgm_per_point(grid, path) -> None:
    """ASCII PGM (P2), pixel = round(255 * (1 - delta)) computed for each point."""
    lines = ["P2", f"{len(grid.xs)} {len(grid.ys)}", "255"]
    lines += [" ".join(str(round(255.0 * (1.0 - d))) for d in row) for row in grid.values]
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))
