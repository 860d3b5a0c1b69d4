"""Security-level maps, radial profiles, threshold radii, and parameter sweeps.

Each eavesdropper position is a pure evaluation: the security bound minimized
on the link from the transmitter (pattern gain at the offset angle) to an
eavesdropper aimed straight back.  The transmitter sits over y = 0 with no
y-component in its boresight (cell: on the z axis), so x and y enter only as
squares, sums and products with 0: the level depends, bit for bit, only on
(|x|, |y|) unordered (cell) or on (x, |y|) (directed).  Each evaluator
computes it once per such class; maps run in one process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry, planner
from .antenna import cone_radius, pattern_gain
from .bounds import min_security
from .errors import ConfigError, ProfileError
from .geometry import CELL, DIRECTED, MAX_LENGTH_M, ScenarioConfig, grid_axes
from .linkmodel import link_budget
from .planner import PlanResult, require_feasible

THRESHOLD_RADIUS_TOL_M = 0.01
SWEEP_VARIABLES = ("n", "phi_target", "R", "G_E", "G_A", "d_AB", "l_AB")


def _check_levels(deltas: np.ndarray) -> None:
    # the negated form also rejects NaN, which fails every comparison
    if not np.all((deltas >= 0.0) & (deltas <= 1.0)):
        raise ValueError("security levels must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SecrecyMapGrid:
    """Security levels on a rectangular grid of eavesdropper positions.

    ``values`` has shape (ny, nx), row-major over (y, x) like the CSV
    export, and every value must lie in [0, 1].  ``metadata`` describes the
    grid (resolution, size, origin, plane height); the plan and scenario are
    recorded by the caller.
    """

    xs: np.ndarray
    ys: np.ndarray
    resolution_m: float
    values: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        _check_levels(self.values)


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Security level versus horizontal distance from the transmitter."""

    radii_m: np.ndarray
    deltas: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.radii_m) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        _check_levels(self.deltas)


class _EveEvaluator:
    """Memoized security level at eavesdropper positions for one plan."""

    def __init__(self, plan: PlanResult, config: ScenarioConfig):
        require_feasible(plan)
        self.plan = plan
        self.config = config
        self._deltas: dict[tuple[float, float], float] = {}

    def delta_at(self, x: float, y: float) -> float:
        """Security level at (x, y) on the receiver plane."""
        ax, ay = abs(x), abs(y)
        # exact coordinates of the canonical symmetry partner, never rounded
        key = (min(ax, ay), max(ax, ay)) if self.config.variant == CELL else (x, ay)
        if key not in self._deltas:
            self._deltas[key] = self._evaluate(*key)
        return self._deltas[key]

    def _evaluate(self, x: float, y: float) -> float:
        cfg = self.config
        distance, theta = geometry.path(cfg, x, y)
        g_tx = pattern_gain(cfg.alice, theta)
        link = link_budget(self.plan.transmit_power_w, g_tx, cfg.eve.gain_linear,
                           distance, cfg.environment)
        return min_security(self.plan.code, link)[0]

    def delta_at_radius(self, radius_m: float) -> float:
        return self.delta_at(radius_m, 0.0)


def evaluate_map(plan: PlanResult, config: ScenarioConfig, resolution_m: float,
                 *, threads: int = 1) -> SecrecyMapGrid:
    """Security level at every grid point of the room at receiver height.

    Parameters
    ----------
    plan : PlanResult
        A feasible plan; raises InfeasiblePlanError otherwise.
    config : ScenarioConfig
    resolution_m : float
        Grid spacing; grid axes follow geometry.grid_axes.
    threads : int
        Accepted for compatibility; maps run in one process.
    """
    evaluator = _EveEvaluator(plan, config)
    xs, ys = grid_axes(config, resolution_m)
    values = np.array([[evaluator.delta_at(x, y) for x in xs.tolist()] for y in ys.tolist()])
    metadata = {
        "resolution_m": resolution_m,
        "nx": len(xs),
        "ny": len(ys),
        "origin_m": [float(xs[0]), float(ys[0])],
        "receiver_height_m": config.receiver_height_m,
    }
    return SecrecyMapGrid(xs=xs, ys=ys, resolution_m=resolution_m, values=values,
                          metadata=metadata)


def radial_profile(plan: PlanResult, config: ScenarioConfig, r_min_m: float,
                   r_max_m: float, steps: int) -> RadialProfile:
    """Security level at evenly spaced radii from the transmitter axis.

    Cell scenario only; the directed scenario has no radial symmetry.
    """
    if config.variant != CELL:
        raise ConfigError("radial profile requires the cell scenario (radial symmetry)")
    if not 0.0 <= r_min_m < r_max_m <= MAX_LENGTH_M:
        raise ValueError(f"need 0 <= r_min < r_max <= {MAX_LENGTH_M:g}, got {r_min_m}, {r_max_m}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    evaluator = _EveEvaluator(plan, config)
    radii = np.linspace(r_min_m, r_max_m, steps)
    deltas = np.array([evaluator.delta_at_radius(float(r)) for r in radii])
    return RadialProfile(radii_m=radii, deltas=deltas)


def threshold_radius(plan: PlanResult, config: ScenarioConfig, delta_0: float) -> float:
    """Smallest radius at which the security level falls to ``delta_0``.

    Bisection along the (non-increasing) radial profile to 1 cm.  Returns
    0.0 when the level is already below the target at the transmitter axis.
    """
    if config.variant != CELL:
        raise ConfigError("threshold radius requires the cell scenario")
    if not 0.0 < delta_0 < 1.0:
        raise ValueError(f"delta_0 must lie in (0, 1), got {delta_0}")
    evaluator = _EveEvaluator(plan, config)
    return _crossing_radius(evaluator, delta_0)


def _crossing_radius(evaluator: _EveEvaluator, delta_0: float) -> float:
    delta_axis = evaluator.delta_at_radius(0.0)
    if delta_axis < delta_0:
        return 0.0
    lo = 0.0
    hi = max(1.0, 2.0 * cone_radius(evaluator.config.alice,
                                    evaluator.config.height_difference_m))
    while evaluator.delta_at_radius(hi) >= delta_0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise ProfileError(f"security level never fell below {delta_0:g} out to 1e6 m")
    # coarse monotonicity diagnostic across the bracket before trusting bisection
    previous = delta_axis
    prev_r = 0.0
    for k in range(1, 17):
        r = hi * k / 16.0
        value = evaluator.delta_at_radius(r)
        if value > previous + 1e-6:
            raise ProfileError(
                f"security level rose from {previous:g} at {prev_r:.3f} m to {value:g} "
                f"at {r:.3f} m; profile is not monotone")
        previous, prev_r = value, r
    while hi - lo > THRESHOLD_RADIUS_TOL_M:
        mid = 0.5 * (lo + hi)
        if evaluator.delta_at_radius(mid) >= delta_0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def insecure_fraction(grid: SecrecyMapGrid, threshold: float = 0.5) -> float:
    """Fraction of grid cells whose security level exceeds the threshold."""
    return float(np.count_nonzero(grid.values > threshold)) / grid.values.size


def _apply_sweep_value(config: ScenarioConfig, n: int, rate_bits: float,
                       phi_target: float, variable: str, value: float):
    if variable == "n":
        if value != int(value) or int(value) < 1:
            raise ConfigError(f"swept blocklength must be a positive integer, got {value}")
        return config, int(value), rate_bits, phi_target
    if variable == "phi_target":
        return config, n, rate_bits, float(value)
    if variable == "R":
        return config, n, float(value), phi_target
    if variable == "G_E":
        cfg = replace(config, eve=replace(config.eve, gain_dbi=float(value)))
        return cfg, n, rate_bits, phi_target
    if variable == "G_A":
        # transmitter and legitimate receiver share the same gain by convention
        cfg = replace(config,
                      alice=replace(config.alice, gain_dbi=float(value)),
                      bob=replace(config.bob, gain_dbi=float(value)))
        return cfg, n, rate_bits, phi_target
    if variable == "d_AB":
        if config.variant != DIRECTED:
            raise ConfigError("d_AB can only be swept in the directed scenario")
        return replace(config, horizontal_distance_m=float(value)), n, rate_bits, phi_target
    if variable == "l_AB":
        return replace(config, height_difference_m=float(value)), n, rate_bits, phi_target
    raise ConfigError(f"unknown sweep variable {variable!r}; choose from {SWEEP_VARIABLES}")


def sweep(config: ScenarioConfig, n: int, rate_bits: float, phi_target: float,
          tx_power_w: float, variable: str, values, *, delta_0: float = 1e-3,
          area_threshold: float = 0.5, area_resolution_m: float = 2.0) -> list[dict]:
    """Re-plan and summarize the secrecy geometry along one swept variable.

    Produces one long-format row per swept value with the cone footprint
    radius, worst-case capacity, resolved randomness rate, and (cell
    scenario) the radii where the security level crosses 0.99, ``delta_0``
    and 0.01.  Directed rows carry the insecure-area fraction of a coarse
    map instead.
    """
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}; choose from {SWEEP_VARIABLES}")
    rows = []
    for value in values:
        cfg, n_v, r_v, phi_v = _apply_sweep_value(config, n, rate_bits, phi_target,
                                                  variable, value)
        plan = planner.plan(cfg, n_v, r_v, phi_v, tx_power_w)
        row = {
            "variable": variable,
            "value": value,
            "feasible": plan.feasible,
            "r_b_m": None,
            "c_ab_bits": plan.c_ab_bits,
            "l_bits": plan.code.randomness_bits if plan.feasible else None,
            "achieved_phi": plan.achieved_phi if plan.feasible else None,
            "r_e0_m": None,
            "r_delta_hi_m": None,
            "r_delta_lo_m": None,
            "transition_width_m": None,
            "insecure_fraction": None,
        }
        if cfg.variant == CELL:
            row["r_b_m"] = cone_radius(cfg.alice, cfg.height_difference_m)
        if plan.feasible:
            if cfg.variant == CELL:
                evaluator = _EveEvaluator(plan, cfg)
                row["r_e0_m"] = _crossing_radius(evaluator, delta_0)
                row["r_delta_hi_m"] = _crossing_radius(evaluator, 0.99)
                row["r_delta_lo_m"] = _crossing_radius(evaluator, 0.01)
                row["transition_width_m"] = row["r_delta_lo_m"] - row["r_delta_hi_m"]
            else:
                grid = evaluate_map(plan, cfg, area_resolution_m)
                row["insecure_fraction"] = insecure_fraction(grid, area_threshold)
        rows.append(row)
    return rows


def format_float(value: float) -> str:
    """Fixed 9-significant-digit rendering used by every text export."""
    return format(value, ".9g")


def map_csv_lines(grid: SecrecyMapGrid) -> list[str]:
    """Row-major CSV rows ``x_m,y_m,delta`` with 9 significant digits."""
    lines = ["x_m,y_m,delta"]
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            lines.append(
                f"{format_float(float(x))},{format_float(float(y))},"
                f"{format_float(float(grid.values[iy, ix]))}")
    return lines


def _write_lines(lines: list[str], path) -> None:
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


def write_map_csv(grid: SecrecyMapGrid, path) -> None:
    _write_lines(map_csv_lines(grid), path)


def write_map_pgm(grid: SecrecyMapGrid, path) -> None:
    """ASCII PGM (P2) rendering: pixel = round(255 * (1 - delta)).

    Secure regions render bright.  The first pixel row is the smallest y,
    matching the CSV row order.
    """
    ny, nx = grid.values.shape
    pixels = np.rint(255.0 * (1.0 - grid.values)).astype(int)
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny):
        lines.append(" ".join(str(int(v)) for v in pixels[iy]))
    _write_lines(lines, path)


def profile_csv_lines(profile: RadialProfile) -> list[str]:
    lines = ["r_m,delta"]
    for r, d in zip(profile.radii_m, profile.deltas):
        lines.append(f"{format_float(float(r))},{format_float(float(d))}")
    return lines


def write_profile_csv(profile: RadialProfile, path) -> None:
    _write_lines(profile_csv_lines(profile), path)


SWEEP_COLUMNS = ["variable", "value", "feasible", "r_b_m", "c_ab_bits", "l_bits",
                 "achieved_phi", "r_e0_m", "r_delta_hi_m", "r_delta_lo_m",
                 "transition_width_m", "insecure_fraction"]


def sweep_csv_lines(rows: list[dict]) -> list[str]:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            v = row[col]
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format_float(float(v)))
        lines.append(",".join(cells))
    return lines


def write_sweep_csv(rows: list[dict], path) -> None:
    _write_lines(sweep_csv_lines(rows), path)


__all__ = [
    "SecrecyMapGrid",
    "RadialProfile",
    "evaluate_map",
    "radial_profile",
    "threshold_radius",
    "insecure_fraction",
    "sweep",
    "SWEEP_VARIABLES",
    "SWEEP_COLUMNS",
    "map_csv_lines",
    "write_map_csv",
    "write_map_pgm",
    "profile_csv_lines",
    "write_profile_csv",
    "sweep_csv_lines",
    "write_sweep_csv",
    "format_float",
    "THRESHOLD_RADIUS_TOL_M",
]
