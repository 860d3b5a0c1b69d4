"""Security-level maps, radial profiles, threshold radii, and parameter sweeps.

Each eavesdropper position is a pure evaluation: the security bound minimized
on the link from the transmitter (pattern gain at the offset angle) to an
eavesdropper aimed straight back.  The transmitter sits over y = 0 with no
y-component in its boresight (cell: on the z axis), so x and y enter only as
squares, sums and products with 0: the level depends, bit for bit, only on
(|x|, |y|) unordered (cell) or on (x, |y|) (directed).  Each evaluator
computes it once per such class; maps run in one process.  The map exports
likewise format each distinct value once: every axis coordinate, every
distinct delta and each of the 256 grey levels.

A directed sweep row builds no map.  The level depends on the link only
through Eve's SNR and does not fall as that SNR rises, and the SNR does not
rise as |y| grows along a grid column, so the row bisects each column on |y|:
about nx * log2(ny) links per row instead of one per class, and a bound
minimization only for an SNR not yet bracketed by one found secure and one
found insecure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, replace

from . import geometry, planner
from .antenna import cone_radius, pattern_gain
from .bounds import MAX_BLOCKLENGTH, min_security
from .errors import ConfigError, ProfileError
from .geometry import CELL, DIRECTED, MAX_GRID_POINTS, MAX_LENGTH_M, ScenarioConfig, grid_axes
from .linkmodel import LinkState, link_budget
from .planner import PlanResult, require_feasible

THRESHOLD_RADIUS_TOL_M = 0.01
INSECURE_LEVEL = 0.5  # a map cell counts as insecure where delta exceeds this
SWEEP_VARIABLES = ("n", "phi_target", "R", "G_E", "G_A", "d_AB", "l_AB")
SWEEP_COLUMNS = ["variable", "value", "feasible", "r_b_m", "c_ab_bits", "l_bits",
                 "achieved_phi", "r_e0_m", "r_delta_hi_m", "r_delta_lo_m",
                 "transition_width_m", "insecure_fraction"]


class MapValues(tuple):
    """A map's security levels: one tuple of floats per y, row-major over (y, x)."""

    __slots__ = ()

    @property
    def size(self) -> int:
        """The number of grid points."""
        return sum(map(len, self))


@dataclass(frozen=True, eq=False)
class SecrecyMapGrid:
    """Security levels on a rectangular grid of eavesdropper positions.

    ``xs`` and ``ys`` are sequences of floats, tuples from ``evaluate_map``.
    ``values`` holds len(ys) rows of len(xs) levels, row-major over (y, x)
    like the CSV export, a ``MapValues`` from ``evaluate_map``, and every
    level must lie in [0, 1].
    ``metadata`` describes the grid (resolution, size, origin, plane height);
    the plan and scenario are recorded by the caller.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    resolution_m: float
    values: MapValues
    metadata: dict

    def __post_init__(self) -> None:
        ny, nx = len(self.ys), len(self.xs)
        if len(self.values) != ny or any(len(row) != nx for row in self.values):
            raise ValueError(f"values do not match {ny} y and {nx} x coordinates: "
                             f"need {ny} rows of {nx}")
        # the negated form also rejects NaN, which fails every comparison
        if not all(0.0 <= v <= 1.0 for row in self.values for v in row):
            raise ValueError("security levels must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Security level versus horizontal distance from the transmitter.

    ``radii_m`` and ``deltas`` are tuples of floats of one length; the radii
    are finite and strictly increasing and every level lies in [0, 1].
    """

    radii_m: tuple[float, ...]
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        radii = self.radii_m
        if len(radii) != len(self.deltas):
            raise ValueError(f"{len(radii)} radii but {len(self.deltas)} security levels")
        # negated forms, so that NaN, which fails every comparison, is rejected too
        if not all(-math.inf < r < math.inf for r in radii):
            raise ValueError("radii must be finite")
        if not all(a < b for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if not all(0.0 <= d <= 1.0 for d in self.deltas):
            raise ValueError("security levels must lie in [0, 1]")


class _EveEvaluator:
    """Memoized security level at eavesdropper positions for one plan."""

    def __init__(self, plan: PlanResult, config: ScenarioConfig):
        require_feasible(plan)
        self.plan = plan
        self.config = config
        self.scene = geometry.Scene(config)
        self._deltas: dict[tuple[float, float], float] = {}

    def key(self, x: float, y: float) -> tuple[float, float]:
        """The symmetry class of (x, y): the exact coordinates, never rounded, of its
        canonical partner, which has the same security level bit for bit."""
        ax, ay = abs(x), abs(y)
        return (min(ax, ay), max(ax, ay)) if self.config.variant == CELL else (x, ay)

    def delta_at(self, x: float, y: float) -> float:
        """Security level at (x, y) on the receiver plane."""
        key = self.key(x, y)
        if key not in self._deltas:
            self._deltas[key] = self._evaluate(*key)
        return self._deltas[key]

    def _evaluate(self, x: float, y: float) -> float:
        return min_security(self.plan.code, self.link_at(x, y))[0]

    def link_at(self, x: float, y: float) -> LinkState:
        """The link to an eavesdropper at (x, y), aimed straight back at the transmitter."""
        cfg = self.config
        distance, theta = self.scene.path(x, y)
        return link_budget(self.plan.transmit_power_w, pattern_gain(cfg.alice, theta),
                           cfg.eve.gain_linear, distance, cfg.environment)

    def insecure_fraction(self, resolution_m: float) -> float:
        """``insecure_fraction(evaluate_map(plan, config, resolution_m))``, bit for bit,
        from a bisection of each grid column on |y| (directed scenario).

        Eve's SNR does not rise as |y| grows along a column, and the level does
        not fall as the SNR rises, so a column's insecure classes are those of
        its smallest |y| values, up to its first secure class.
        """
        xs, ys = grid_axes(self.config, resolution_m)
        points = Counter(map(abs, ys))  # |y| -> grid points in each column
        us = sorted(points)  # the distinct |y|, ascending
        below = [0, *itertools.accumulate(points[u] for u in us)]  # points under each us[k]
        code = self.plan.code
        secure_snr, insecure_snr = -math.inf, math.inf  # the level is known outside these

        def secure(x: float, u: float) -> bool:
            nonlocal secure_snr, insecure_snr
            link = self.link_at(x, u)  # (x, u) is its class's own key
            snr = link.snr
            if snr <= secure_snr:
                return True
            if snr >= insecure_snr:
                return False
            if min_security(code, link)[0] <= INSECURE_LEVEL:
                secure_snr = snr
                return True
            insecure_snr = snr
            return False

        insecure = 0
        for x in xs:
            if not secure(x, us[0]):
                first_secure = bisect.bisect_left(us, True, 1, key=functools.partial(secure, x))
                insecure += below[first_secure]
        return insecure / (len(xs) * len(ys))


def evaluate_map(plan: PlanResult, config: ScenarioConfig,
                 resolution_m: float) -> SecrecyMapGrid:
    """Security level at every grid point of the room at receiver height.

    Parameters
    ----------
    plan : PlanResult
        A feasible plan; raises InfeasiblePlanError otherwise.
    config : ScenarioConfig
    resolution_m : float
        Grid spacing; grid axes follow geometry.grid_axes.
    """
    evaluator = _EveEvaluator(plan, config)
    xs, ys = grid_axes(config, resolution_m)
    values = MapValues(tuple([evaluator.delta_at(x, y) for x in xs]) for y in ys)
    metadata = {
        "resolution_m": resolution_m,
        "nx": len(xs),
        "ny": len(ys),
        "origin_m": [xs[0], ys[0]],
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
    if steps > MAX_GRID_POINTS:  # refused before the radii are built
        raise ValueError(f"{steps} steps exceed the limit of {MAX_GRID_POINTS}")
    radii = _linspace(float(r_min_m), float(r_max_m), steps)
    # a step below the spacing of floats repeats radii; refused before any evaluation
    if not all(a < b for a, b in zip(radii, radii[1:])):
        raise ValueError(f"r_min {r_min_m:g} m to r_max {r_max_m:g} m in {steps} steps gives "
                         "radii that are not strictly increasing; widen the range or use "
                         "fewer steps")
    evaluator = _EveEvaluator(plan, config)
    return RadialProfile(radii_m=radii, deltas=tuple(evaluator.delta_at(r, 0.0) for r in radii))


def _linspace(start: float, stop: float, num: int) -> tuple[float, ...]:
    """``num`` >= 2 evenly spaced floats from start to stop, bit for bit as
    ``numpy.linspace`` computes them: k * step + start, and stop itself last."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:  # a subnormal step underflows; numpy then scales k / div instead
        return (*(k / div * delta + start for k in range(div)), stop)
    return (*(k * step + start for k in range(div)), stop)


def threshold_radius(plan: PlanResult, config: ScenarioConfig, delta_0: float) -> float:
    """Smallest radius at which the security level falls to ``delta_0``.

    Bisection along the radial profile to 1 cm.  Returns 0.0 when the level
    is already below the target at the transmitter axis.  The bisection
    relies on a profile that does not rise with the radius: Eve's SNR does
    not rise as she moves away from the axis
    (``test_eve_snr_does_not_rise_with_the_radius``), and the level does not
    fall as her SNR rises (``test_security_level_non_decreasing_in_snr``).
    """
    if config.variant != CELL:
        raise ConfigError("threshold radius requires the cell scenario")
    if not 0.0 < delta_0 < 1.0:
        raise ValueError(f"delta_0 must lie in (0, 1), got {delta_0}")
    evaluator = _EveEvaluator(plan, config)
    return _crossing_radius(evaluator, delta_0)


def _crossing_radius(evaluator: _EveEvaluator, delta_0: float) -> float:
    """Bisect the non-increasing level delta(r) at y = 0 for ``delta_0``, to 1 cm.

    The bracket doubles from twice the cone radius; a level still at or
    above ``delta_0`` past 1e6 m raises ProfileError.
    """
    if evaluator.delta_at(0.0, 0.0) < delta_0:
        return 0.0
    lo = 0.0
    hi = max(1.0, 2.0 * cone_radius(evaluator.config.alice,
                                    evaluator.config.height_difference_m))
    while evaluator.delta_at(hi, 0.0) >= delta_0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise ProfileError(f"security level never fell below {delta_0:g} out to 1e6 m")
    while hi - lo > THRESHOLD_RADIUS_TOL_M:
        mid = 0.5 * (lo + hi)
        if evaluator.delta_at(mid, 0.0) >= delta_0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def insecure_fraction(grid: SecrecyMapGrid) -> float:
    """Fraction of grid cells whose security level exceeds ``INSECURE_LEVEL``."""
    insecure = sum(v > INSECURE_LEVEL for row in grid.values for v in row)
    return insecure / (len(grid.xs) * len(grid.ys))


def _apply_sweep_value(config: ScenarioConfig, n: int, rate_bits: float,
                       phi_target: float, variable: str, value: float):
    if variable == "n":
        # SecrecyCode checks the same range; here the message shows the float, not int(1e300).
        # The range comes first: int() raises on inf and NaN, which fail it.
        if not 1 <= value <= MAX_BLOCKLENGTH or value != int(value):
            raise ConfigError(f"swept blocklength must be an integer in [1, 2**53], got {value}")
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
    # l_AB, the last of SWEEP_VARIABLES: sweep refuses any other name before it plans
    return replace(config, height_difference_m=float(value)), n, rate_bits, phi_target


def sweep(config: ScenarioConfig, n: int, rate_bits: float, phi_target: float,
          variable: str, values, *, delta_0: float = 1e-3,
          area_resolution_m: float = 2.0) -> list[dict]:
    """Re-plan and summarize the secrecy geometry along one swept variable.

    Produces one long-format row per swept value with the cone footprint
    radius, worst-case capacity, resolved randomness rate, and (cell
    scenario) the radii where the security level crosses 0.99, ``delta_0``
    and 0.01.  Directed rows carry instead the fraction of the grid at
    ``area_resolution_m`` whose level exceeds ``INSECURE_LEVEL``, equal bit
    for bit to ``insecure_fraction`` of that map but found by bisecting each
    grid column on |y|, without building the map.
    """
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}; choose from {SWEEP_VARIABLES}")
    rows = []
    for value in values:
        cfg, n_v, r_v, phi_v = _apply_sweep_value(config, n, rate_bits, phi_target,
                                                  variable, value)
        plan = planner.plan(cfg, n_v, r_v, phi_v)
        row = dict.fromkeys(SWEEP_COLUMNS)  # None: the column does not apply to this row
        row.update(variable=variable, value=value, feasible=plan.feasible,
                   c_ab_bits=plan.c_ab_bits)
        if cfg.variant == CELL:
            row["r_b_m"] = cone_radius(cfg.alice, cfg.height_difference_m)
        if plan.feasible:
            row["l_bits"] = plan.code.randomness_bits
            row["achieved_phi"] = plan.achieved_phi
            if cfg.variant == CELL:
                evaluator = _EveEvaluator(plan, cfg)
                row["r_e0_m"] = _crossing_radius(evaluator, delta_0)
                row["r_delta_hi_m"] = _crossing_radius(evaluator, 0.99)
                row["r_delta_lo_m"] = _crossing_radius(evaluator, 0.01)
                row["transition_width_m"] = row["r_delta_lo_m"] - row["r_delta_hi_m"]
            else:
                row["insecure_fraction"] = _EveEvaluator(plan, cfg).insecure_fraction(
                    area_resolution_m)
        rows.append(row)
    return rows


def _cell(v) -> str:
    """One CSV cell: floats to 9 significant digits, None empty, bools lowercase."""
    if isinstance(v, float):  # np.float64 too, and by far the most common cell
        return format(v, ".9g")
    if v is None:
        return ""
    if isinstance(v, bool) or _is_numpy_bool(v):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):  # int and numpy's integers
        return str(int(v))
    return v if isinstance(v, str) else format(float(v), ".9g")  # np.float32 and other reals


def _is_numpy_bool(v) -> bool:
    # a numpy bool is neither bool nor Integral; without numpy loaded, v cannot be one
    np = sys.modules.get("numpy")
    return np is not None and isinstance(v, np.bool_)


def _write_lines(path, lines) -> None:
    """Write the text lines, each ended by a newline."""
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


def _write_table(path, header, rows) -> None:
    _write_lines(path, [",".join(header), *(",".join(map(_cell, row)) for row in rows)])


def write_map_csv(grid: SecrecyMapGrid, path) -> None:
    """Row-major CSV rows ``x_m,y_m,delta``: x varies fastest.

    Each x, y and distinct delta is formatted once and the rows are joined
    from those texts.  Deltas are told apart by value and sign, not by ``==``
    alone, so -0.0 keeps its own text beside 0.0.
    """
    x_texts = [_cell(x) + "," for x in grid.xs]
    delta_texts: dict[tuple[float, float], str] = {}
    lines = ["x_m,y_m,delta"]
    for y, row in zip(grid.ys, grid.values):
        y_text = _cell(y) + ","
        for x_text, d in zip(x_texts, row):
            key = (d, math.copysign(1.0, d))
            text = delta_texts.get(key)
            if text is None:
                text = delta_texts[key] = _cell(d)
            lines.append(x_text + y_text + text)
    _write_lines(path, lines)


_PGM_LEVELS = tuple(map(str, range(256)))  # the grey levels as text


def write_map_pgm(grid: SecrecyMapGrid, path) -> None:
    """ASCII PGM (P2) rendering: pixel = round(255 * (1 - delta)).

    Secure regions render bright.  The first pixel row is the smallest y,
    matching the CSV row order.
    """
    # round rounds half to even: a level of exactly 0.5 renders 128
    rows = (" ".join([_PGM_LEVELS[round(255.0 * (1.0 - d))] for d in row])
            for row in grid.values)
    _write_lines(path, ["P2", f"{len(grid.xs)} {len(grid.ys)}", "255", *rows])


def write_profile_csv(profile: RadialProfile, path) -> None:
    _write_table(path, ("r_m", "delta"), zip(profile.radii_m, profile.deltas))


def write_sweep_csv(rows: list[dict], path) -> None:
    _write_table(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


__all__ = [
    "MapValues",
    "SecrecyMapGrid",
    "RadialProfile",
    "evaluate_map",
    "radial_profile",
    "threshold_radius",
    "insecure_fraction",
    "sweep",
    "SWEEP_VARIABLES",
    "SWEEP_COLUMNS",
    "write_map_csv",
    "write_map_pgm",
    "write_profile_csv",
    "write_sweep_csv",
    "THRESHOLD_RADIUS_TOL_M",
    "INSECURE_LEVEL",
]
