"""Security-level maps, radial profiles, threshold radii, and parameter sweeps.

Each eavesdropper position is a pure evaluation: the security bound minimized
on the link from the transmitter (pattern gain at the offset angle) to an
eavesdropper aimed straight back.  The transmitter sits over y = 0 with no
y-component in its boresight (cell: on the z axis), so x and y enter only as
squares, sums and products with 0: the link depends, bit for bit, only on
(|x|, |y|) unordered (cell) or on (x, |y|) (directed).  Only a map
deduplicates by that class, building at most one link per class; profiles,
threshold radii and sweeps build the link at each position they probe.

The level depends on the link only through Eve's SNR and does not fall as
the SNR rises.  ``SecurityCurve`` is the one object per plan: it builds
Eve's link at a position, and gives the level as a function of the SNR,
memoized on the SNR, with a bracket for each level asked about, the largest
SNR known at or below it and the smallest known above it.  Maps, profiles,
threshold radii and both sweep kinds ask it for their links and levels.

Eve's SNR does not rise as |y| grows along a grid column, so neither does
the level.  A map walks each column, a distinct |x| (cell) or x
(directed), outward over the distinct |y| and stops at its first exact
zero: only the classes with a level above zero and each column's first
zero cost a link.  Mirrored rows are one tuple.  Maps run in one process.
The map exports format each distinct value once: every axis coordinate,
every distinct delta and each of the 256 grey levels, and each row object
once.

A directed sweep row builds no map.  It bisects each column on |y| instead:
about nx * log2(ny) links per row instead of one per class, and a bound
minimization only for an SNR that the curve's bracket at ``INSECURE_LEVEL``
does not yet decide.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter, namedtuple

from . import geometry, planner
from .antenna import cone_radius, pattern_gain
from .bounds import MAX_BLOCKLENGTH, min_security
from .errors import ConfigError, ProfileError
from .geometry import CELL, DIRECTED, MAX_GRID_POINTS, MAX_LENGTH_M, ScenarioConfig, grid_axes
from .linkmodel import LinkState, Record, link_budget
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


def _distinct_rows(rows) -> dict:
    """id -> row for each row object of ``rows`` once, holding each row so its id stays its own."""
    return {id(row): row for row in rows}


class SecrecyMapGrid(Record, namedtuple("SecrecyMapGrid", "xs ys values metadata")):
    """Security levels on a rectangular grid of eavesdropper positions.

    ``xs`` and ``ys`` are sequences of floats, tuples from ``evaluate_map``.
    ``values`` holds len(ys) rows of len(xs) levels, row-major over (y, x)
    like the CSV export, a ``MapValues`` from ``evaluate_map``, and every
    level must lie in [0, 1].
    ``metadata`` describes the grid (resolution, size, origin, plane height);
    the plan and scenario are recorded by the caller.
    """

    __slots__ = ()

    def __new__(cls, xs: tuple[float, ...], ys: tuple[float, ...], values: MapValues,
                metadata: dict) -> SecrecyMapGrid:
        ny, nx = len(ys), len(xs)
        if len(values) != ny or any(len(row) != nx for row in values):
            raise ValueError(f"values do not match {ny} y and {nx} x coordinates: "
                             f"need {ny} rows of {nx}")
        # once per row object, as evaluate_map shares mirrored rows; the
        # negated form also rejects NaN, which fails every comparison
        rows = _distinct_rows(values).values()
        if not all(0.0 <= v <= 1.0 for row in rows for v in row):
            raise ValueError("security levels must lie in [0, 1]")
        return tuple.__new__(cls, (xs, ys, values, metadata))


class RadialProfile(Record, namedtuple("RadialProfile", "radii_m deltas")):
    """Security level versus horizontal distance from the transmitter.

    ``radii_m`` and ``deltas`` are tuples of floats of one length; the radii
    are finite and strictly increasing and every level lies in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, radii_m: tuple[float, ...], deltas: tuple[float, ...]) -> RadialProfile:
        if len(radii_m) != len(deltas):
            raise ValueError(f"{len(radii_m)} radii but {len(deltas)} security levels")
        # negated forms, so that NaN, which fails every comparison, is rejected too
        if not all(-math.inf < r < math.inf for r in radii_m):
            raise ValueError("radii must be finite")
        if not all(a < b for a, b in zip(radii_m, radii_m[1:])):
            raise ValueError("radii must be strictly increasing")
        if not all(0.0 <= d <= 1.0 for d in deltas):
            raise ValueError("security levels must lie in [0, 1]")
        return tuple.__new__(cls, (radii_m, deltas))


class SecurityCurve:
    """Eve's link and security level under one plan in its scenario.

    ``link_at`` builds the link to an eavesdropper at a position, afresh on
    every call: only a map, which knows the symmetry classes, builds at most
    one link per class.  ``min_security`` reads a link only through its rho and
    capacity, and a link budget derives both from the SNR alone, so the level
    is a function of the link's SNR and is memoized on it: each SNR costs one
    bound minimization however many positions share it.  The level does not
    fall as the SNR rises (``test_security_level_non_decreasing_in_snr``), so
    for each level that ``exceeds`` is asked about, the curve also keeps the
    largest SNR known at or below that level and the smallest SNR known above
    it; an SNR outside that bracket is decided without a bound minimization.
    """

    def __init__(self, plan: PlanResult, config: ScenarioConfig):
        require_feasible(plan)
        self.plan = plan
        self.config = config
        self.scene = geometry.Scene(config)
        self._deltas: dict[float, float] = {}  # SNR -> level
        self._brackets: dict[float, list[float]] = {}  # level -> [known at or below, known above]

    def link_at(self, x: float, y: float) -> LinkState:
        """The link to an eavesdropper at (x, y), aimed straight back at the transmitter."""
        cfg = self.config
        distance, theta = self.scene.path(x, y)
        return link_budget(self.plan.transmit_power_w, pattern_gain(cfg.alice, theta),
                           cfg.eve.gain_linear, distance, cfg.environment)

    def delta(self, link: LinkState) -> float:
        """The security level at the link's SNR."""
        snr = link.snr
        delta = self._deltas.get(snr)
        if delta is None:
            delta = self._deltas[snr] = min_security(self.plan.code, link)[0]
        return delta

    def exceeds(self, link: LinkState, level: float) -> bool:
        """Whether the security level at the link's SNR exceeds ``level``."""
        bracket = self._brackets.get(level)
        if bracket is None:
            bracket = self._brackets[level] = [-math.inf, math.inf]
        snr = link.snr
        if snr <= bracket[0]:
            return False
        if snr >= bracket[1]:
            return True
        if self.delta(link) > level:
            bracket[1] = snr
            return True
        bracket[0] = snr
        return False


def _column_insecure_fraction(curve: SecurityCurve, resolution_m: float) -> float:
    """``insecure_fraction(evaluate_map(plan, config, resolution_m))``, bit for bit,
    from a bisection of each grid column on |y| (directed scenario).

    Eve's SNR does not rise as |y| grows along a column, and the level does
    not fall as the SNR rises, so a column's insecure classes are those of
    its smallest |y| values, up to its first secure class.
    """
    xs, ys = grid_axes(curve.config, resolution_m)
    points = Counter(map(abs, ys))  # |y| -> grid points in each column
    us = sorted(points)  # the distinct |y|, ascending
    below = [0, *itertools.accumulate(points[u] for u in us)]  # points under each us[k]

    def secure(x: float, u: float) -> bool:
        return not curve.exceeds(curve.link_at(x, u), INSECURE_LEVEL)

    insecure = 0
    for x in xs:
        if not secure(x, us[0]):
            first_secure = bisect.bisect_left(us, True, 1, key=functools.partial(secure, x))
            insecure += below[first_secure]
    return insecure / (len(xs) * len(ys))


def evaluate_map(plan: PlanResult, config: ScenarioConfig,
                 resolution_m: float) -> SecrecyMapGrid:
    """Security level at every grid point of the room on the receiver plane.

    Each column, a distinct |x| (cell) or x (directed), is walked over the
    distinct |y| in ascending order, with one link and level per symmetry
    class, until its first level of exactly 0.0; every level further out is
    0.0 too, since Eve's SNR does not rise along a column
    (``test_eve_snr_does_not_rise_along_a_column``).  Rows of equal |y| are
    one tuple.

    Parameters
    ----------
    plan : PlanResult
        A feasible plan; raises InfeasiblePlanError otherwise.
    config : ScenarioConfig
    resolution_m : float
        Grid spacing; grid axes follow geometry.grid_axes.
    """
    curve = SecurityCurve(plan, config)
    xs, ys = grid_axes(config, resolution_m)
    cell = config.variant == CELL
    columns = dict.fromkeys(map(abs, xs)) if cell else xs  # the x classes, one walk each
    us = sorted(set(map(abs, ys)))  # the distinct |y|, ascending, one row each
    levels: dict[tuple[float, float], float] = {}  # class key -> level
    walks = {}  # x class -> its levels along us
    for a in columns:
        walk = []
        for u in us:
            key = (u, a) if cell and u < a else (a, u)  # the class's canonical position
            level = levels.get(key)
            if level is None:
                level = levels[key] = curve.delta(curve.link_at(*key))
            if level == 0.0:  # and so is every level further out
                break
            walk.append(level)
        walks[a] = walk + [0.0] * (len(us) - len(walk))
    rows = dict(zip(us, zip(*[walks[abs(x)] for x in xs])))  # |y| -> its row, one tuple
    values = MapValues(rows[abs(y)] for y in ys)
    metadata = {
        "resolution_m": resolution_m,
        "nx": len(xs),
        "ny": len(ys),
        "origin_m": [xs[0], ys[0]],
    }
    return SecrecyMapGrid(xs=xs, ys=ys, values=values, metadata=metadata)


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
        raise ValueError(f"r_min {r_min_m!r} m to r_max {r_max_m!r} m in {steps} steps gives "
                         "radii that are not strictly increasing; widen the range or use "
                         "fewer steps")
    curve = SecurityCurve(plan, config)
    return RadialProfile(radii_m=radii,
                         deltas=tuple(curve.delta(curve.link_at(r, 0.0)) for r in radii))


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
    _check_delta_0(delta_0)
    return _crossing_radius(SecurityCurve(plan, config), delta_0)


def _check_delta_0(delta_0: float) -> None:
    if not 0.0 < delta_0 < 1.0:
        raise ValueError(f"delta_0 must lie in (0, 1), got {delta_0}")


def _crossing_radius(curve: SecurityCurve, delta_0: float) -> float:
    """Bisect the non-increasing level delta(r) at y = 0 for ``delta_0``, to 1 cm.

    The bracket doubles from twice the cone radius; a level still at or
    above ``delta_0`` past 1e6 m raises ProfileError.
    """
    def delta_at(r: float) -> float:
        return curve.delta(curve.link_at(r, 0.0))

    if delta_at(0.0) < delta_0:
        return 0.0
    lo = 0.0
    hi = max(1.0, 2.0 * cone_radius(curve.config.alice, curve.config.height_difference_m))
    while delta_at(hi) >= delta_0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise ProfileError(f"security level never fell below {delta_0!r} out to 1e6 m")
    while hi - lo > THRESHOLD_RADIUS_TOL_M:
        mid = 0.5 * (lo + hi)
        if delta_at(mid) >= delta_0:
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
        cfg = config._replace(eve=config.eve._replace(gain_dbi=float(value)))
        return cfg, n, rate_bits, phi_target
    if variable == "G_A":
        # transmitter and legitimate receiver share the same gain by convention
        cfg = config._replace(alice=config.alice._replace(gain_dbi=float(value)),
                              bob=config.bob._replace(gain_dbi=float(value)))
        return cfg, n, rate_bits, phi_target
    if variable == "d_AB":
        return config._replace(horizontal_distance_m=float(value)), n, rate_bits, phi_target
    # l_AB, the last of SWEEP_VARIABLES: sweep refuses any other name before it plans
    return config._replace(height_difference_m=float(value)), n, rate_bits, phi_target


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
    grid column on |y|, without building the map.  ``delta_0`` must lie in
    (0, 1), as for ``threshold_radius``, and ``area_resolution_m`` must give
    a grid that ``grid_axes`` accepts, in either scenario; both are checked
    before the first plan.  A value that its scenario or its plan refuses is
    reported as ``<variable> = <value>: <reason>``.
    """
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}; choose from {SWEEP_VARIABLES}")
    _check_delta_0(delta_0)
    try:
        grid_axes(config, area_resolution_m)  # no swept variable changes the room
    except ValueError as exc:
        raise ValueError(f"area resolution: {exc}") from None
    if variable == "d_AB" and config.variant != DIRECTED:
        raise ConfigError("d_AB can only be swept in the directed scenario")
    rows = []
    for value in values:
        try:
            cfg, n_v, r_v, phi_v = _apply_sweep_value(config, n, rate_bits, phi_target,
                                                      variable, value)
            plan = planner.plan(cfg, n_v, r_v, phi_v)
        except ValueError as exc:  # an antenna's, the scenario's or the code's check
            raise ConfigError(f"{variable} = {value!r}: {exc}") from None
        row = dict.fromkeys(SWEEP_COLUMNS)  # None: the column does not apply to this row
        row.update(variable=variable, value=value, feasible=plan.feasible,
                   c_ab_bits=plan.c_ab_bits)
        if cfg.variant == CELL:
            row["r_b_m"] = cone_radius(cfg.alice, cfg.height_difference_m)
        if plan.feasible:
            row["l_bits"] = plan.code.randomness_bits
            row["achieved_phi"] = plan.achieved_phi
            curve = SecurityCurve(plan, cfg)
            if cfg.variant == CELL:
                row["r_e0_m"] = _crossing_radius(curve, delta_0)
                row["r_delta_hi_m"] = _crossing_radius(curve, 0.99)
                row["r_delta_lo_m"] = _crossing_radius(curve, 0.01)
                row["transition_width_m"] = row["r_delta_lo_m"] - row["r_delta_hi_m"]
            else:
                row["insecure_fraction"] = _column_insecure_fraction(curve, area_resolution_m)
        rows.append(row)
    return rows


def _cell(v) -> str:
    """One CSV cell: a float to 9 significant digits, None empty, a bool lowercase,
    an int or a str as is."""
    if isinstance(v, float):  # by far the most common cell
        return format(v, ".9g")
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _write_lines(path, lines) -> None:
    """Write the text lines, each ended by a newline."""
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


def _write_table(path, header, rows) -> None:
    _write_lines(path, [",".join(header), *(",".join(map(_cell, row)) for row in rows)])


def write_map_csv(grid: SecrecyMapGrid, path) -> None:
    """Row-major CSV rows ``x_m,y_m,delta``: x varies fastest.

    Each x, y and distinct delta is formatted once.  Each row object becomes
    once the texts between its y's: the first ``x,``, then each delta with
    its newline and the next ``x,``, then the last delta and its newline.
    Each grid row joins those with its own ``y,``.  Deltas are told apart by
    value and sign, not by ``==`` alone, so -0.0 keeps its own text beside 0.0.
    """
    x_texts = [_cell(x) + "," for x in grid.xs]
    delta_texts: dict[tuple[float, float], str] = {}

    def pieces(row) -> list[str]:
        out, before = [], ""
        for x_text, d in zip(x_texts, row):
            key = (d, math.copysign(1.0, d))
            text = delta_texts.get(key)
            if text is None:
                text = delta_texts[key] = _cell(d)
            out.append(before + x_text)
            before = text + "\n"
        out.append(before)
        return out

    rows = list(grid.values)
    row_pieces = {key: pieces(row) for key, row in _distinct_rows(rows).items()}
    with open(path, "w") as f:
        f.write("x_m,y_m,delta\n")
        f.write("".join([(_cell(y) + ",").join(row_pieces[id(row)])
                         for y, row in zip(grid.ys, rows)]))


_PGM_LEVELS = tuple(map(str, range(256)))  # the grey levels as text


def write_map_pgm(grid: SecrecyMapGrid, path) -> None:
    """ASCII PGM (P2) rendering: pixel = round(255 * (1 - delta)).

    Secure regions render bright.  The first pixel row is the smallest y,
    matching the CSV row order.
    """
    # round rounds half to even: a level of exactly 0.5 renders 128
    rows = list(grid.values)
    texts = {key: " ".join([_PGM_LEVELS[round(255.0 * (1.0 - d))] for d in row])
             for key, row in _distinct_rows(rows).items()}
    _write_lines(path, ["P2", f"{len(grid.xs)} {len(grid.ys)}", "255",
                        *(texts[id(row)] for row in rows)])


def write_profile_csv(profile: RadialProfile, path) -> None:
    _write_table(path, ("r_m", "delta"), zip(profile.radii_m, profile.deltas))


def write_sweep_csv(rows: list[dict], path) -> None:
    _write_table(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


__all__ = [
    "MapValues",
    "SecrecyMapGrid",
    "RadialProfile",
    "SecurityCurve",
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
