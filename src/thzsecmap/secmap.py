"""Security-level maps, radial profiles, threshold radii, and parameter sweeps.

Each eavesdropper position is a pure evaluation: the security bound minimized
on Eve's link, which ``Scene.eve_link`` builds from the scenario alone.  The
transmitter sits over y = 0 with no y-component in its boresight (cell: on
the z axis), so x and y enter only as squares, sums and products with 0: the
link depends, bit for bit, only on (|x|, |y|) unordered (cell) or on (x, |y|)
(directed).  Only a map deduplicates by that class, building at most one link
per class; profiles, threshold radii and sweeps build the link at each
position they probe.

The level depends on the link only through Eve's SNR and does not fall as the
SNR rises.  ``SecurityCurve``, one per plan, gives the level as a function of
the SNR from the plan's code alone, memoized on the SNR, with a bracket for
each level asked about, the largest SNR known at or below it and the smallest
known above it.  Maps, profiles, threshold radii and both sweep kinds compose
the two: ``curve.delta(scene.eve_link(x, y))``.

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

from . import planner
from .antenna import cone_radius
from .bounds import min_security
from .errors import ConfigError, ProfileError
from .geometry import CELL, MAX_GRID_POINTS, MAX_LENGTH_M, ScenarioConfig, Scene, grid_axes
from .linkmodel import LinkState, Record
from .planner import PlanResult, require_feasible

THRESHOLD_RADIUS_TOL_M = 0.01
INSECURE_LEVEL = 0.5  # a map cell counts as insecure where delta exceeds this
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


class SecrecyMapGrid(Record, namedtuple("SecrecyMapGrid", "xs ys values")):
    """Security levels on a rectangular grid of eavesdropper positions.

    ``xs`` and ``ys`` are sequences of floats, tuples from ``evaluate_map``.
    ``values`` holds len(ys) rows of len(xs) levels, row-major over (y, x)
    like the CSV export, a ``MapValues`` from ``evaluate_map``, and every
    level must lie in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, xs: tuple[float, ...], ys: tuple[float, ...],
                values: MapValues) -> SecrecyMapGrid:
        ny, nx = len(ys), len(xs)
        if len(values) != ny or any(len(row) != nx for row in values):
            raise ValueError(f"values do not match {ny} y and {nx} x coordinates: "
                             f"need {ny} rows of {nx}")
        # once per row object, as evaluate_map shares mirrored rows; the
        # negated form also rejects NaN, which fails every comparison
        rows = _distinct_rows(values).values()
        if not all(0.0 <= v <= 1.0 for row in rows for v in row):
            raise ValueError("security levels must lie in [0, 1]")
        return tuple.__new__(cls, (xs, ys, values))


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
    """The security level of one plan's code as a function of Eve's SNR.

    ``min_security`` reads a link only through its rho and capacity, and a
    link budget derives both from the SNR alone, so the level is a function
    of the link's SNR and is memoized on it: each SNR costs one bound
    minimization however many positions share it.  The level does not fall
    as the SNR rises (``test_security_level_non_decreasing_in_snr``), so for
    ``exceeds`` the curve also keeps the largest SNR known at or below
    ``INSECURE_LEVEL`` and the smallest SNR known above it; an SNR outside
    that bracket is decided without a bound minimization.
    """

    def __init__(self, plan: PlanResult):
        self.code = require_feasible(plan).code
        self._deltas: dict[float, float] = {}  # SNR -> level
        self._bracket = [-math.inf, math.inf]  # SNRs known at or below, known above the level

    def delta(self, link: LinkState) -> float:
        """The security level at the link's SNR."""
        snr = link.snr
        delta = self._deltas.get(snr)
        if delta is None:
            delta = self._deltas[snr] = min_security(self.code, link)[0]
        return delta

    def exceeds(self, link: LinkState) -> bool:
        """Whether the security level at the link's SNR exceeds ``INSECURE_LEVEL``."""
        bracket = self._bracket
        snr = link.snr
        if snr <= bracket[0]:
            return False
        if snr >= bracket[1]:
            return True
        if self.delta(link) > INSECURE_LEVEL:
            bracket[1] = snr
            return True
        bracket[0] = snr
        return False


def _column_insecure_fraction(scene: Scene, curve: SecurityCurve, resolution_m: float) -> float:
    """``insecure_fraction(evaluate_map(plan, config, resolution_m))``, bit for bit,
    from a bisection of each grid column on |y| (directed scenario).

    Eve's SNR does not rise as |y| grows along a column, and the level does
    not fall as the SNR rises, so a column's insecure classes are those of
    its smallest |y| values, up to its first secure class.
    """
    xs, ys = grid_axes(scene.config, resolution_m)
    points = Counter(map(abs, ys))  # |y| -> grid points in each column
    us = sorted(points)  # the distinct |y|, ascending
    below = [0, *itertools.accumulate(points[u] for u in us)]  # points under each us[k]

    def secure(x: float, u: float) -> bool:
        return not curve.exceeds(scene.eve_link(x, u))

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
    curve, scene = SecurityCurve(plan), Scene(config)
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
                level = levels[key] = curve.delta(scene.eve_link(*key))
            if level == 0.0:  # and so is every level further out
                break
            walk.append(level)
        walks[a] = walk + [0.0] * (len(us) - len(walk))
    rows = dict(zip(us, zip(*[walks[abs(x)] for x in xs])))  # |y| -> its row, one tuple
    return SecrecyMapGrid(xs=xs, ys=ys, values=MapValues(rows[abs(y)] for y in ys))


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
    curve, scene = SecurityCurve(plan), Scene(config)
    return RadialProfile(radii_m=radii,
                         deltas=tuple(curve.delta(scene.eve_link(r, 0.0)) for r in radii))


def _linspace(start: float, stop: float, num: int) -> tuple[float, ...]:
    """``num`` >= 2 evenly spaced floats from start to stop, bit for bit as
    ``numpy.linspace`` computes them: k * step + start, and stop itself last.
    A step that underflows to 0 repeats start, which ``radial_profile`` refuses."""
    step = (stop - start) / (num - 1)
    return (*(k * step + start for k in range(num - 1)), stop)


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
    return _crossing_radius(Scene(config), SecurityCurve(plan), delta_0)


def _check_delta_0(delta_0: float) -> None:
    if not 0.0 < delta_0 < 1.0:
        raise ValueError(f"delta_0 must lie in (0, 1), got {delta_0}")


def _crossing_radius(scene: Scene, curve: SecurityCurve, delta_0: float) -> float:
    """Bisect the non-increasing level delta(r) at y = 0 for ``delta_0``, to 1 cm.

    The bracket doubles from twice the cone radius; a level still at or
    above ``delta_0`` past 1e6 m raises ProfileError.
    """
    def delta_at(r: float) -> float:
        return curve.delta(scene.eve_link(r, 0.0))

    if delta_at(0.0) < delta_0:
        return 0.0
    lo = 0.0
    hi = max(1.0, 2.0 * cone_radius(scene.config.alice, scene.config.height_difference_m))
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


def sweep(config: ScenarioConfig, variable: str, values, row_config, *,
          delta_0: float = 1e-3, area_resolution_m: float = 2.0) -> list[dict]:
    """Re-plan and summarize the secrecy geometry along one swept variable.

    ``row_config(value)`` gives each row's (ScenarioConfig, n, rate_bits,
    phi_target); every row shares the room of ``config``, the unswept scenario.
    Produces one long-format row per swept value with the cone footprint
    radius, worst-case capacity, resolved randomness rate, and (cell
    scenario) the radii where the security level crosses 0.99, ``delta_0``
    and 0.01.  Directed rows carry instead the fraction of the grid at
    ``area_resolution_m`` whose level exceeds ``INSECURE_LEVEL``, equal bit
    for bit to ``insecure_fraction`` of that map but found by bisecting each
    grid column on |y|, without building the map.  Before the first plan,
    ``delta_0`` must lie in (0, 1), as for ``threshold_radius``, and
    ``area_resolution_m`` must give a grid that ``grid_axes`` accepts.  A
    value that its row function, its scenario or its plan refuses is
    reported as ``<variable> = <value>: <reason>``.
    """
    _check_delta_0(delta_0)
    try:
        grid_axes(config, area_resolution_m)
    except ValueError as exc:
        raise ValueError(f"area resolution: {exc}") from None
    rows = []
    for value in values:
        try:
            cfg, n, rate_bits, phi_target = row_config(value)
            plan = planner.plan(cfg, n, rate_bits, phi_target)
        except ValueError as exc:  # a config check, an antenna's, the scenario's or the code's
            raise ConfigError(f"{variable} = {value!r}: {exc}") from None
        row = dict.fromkeys(SWEEP_COLUMNS)  # None: the column does not apply to this row
        row.update(variable=variable, value=value, feasible=plan.feasible,
                   c_ab_bits=plan.c_ab_bits)
        if cfg.variant == CELL:
            row["r_b_m"] = cone_radius(cfg.alice, cfg.height_difference_m)
        if plan.feasible:
            row["l_bits"] = plan.code.randomness_bits
            row["achieved_phi"] = plan.achieved_phi
            curve, scene = SecurityCurve(plan), Scene(cfg)
            if cfg.variant == CELL:
                row["r_e0_m"] = _crossing_radius(scene, curve, delta_0)
                row["r_delta_hi_m"] = _crossing_radius(scene, curve, 0.99)
                row["r_delta_lo_m"] = _crossing_radius(scene, curve, 0.01)
                row["transition_width_m"] = row["r_delta_lo_m"] - row["r_delta_hi_m"]
            else:
                row["insecure_fraction"] = _column_insecure_fraction(scene, curve,
                                                                    area_resolution_m)
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
