"""Scenario geometry: the transmitter, the receiver position, paths, grid axes.

Coordinates are right-handed with z vertical.  The receiver plane is z = 0,
and the transmitter sits at height ``height_difference_m`` above it.  In the
ceiling-cell scenario the transmitter hangs on the vertical axis through the
room center and points straight down; in the directed scenario it sits on the
x = 0 wall and is aimed at the receiver.  Either way a link to a point on the
receiver plane is fixed by two scalars, its length and its angle off the
transmitter's boresight (``Scene.path``).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .antenna import Antenna, cone_radius
from .errors import GeometryError
from .linkmodel import RadioEnvironment, Record

CELL = "cell"
DIRECTED = "directed"
VARIANTS = (CELL, DIRECTED)
MAX_GRID_POINTS = 4_000_000  # about 0.03 m spacing on a 60 m x 60 m room
MAX_LENGTH_M = 1e150  # squared path lengths and their sums stay finite
MIN_LENGTH_M = 1e-150  # a squared height stays nonzero


class ScenarioConfig(Record, namedtuple("ScenarioConfig", "variant environment alice bob eve "
                                        "transmit_power_w height_difference_m "
                                        "horizontal_distance_m room_extent_m")):
    """Full description of one indoor scenario.

    Room extent is the floor rectangle in meters.  For the cell variant the
    room is centered on the transmitter's floor projection; for the directed
    variant the transmitter wall is at x = 0 and the room extends toward
    positive x, centered in y.  Bob and Eve are aimed straight back at
    Alice, so only their antennas' gain is read, never their pattern.
    """

    __slots__ = ()

    def __new__(cls, variant: str, environment: RadioEnvironment, alice: Antenna, bob: Antenna,
                eve: Antenna, transmit_power_w: float, height_difference_m: float,
                horizontal_distance_m: float | None = None,
                room_extent_m: tuple[float, float] = (60.0, 60.0)) -> ScenarioConfig:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if transmit_power_w <= 0.0:
            raise ValueError(f"transmit power must be positive, got {transmit_power_w}")
        if height_difference_m <= 0.0:
            raise ValueError(f"height difference must be positive, got {height_difference_m}")
        if height_difference_m < MIN_LENGTH_M:
            raise ValueError(f"height difference must be at least {MIN_LENGTH_M:g} m, "
                             f"got {height_difference_m}")
        ex, ey = room_extent_m
        if ex <= 0.0 or ey <= 0.0:
            raise ValueError(f"room extent must be positive, got {room_extent_m}")
        longest = max(height_difference_m, ex, ey, horizontal_distance_m or 0.0)
        if longest > MAX_LENGTH_M:
            raise ValueError(f"lengths must be at most {MAX_LENGTH_M:g} m, got {longest}")
        if variant == DIRECTED:
            if horizontal_distance_m is None:
                raise ValueError("directed scenario requires horizontal_distance_m")
            if horizontal_distance_m <= 0.0:
                raise ValueError(f"horizontal distance must be positive, got {horizontal_distance_m}")
        return tuple.__new__(cls, (variant, environment, alice, bob, eve, transmit_power_w,
                                   height_difference_m, horizontal_distance_m, room_extent_m))


def receiver_x(config: ScenarioConfig) -> float:
    """The legitimate receiver's x on the receiver plane; it sits at y = 0.

    Cell variant: the worst-case position on the half-power cone edge.
    Directed variant: ``horizontal_distance_m`` from the transmitter wall.
    Raises GeometryError when that position lies outside the room.
    """
    ex = config.room_extent_m[0]
    if config.variant == CELL:
        r_b = cone_radius(config.alice, config.height_difference_m)
        if r_b > ex / 2.0 + 1e-9:
            raise GeometryError(f"receiver offset ({r_b}, 0.0) lies outside the room")
        return r_b
    d = config.horizontal_distance_m
    if not 0.0 <= d <= ex + 1e-9:
        raise GeometryError(f"receiver distance {d} m lies outside the room (0 to {ex} m)")
    return d


class Scene:
    """The transmitter pose of one scenario, built once.

    The transmitter sits at (0, 0, h), h = ``height_difference_m``.  Cell
    variant: it points straight down.  Directed variant: it is aimed at the
    receiver.  Every link from the transmitter to the receiver plane goes
    through ``path``: the planner's link to the receiver and each
    eavesdropper position of a map or profile.
    """

    __slots__ = ("origin", "boresight")

    def __init__(self, config: ScenarioConfig):
        h = config.height_difference_m
        self.origin = (0.0, 0.0, h)
        if config.variant == CELL:
            self.boresight = (0.0, 0.0, -1.0)
        else:
            d = receiver_x(config)
            norm = math.sqrt(d * d + h * h)
            self.boresight = (d / norm, 0.0, -h / norm)

    def path(self, x: float, y: float) -> tuple[float, float]:
        """Length and angle off the transmitter's boresight of the path to (x, y).

        (x, y) is a point on the receiver plane; the angle is in radians.
        """
        origin = self.origin
        distance = math.sqrt(x ** 2 + y ** 2 + origin[2] ** 2)
        return distance, offset_angle(self.boresight, origin, (x, y, 0.0))


def offset_angle(boresight, from_position, to_position) -> float:
    """Angle in [0, pi] between a boresight direction and the ray from -> to.

    Each argument is a 3-sequence of floats; the arithmetic is scalar.
    """
    bx, by, bz = boresight
    fx, fy, fz = from_position
    tx, ty, tz = to_position
    dx = tx - fx
    dy = ty - fy
    dz = tz - fz
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm == 0.0:
        raise ValueError("offset angle undefined for coincident points")
    cosine = (bx * dx + by * dy + bz * dz) / norm
    return math.acos(max(-1.0, min(1.0, cosine)))


def grid_axes(config: ScenarioConfig,
              resolution_m: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Regular grid axes covering the room at the given resolution, as tuples of floats.

    Point counts follow the fencepost rule (extent/resolution + 1); the
    spanned range is centered where the room is centered, so cell grids are
    mirror-symmetric about the transmitter axis.  The k-th coordinate is
    ``k * resolution_m - span / 2``, or ``k * resolution_m`` on the directed x
    axis.  More than MAX_GRID_POINTS points raise ValueError before any axis
    is built.
    """
    if not 0.0 < resolution_m < math.inf:  # the negated form also rejects NaN
        raise ValueError(f"resolution must be positive and finite, got {resolution_m}")
    steps = [extent / resolution_m + 1e-9 for extent in config.room_extent_m]
    nx, ny = (math.floor(s) + 1 if math.isfinite(s) else s for s in steps)  # inf stays inf
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"{nx} x {ny} = {nx * ny} grid points exceed the limit of "
                         f"{MAX_GRID_POINTS}; use a coarser resolution")
    # subtracting 0.0 leaves every float, -0.0 included, as it is
    x0 = (nx - 1) * resolution_m / 2.0 if config.variant == CELL else 0.0
    y0 = (ny - 1) * resolution_m / 2.0
    return (tuple(k * resolution_m - x0 for k in range(nx)),
            tuple(k * resolution_m - y0 for k in range(ny)))
