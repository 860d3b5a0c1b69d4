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
                                        "transmit_mw height_difference_m "
                                        "horizontal_distance_m room_extent_m")):
    """Full description of one indoor scenario.

    The transmit power is in mW, as a config gives it; ``transmit_power_w``
    is the same power in watts.  Room extent is the floor rectangle in
    meters.  For the cell variant the room is centered on the transmitter's
    floor projection; for the directed variant the transmitter wall is at
    x = 0 and the room extends toward positive x, centered in y.  Bob and
    Eve are aimed straight back at Alice, so only their antennas' gain is
    read, never their pattern.
    """

    __slots__ = ()

    def __new__(cls, variant: str, environment: RadioEnvironment, alice: Antenna, bob: Antenna,
                eve: Antenna, transmit_mw: float, height_difference_m: float,
                horizontal_distance_m: float | None = None,
                room_extent_m: tuple[float, float] = (60.0, 60.0)) -> ScenarioConfig:
        # each message starts with the field name; the negated forms also reject NaN
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if not 0.0 < transmit_mw < math.inf:
            raise ValueError(f"transmit_mw must be positive and finite, got {transmit_mw}")
        if transmit_mw * 1e-3 == 0.0:
            raise ValueError(f"transmit_mw of {transmit_mw} underflows to 0 W")
        if not MIN_LENGTH_M <= height_difference_m <= MAX_LENGTH_M:
            raise ValueError(f"height_difference_m must lie in [{MIN_LENGTH_M:g}, "
                             f"{MAX_LENGTH_M:g}] m, got {height_difference_m}")
        ex, ey = room_extent_m
        if not (0.0 < ex <= MAX_LENGTH_M and 0.0 < ey <= MAX_LENGTH_M):
            raise ValueError(f"room_extent_m must lie in (0, {MAX_LENGTH_M:g}] m, "
                             f"got {room_extent_m}")
        if (variant == CELL) != (horizontal_distance_m is None):
            raise ValueError("horizontal_distance_m must be set in the directed variant and "
                             f"only there, got {horizontal_distance_m} in the {variant} variant")
        if variant == DIRECTED and not 0.0 < horizontal_distance_m <= ex + 1e-9:  # in the room
            raise ValueError(f"horizontal_distance_m must lie in (0, {ex}] m, up to "
                             f"room_extent_m[0], got {horizontal_distance_m}")
        return tuple.__new__(cls, (variant, environment, alice, bob, eve, transmit_mw,
                                   height_difference_m, horizontal_distance_m, room_extent_m))

    @property
    def transmit_power_w(self) -> float:
        return self.transmit_mw * 1e-3


def receiver_x(config: ScenarioConfig) -> float:
    """The legitimate receiver's x on the receiver plane; it sits at y = 0.

    Cell variant: the worst-case position on the half-power cone edge, or a
    GeometryError when that lies outside the room.  Directed variant:
    ``horizontal_distance_m`` from the transmitter wall, which is in the room.
    """
    if config.variant == CELL:
        r_b = cone_radius(config.alice, config.height_difference_m)
        if r_b > config.room_extent_m[0] / 2.0 + 1e-9:
            raise GeometryError(f"receiver offset ({r_b}, 0.0) lies outside the room")
        return r_b
    return config.horizontal_distance_m


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
