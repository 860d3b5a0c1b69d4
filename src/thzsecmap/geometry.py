"""Scenario geometry: the transmitter, the receiver position, paths, grid axes.

Coordinates are right-handed with z vertical.  The receiver plane sits at
z = receiver_height.  In the ceiling-cell scenario the transmitter hangs on
the vertical axis through the room center and points straight down; in the
directed scenario it sits on the x = 0 wall and is aimed at the receiver.
Either way a link to a point on the receiver plane is fixed by two scalars,
its length and its angle off the transmitter's boresight (``path``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import Antenna, cone_radius
from .errors import GeometryError
from .linkmodel import RadioEnvironment

CELL = "cell"
DIRECTED = "directed"
VARIANTS = (CELL, DIRECTED)
MAX_GRID_POINTS = 4_000_000  # about 0.03 m spacing on a 60 m x 60 m room
MAX_LENGTH_M = 1e150  # squared path lengths and their sums stay finite


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one indoor scenario.

    Room extent is the floor rectangle in meters.  For the cell variant the
    room is centered on the transmitter's floor projection; for the directed
    variant the transmitter wall is at x = 0 and the room extends toward
    positive x, centered in y.
    """

    variant: str
    environment: RadioEnvironment
    alice: Antenna
    bob: Antenna
    eve: Antenna
    transmit_power_w: float
    height_difference_m: float
    horizontal_distance_m: float | None = None
    room_extent_m: tuple[float, float] = (60.0, 60.0)
    receiver_height_m: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.transmit_power_w <= 0.0:
            raise ValueError(f"transmit power must be positive, got {self.transmit_power_w}")
        if self.height_difference_m <= 0.0:
            raise ValueError(f"height difference must be positive, got {self.height_difference_m}")
        if self.receiver_height_m < 0.0:
            raise ValueError(f"receiver height must be >= 0, got {self.receiver_height_m}")
        ex, ey = self.room_extent_m
        if ex <= 0.0 or ey <= 0.0:
            raise ValueError(f"room extent must be positive, got {self.room_extent_m}")
        longest = max(self.height_difference_m, self.receiver_height_m, ex, ey,
                      self.horizontal_distance_m or 0.0)
        if longest > MAX_LENGTH_M:
            raise ValueError(f"lengths must be at most {MAX_LENGTH_M:g} m, got {longest}")
        if self.variant == DIRECTED:
            if self.horizontal_distance_m is None:
                raise ValueError("directed scenario requires horizontal_distance_m")
            if self.horizontal_distance_m <= 0.0:
                raise ValueError(
                    f"horizontal distance must be positive, got {self.horizontal_distance_m}"
                )


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


def transmitter(config: ScenarioConfig) -> tuple[tuple[float, float, float],
                                                 tuple[float, float, float]]:
    """The transmitter's position and unit boresight.

    Cell variant: straight down.  Directed variant: aimed at the receiver.
    """
    z_rx = config.receiver_height_m
    z_tx = z_rx + config.height_difference_m
    if config.variant == CELL:
        return (0.0, 0.0, z_tx), (0.0, 0.0, -1.0)
    d = receiver_x(config)
    dz = z_rx - z_tx
    norm = math.sqrt(d * d + dz * dz)
    return (0.0, 0.0, z_tx), (d / norm, 0.0, dz / norm)


def path(config: ScenarioConfig, x: float, y: float) -> tuple[float, float]:
    """Length and angle off the transmitter's boresight of the path to (x, y).

    (x, y) is a point on the receiver plane; the angle is in radians.
    """
    origin, boresight = transmitter(config)
    ax, ay, az = origin
    z = config.receiver_height_m
    distance = math.sqrt((x - ax) ** 2 + (y - ay) ** 2 + (z - az) ** 2)
    return distance, offset_angle(boresight, origin, (x, y, z))


def offset_angle(boresight, from_position, to_position) -> float:
    """Angle in [0, pi] between a boresight direction and the ray from -> to.

    Each argument is a 3-sequence (tuple or array); the arithmetic is scalar.
    """
    bx, by, bz = boresight
    fx, fy, fz = from_position
    tx, ty, tz = to_position
    dx = float(tx) - float(fx)
    dy = float(ty) - float(fy)
    dz = float(tz) - float(fz)
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm == 0.0:
        raise ValueError("offset angle undefined for coincident points")
    cosine = (float(bx) * dx + float(by) * dy + float(bz) * dz) / norm
    return math.acos(max(-1.0, min(1.0, cosine)))


def grid_axes(config: ScenarioConfig, resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Regular grid axes covering the room at the given resolution.

    Point counts follow the fencepost rule (extent/resolution + 1); the
    spanned range is centered where the room is centered, so cell grids are
    mirror-symmetric about the transmitter axis.  More than MAX_GRID_POINTS
    points raise ValueError before any array is built.
    """
    if resolution_m <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution_m}")
    steps = [extent / resolution_m + 1e-9 for extent in config.room_extent_m]
    nx, ny = (math.floor(s) + 1 if math.isfinite(s) else s for s in steps)  # inf stays inf
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"{nx} x {ny} = {nx * ny} grid points exceed the limit of "
                         f"{MAX_GRID_POINTS}; use a coarser resolution")
    span_x = (nx - 1) * resolution_m
    span_y = (ny - 1) * resolution_m
    ys = np.arange(ny) * resolution_m - span_y / 2.0
    if config.variant == CELL:
        xs = np.arange(nx) * resolution_m - span_x / 2.0
    else:
        xs = np.arange(nx) * resolution_m
    return xs, ys
