"""Scenario geometry: node placement, boresight offsets, eavesdropper grids.

Coordinates are right-handed with z vertical.  The receiver plane sits at
z = receiver_height.  In the ceiling-cell scenario the transmitter hangs on
the vertical axis through the room center and points straight down; in the
directed scenario it sits on the x = 0 wall and is aimed at the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .antenna import Antenna, cone_radius
from .errors import GeometryError, OutOfCellError
from .linkmodel import RadioEnvironment

CELL = "cell"
DIRECTED = "directed"
VARIANTS = (CELL, DIRECTED)


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
        if self.variant == DIRECTED:
            if self.horizontal_distance_m is None:
                raise ValueError("directed scenario requires horizontal_distance_m")
            if self.horizontal_distance_m <= 0.0:
                raise ValueError(
                    f"horizontal distance must be positive, got {self.horizontal_distance_m}"
                )


@dataclass(frozen=True, eq=False)
class NodePlacement:
    """A node's position, boresight direction, and antenna."""

    position: np.ndarray
    boresight: np.ndarray
    antenna: Antenna = field(repr=False)

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(self.boresight))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"boresight must be a unit vector, |b| = {norm}")


def _as_offset(bob_offset) -> tuple[float, float]:
    if bob_offset is None:
        return 0.0, 0.0
    if np.isscalar(bob_offset):
        return float(bob_offset), 0.0
    ox, oy = bob_offset
    return float(ox), float(oy)


def build_scenario(config: ScenarioConfig, bob_offset=None) -> dict[str, NodePlacement]:
    """Place the transmitter and the legitimate receiver.

    Parameters
    ----------
    config : ScenarioConfig
    bob_offset : float, 2-sequence, or None
        Cell variant only: horizontal offset of the receiver from the
        transmitter's floor projection, either a radial scalar (along +x)
        or an (x, y) pair.  Must stay within the half-power cone footprint.
        Ignored for the directed variant, where the receiver position comes
        from ``horizontal_distance_m``.

    Returns
    -------
    dict with keys "alice" and "bob" mapping to NodePlacement.
    """
    z_rx = config.receiver_height_m
    z_tx = z_rx + config.height_difference_m
    ex, ey = config.room_extent_m

    if config.variant == CELL:
        ox, oy = _as_offset(bob_offset)
        radius = math.hypot(ox, oy)
        r_b = cone_radius(config.alice, config.height_difference_m)
        if radius > r_b + 1e-9:
            raise OutOfCellError(
                f"receiver offset {radius:.3f} m exceeds cone footprint radius {r_b:.3f} m"
            )
        if abs(ox) > ex / 2.0 + 1e-9 or abs(oy) > ey / 2.0 + 1e-9:
            raise GeometryError(f"receiver offset ({ox}, {oy}) lies outside the room")
        alice_pos = np.array([0.0, 0.0, z_tx])
        bob_pos = np.array([ox, oy, z_rx])
        alice_bore = np.array([0.0, 0.0, -1.0])
    else:
        d = config.horizontal_distance_m
        if not 0.0 <= d <= ex + 1e-9:
            raise GeometryError(f"receiver distance {d} m lies outside the room (0 to {ex} m)")
        alice_pos = np.array([0.0, 0.0, z_tx])
        bob_pos = np.array([d, 0.0, z_rx])
        alice_bore = bob_pos - alice_pos
        alice_bore = alice_bore / np.linalg.norm(alice_bore)

    bob_bore = alice_pos - bob_pos
    bob_bore = bob_bore / np.linalg.norm(bob_bore)
    return {
        "alice": NodePlacement(alice_pos, alice_bore, config.alice),
        "bob": NodePlacement(bob_pos, bob_bore, config.bob),
    }


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
    mirror-symmetric about the transmitter axis.
    """
    if resolution_m <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution_m}")
    ex, ey = config.room_extent_m
    nx = int(math.floor(ex / resolution_m + 1e-9)) + 1
    ny = int(math.floor(ey / resolution_m + 1e-9)) + 1
    span_x = (nx - 1) * resolution_m
    span_y = (ny - 1) * resolution_m
    ys = np.arange(ny) * resolution_m - span_y / 2.0
    if config.variant == CELL:
        xs = np.arange(nx) * resolution_m - span_x / 2.0
    else:
        xs = np.arange(nx) * resolution_m
    return xs, ys


def eve_grid(config: ScenarioConfig, resolution_m: float) -> np.ndarray:
    """Eavesdropper evaluation positions at receiver height, row-major.

    Rows iterate over y, columns over x; shape (nx * ny, 3).  The
    eavesdropper's receive antenna is assumed perfectly aimed at the
    transmitter at every position (worst case).
    """
    xs, ys = grid_axes(config, resolution_m)
    gx, gy = np.meshgrid(xs, ys)
    z = np.full(gx.size, config.receiver_height_m)
    return np.column_stack([gx.ravel(), gy.ravel(), z])
