"""Antenna gain model: gain-to-beamwidth relation, main-lobe pattern, cone radius.

The main lobe is modeled as a Gaussian roll-off around boresight whose full
half-power width follows the Kraus-type relation theta_3dB = sqrt(kappa / G).
Both the constant kappa and the beamwidth itself are configurable so measured
or published beamwidths can be pinned exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import GeometryError
from .linkmodel import db_to_ratio

KRAUS_BEAM_CONSTANT_DEG2 = 41253.0
"""Default kappa: square degrees in a sphere, the classic directivity approximation."""

# narrowest beamwidth for which the pattern exponent 4 (theta/theta_3dB)**2 is finite up to pi
MIN_BEAMWIDTH_RAD = 4.0 * math.pi / math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class Antenna:
    """Directional antenna described by boresight gain and main-lobe shape.

    Attributes
    ----------
    gain_dbi : float
        Boresight gain relative to an isotropic radiator.
    kappa_deg2 : float
        Constant of the gain-to-beamwidth relation theta_3dB = sqrt(kappa / G_lin),
        in squared degrees.
    min_relative_gain_db : float or None
        Optional sidelobe floor relative to boresight (e.g. -30.0).  None means
        pure Gaussian roll-off with no floor.
    beamwidth_override_deg : float or None
        When set, pins the full half-power beamwidth to this value and the
        kappa relation is ignored.
    """

    gain_dbi: float
    kappa_deg2: float = KRAUS_BEAM_CONSTANT_DEG2
    min_relative_gain_db: float | None = None
    beamwidth_override_deg: float | None = None

    def __post_init__(self) -> None:
        # each message starts with the field name; the config loader prefixes the section
        if self.gain_dbi < 0.0:
            raise ValueError(f"gain_dbi must be >= 0, got {self.gain_dbi}")
        if self.kappa_deg2 <= 0.0:
            raise ValueError(f"kappa_deg2 must be positive, got {self.kappa_deg2}")
        override = self.beamwidth_override_deg
        if override is not None and not 0.0 < override <= 180.0:
            raise ValueError(f"beamwidth_override_deg must lie in (0, 180], got {override}")
        width = beamwidth_from_gain(self)
        if math.radians(width) < MIN_BEAMWIDTH_RAD:
            key = "kappa_deg2" if override is None else "beamwidth_override_deg"
            raise ValueError(f"{key} gives a half-power beamwidth of {width:g} deg, "
                             "too narrow to evaluate the antenna pattern")

    @property
    def gain_linear(self) -> float:
        return db_to_ratio(self.gain_dbi)


def beamwidth_from_gain(antenna: Antenna) -> float:
    """Full half-power beamwidth in degrees.

    The override wins when present; otherwise sqrt(kappa / G_lin), clamped
    to at most 180 degrees.
    """
    if antenna.beamwidth_override_deg is not None:
        return antenna.beamwidth_override_deg
    return min(180.0, math.sqrt(antenna.kappa_deg2 / antenna.gain_linear))


def pattern_gain(antenna: Antenna, offset_angle_rad: float) -> float:
    """Effective linear gain at an angle off boresight.

    Gaussian main lobe G0 * 2**(-4 (theta/theta_3dB)**2), so the value at
    theta_3dB/2 is exactly half the boresight gain.  When a sidelobe floor
    is configured the relative gain never drops below it.
    """
    if not 0.0 <= offset_angle_rad <= math.pi + 1e-12:
        raise ValueError(f"offset angle must lie in [0, pi], got {offset_angle_rad}")
    theta3_rad = math.radians(beamwidth_from_gain(antenna))
    # floor far below any physical dynamic range so narrow beams cannot
    # underflow to an exact zero gain
    rel = max(2.0 ** (-4.0 * (offset_angle_rad / theta3_rad) ** 2), 1e-300)
    if antenna.min_relative_gain_db is not None:
        rel = max(rel, db_to_ratio(antenna.min_relative_gain_db))
    return antenna.gain_linear * rel


def cone_radius(antenna: Antenna, height_difference_m: float) -> float:
    """Radius of the half-power cone footprint on a plane below the antenna.

    For a downward-pointing antenna a height difference h away from the
    receiver plane, the 3 dB cone meets that plane in a circle of radius
    h * tan(theta_3dB / 2).
    """
    if height_difference_m <= 0.0:
        raise ValueError(f"height difference must be positive, got {height_difference_m}")
    theta3_deg = beamwidth_from_gain(antenna)
    if theta3_deg >= 180.0:
        raise GeometryError(
            f"half-power beamwidth {theta3_deg:.1f} deg >= 180 deg: cone does not intersect the floor"
        )
    return height_difference_m * math.tan(math.radians(theta3_deg) / 2.0)
