"""Antenna gain model: gain-to-beamwidth relation, main-lobe pattern, cone radius.

The main lobe is modeled as a Gaussian roll-off around boresight.  Its full
half-power width follows the Kraus relation theta_3dB = sqrt(41253 / G), or
is pinned, so that a measured or published beamwidth is reproduced exactly.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import cached_property

from .errors import GeometryError
from .linkmodel import Record, db_to_ratio

KRAUS_BEAM_CONSTANT_DEG2 = 41253.0
"""Kappa: square degrees in a sphere, the classic directivity approximation."""

# narrowest beamwidth for which the pattern exponent 4 (theta/theta_3dB)**2 is finite up to pi
MIN_BEAMWIDTH_RAD = 4.0 * math.pi / math.sqrt(sys.float_info.max)


class Antenna(Record, namedtuple("Antenna", "gain_dbi min_relative_gain_db "
                                  "beamwidth_override_deg")):
    """Directional antenna described by boresight gain and main-lobe shape.

    Attributes
    ----------
    gain_dbi : float
        Boresight gain relative to an isotropic radiator.
    min_relative_gain_db : float or None
        Optional sidelobe floor relative to boresight (e.g. -30.0), at most
        the half-power level, a relative gain of 1/2.  None means pure
        Gaussian roll-off with no floor.
    beamwidth_override_deg : float or None
        When set, pins the full half-power beamwidth to this value instead
        of the Kraus relation.

    ``gain_linear``, ``beamwidth_rad`` and ``relative_gain_floor`` are
    computed from these fields once per instance, on first use, so a
    ``_replace`` copy computes its own.
    """

    def __new__(cls, gain_dbi: float, min_relative_gain_db: float | None = None,
                beamwidth_override_deg: float | None = None) -> Antenna:
        # each message starts with the field name, which the config loader turns into the
        # key's path; the negated forms also reject NaN
        if not 0.0 <= gain_dbi < math.inf:
            raise ValueError(f"gain_dbi must be >= 0 and finite, got {gain_dbi}")
        try:
            db_to_ratio(gain_dbi)  # a pinned beamwidth never reads the gain
        except ValueError as exc:
            raise ValueError(f"gain_dbi: {exc}") from None
        floor = min_relative_gain_db
        # the cone edge has half the boresight gain
        if floor is not None and not (-math.inf < floor <= 0.0 and db_to_ratio(floor) <= 0.5):
            raise ValueError("min_relative_gain_db must be finite and at most the half-power "
                             f"level (a ratio of 1/2, about -3.0103 dB), got {floor}")
        override = beamwidth_override_deg
        if override is not None and not 0.0 < override <= 180.0:
            raise ValueError(f"beamwidth_override_deg must lie in (0, 180], got {override}")
        self = tuple.__new__(cls, (gain_dbi, min_relative_gain_db, beamwidth_override_deg))
        width = beamwidth_from_gain(self)
        if math.radians(width) < MIN_BEAMWIDTH_RAD:
            key = "gain_dbi" if override is None else "beamwidth_override_deg"
            raise ValueError(f"{key} gives a half-power beamwidth of {width:g} deg, "
                             "too narrow to evaluate the antenna pattern")
        return self

    @cached_property
    def gain_linear(self) -> float:
        return db_to_ratio(self.gain_dbi)

    @cached_property
    def beamwidth_rad(self) -> float:
        """Full half-power beamwidth in radians (``beamwidth_from_gain``)."""
        return math.radians(beamwidth_from_gain(self))

    @cached_property
    def relative_gain_floor(self) -> float:
        """Smallest relative gain of the pattern: the sidelobe floor, when set."""
        # far below any physical dynamic range, so that narrow beams cannot
        # underflow to an exact zero gain
        floor = 1e-300
        if self.min_relative_gain_db is not None:
            floor = max(floor, db_to_ratio(self.min_relative_gain_db))
        return floor


def beamwidth_from_gain(antenna: Antenna) -> float:
    """Full half-power beamwidth in degrees.

    The override wins when present; otherwise the Kraus relation
    sqrt(KRAUS_BEAM_CONSTANT_DEG2 / G_lin), clamped to at most 180 degrees.
    """
    if antenna.beamwidth_override_deg is not None:
        return antenna.beamwidth_override_deg
    return min(180.0, math.sqrt(KRAUS_BEAM_CONSTANT_DEG2 / antenna.gain_linear))


def pattern_gain(antenna: Antenna, offset_angle_rad: float) -> float:
    """Effective linear gain at an angle off boresight.

    Gaussian main lobe G0 * 2**(-4 (theta/theta_3dB)**2), so the value at
    theta_3dB/2 is exactly half the boresight gain.  When a sidelobe floor
    is configured the relative gain never drops below it.
    """
    if not 0.0 <= offset_angle_rad <= math.pi + 1e-12:
        raise ValueError(f"offset angle must lie in [0, pi], got {offset_angle_rad}")
    rel = max(2.0 ** (-4.0 * (offset_angle_rad / antenna.beamwidth_rad) ** 2),
              antenna.relative_gain_floor)
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
