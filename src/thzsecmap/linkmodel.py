"""Free-space link budget: path loss, thermal noise, SNR, and channel capacity.

All internal quantities are SI (watts, meters, hertz, kelvin) and information
is carried in both bits and nats on the resulting link state.  Decibel values
appear only at the conversion helpers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

SPEED_OF_LIGHT_M_S = 299792458.0
"""Speed of light in vacuum (CODATA, exact)."""

BOLTZMANN_J_K = 1.380649e-23
"""Boltzmann constant (CODATA, exact)."""

LN2 = math.log(2.0)


def db_to_ratio(db: float) -> float:
    """Convert a decibel power value to a linear ratio (ValueError past about 3082.5 dB)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db:g} dB overflows a linear ratio") from None


def ratio_to_db(ratio: float) -> float:
    """Convert a linear power ratio to decibels."""
    if ratio <= 0.0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return 10.0 * math.log10(ratio)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"power must be positive, got {watts}")
    return 10.0 * math.log10(watts) + 30.0


class Record(tuple):
    """Base of the package's records: immutable named tuples, checked when built.

    A record's ``__new__`` checks its fields and builds with ``tuple.__new__``;
    ``_make``, and so ``_replace``, builds through that constructor, so every
    way of building one runs the same checks.  Records compare and hash as
    tuples.  A record with a ``cached_property`` declares no ``__slots__``:
    the property caches its value in the instance's ``__dict__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RadioEnvironment(Record, namedtuple("RadioEnvironment", "carrier_frequency_hz "
                                          "bandwidth_hz temperature_k noise_figure_db")):
    """Carrier, bandwidth, temperature, and receiver noise figure.

    Together with the Boltzmann constant these determine the thermal noise
    floor shared by every receiver in a scenario, ``noise_power_w``: computed
    once per instance, so a ``_replace`` copy computes its own.
    """

    def __new__(cls, carrier_frequency_hz: float, bandwidth_hz: float, temperature_k: float,
                noise_figure_db: float) -> RadioEnvironment:
        if carrier_frequency_hz <= 0.0:
            raise ValueError(f"carrier frequency must be positive, got {carrier_frequency_hz}")
        if bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
        if temperature_k <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature_k}")
        if noise_figure_db < 0.0:
            raise ValueError(f"noise figure must be >= 0 dB, got {noise_figure_db}")
        self = tuple.__new__(cls, (carrier_frequency_hz, bandwidth_hz, temperature_k,
                                   noise_figure_db))
        if self.noise_power_w == 0.0:
            raise ValueError("noise power k*T*B*F underflows to 0 W")
        return self

    @cached_property
    def noise_power_w(self) -> float:
        """Thermal noise power k*T*B scaled by the linear noise factor, in watts."""
        return (BOLTZMANN_J_K * self.temperature_k * self.bandwidth_hz
                * db_to_ratio(self.noise_figure_db))


class LinkState(Record, namedtuple("LinkState", "received_power_w noise_power_w snr "
                                                "capacity_bits capacity_nats rho")):
    """Resolved quantities of one line-of-sight link, an immutable named tuple.

    Every way of building one checks the noise power, the SNR and rho,
    ``_replace`` included.

    Attributes
    ----------
    received_power_w, noise_power_w : float
        Signal and noise powers at the receiver front end.
    snr : float
        received_power_w / noise_power_w.
    capacity_bits, capacity_nats : float
        Gaussian channel capacity log(1 + snr) per channel use.
    rho : float
        Input-output correlation coefficient of the Gaussian-input AWGN
        channel, sqrt(snr / (1 + snr)).
    """

    __slots__ = ()

    def __new__(cls, received_power_w: float, noise_power_w: float, snr: float,
                capacity_bits: float, capacity_nats: float, rho: float) -> LinkState:
        if noise_power_w <= 0.0:
            raise ValueError(f"noise power must be positive, got {noise_power_w}")
        if snr < 0.0:
            raise ValueError(f"snr must be >= 0, got {snr}")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {rho}")
        return tuple.__new__(cls, (received_power_w, noise_power_w, snr, capacity_bits,
                                   capacity_nats, rho))


def fspl_gain(carrier_frequency_hz: float, distance_m: float) -> float:
    """Free-space path gain (Friis), a dimensionless power ratio < 1.

    Strictly decreasing in both frequency and distance; doubling the
    distance quarters the result.
    """
    if carrier_frequency_hz <= 0.0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_frequency_hz}")
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    amp = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * carrier_frequency_hz * distance_m)
    return amp * amp


def _link_from_powers(received_w: float, noise_w: float) -> LinkState:
    snr = received_w / noise_w
    rho = math.sqrt(snr / (1.0 + snr))
    if rho >= 1.0:  # only reachable at absurd SNR where 1/(1+snr) underflows
        rho = math.nextafter(1.0, 0.0)
    capacity_nats = math.log1p(snr)
    return LinkState(received_w, noise_w, snr, capacity_nats / LN2, capacity_nats, rho)


def link_budget(
    tx_power_w: float,
    g_tx_effective: float,
    g_rx_effective: float,
    distance_m: float,
    env: RadioEnvironment,
) -> LinkState:
    """Resolve a line-of-sight link from transmit power, gains and distance.

    Parameters
    ----------
    tx_power_w : float
        Average transmit power in watts.
    g_tx_effective, g_rx_effective : float
        Effective linear antenna gains along the path (boresight gain times
        any pattern roll-off already applied by the caller).
    distance_m : float
        Path length in meters.
    env : RadioEnvironment
        Determines carrier frequency and the noise floor.

    Returns
    -------
    LinkState
    """
    if tx_power_w <= 0.0:
        raise ValueError(f"transmit power must be positive, got {tx_power_w}")
    if g_tx_effective <= 0.0 or g_rx_effective <= 0.0:
        raise ValueError("antenna gains must be positive ratios")
    received = tx_power_w * g_tx_effective * g_rx_effective * fspl_gain(env.carrier_frequency_hz, distance_m)
    if received == math.inf:  # its SNR would be inf, and rho = sqrt(inf / inf) NaN
        raise ValueError(f"received power overflows to inf W at {distance_m} m")
    return _link_from_powers(received, env.noise_power_w)


def link_from_snr(snr: float) -> LinkState:
    """Build a LinkState directly from an SNR.

    Convenience constructor for bound evaluations that are functions of the
    SNR alone.
    """
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    return _link_from_powers(snr, 1.0)


def link_from_capacity_bits(capacity_bits: float) -> LinkState:
    """Build a LinkState whose capacity equals the given value in bits."""
    if capacity_bits < 0.0:
        raise ValueError(f"capacity must be >= 0, got {capacity_bits}")
    return link_from_snr(math.expm1(capacity_bits * LN2))
