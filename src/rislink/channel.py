"""Link geometry, free-space path loss, and average-SNR budgets."""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SPEED_OF_LIGHT", "LinkGeometry", "LinkBudget", "pathloss_cascaded", "pathloss_direct", "budget", "relay_hop_budgets"
]

SPEED_OF_LIGHT = 299_792_458.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkGeometry:
    freq_hz: float
    gain_tx_dbi: float
    gain_rx_dbi: float
    d1_m: float  # source -> reflector array
    d2_m: float  # reflector array -> destination

    def __post_init__(self):
        if self.freq_hz <= 0 or self.d1_m <= 0 or self.d2_m <= 0:
            raise ValueError("frequency and distances must be positive")


@dataclass(frozen=True)
class LinkBudget:
    gamma0_ris: float  # linear average SNR scale, reflected branch
    gamma0_d: float  # linear average SNR scale, direct branch

    def __post_init__(self):
        if not (0 < self.gamma0_ris < math.inf and 0 < self.gamma0_d < math.inf):
            raise ValueError("SNR scales must be positive and finite")


def pathloss_cascaded(geom: LinkGeometry) -> float:
    """Amplitude path gain of the reflected (two-segment) path."""
    g = math.sqrt(db_to_linear(geom.gain_tx_dbi) * db_to_linear(geom.gain_rx_dbi))
    return g * SPEED_OF_LIGHT**2 / (16.0 * math.pi * geom.freq_hz**2 * geom.d1_m * geom.d2_m)


def _friis(gain: float, freq_hz: float, dist_m: float) -> float:
    """Free-space amplitude path gain of one segment with antenna amplitude gain ``gain``."""
    return gain * SPEED_OF_LIGHT / (4.0 * math.pi * freq_hz * dist_m)


def pathloss_direct(geom: LinkGeometry) -> float:
    """Amplitude path gain of the direct path (endpoint heights ignored)."""
    g = math.sqrt(db_to_linear(geom.gain_tx_dbi) * db_to_linear(geom.gain_rx_dbi))
    return _friis(g, geom.freq_hz, math.hypot(geom.d1_m, geom.d2_m))


def budget(geom: LinkGeometry, pt_dbm: float, noise_dbm: float = -74.0) -> LinkBudget:
    """Average SNR scales gamma0 = gain^2 * Pt / noise for both branches."""
    snr = dbm_to_watt(pt_dbm) / dbm_to_watt(noise_dbm)
    return LinkBudget(gamma0_ris=pathloss_cascaded(geom) ** 2 * snr, gamma0_d=pathloss_direct(geom) ** 2 * snr)


def relay_hop_budgets(geom: LinkGeometry, pt_dbm: float, noise_dbm: float) -> tuple[float, float]:
    """Average-SNR scales of the decode-and-forward relay's two hops.

    Each hop is a single Friis segment (d1 then d2); the relay re-transmits
    at full configured power, and array gains stay with their terminals.
    """
    snr = dbm_to_watt(pt_dbm) / dbm_to_watt(noise_dbm)
    h1 = _friis(math.sqrt(db_to_linear(geom.gain_tx_dbi)), geom.freq_hz, geom.d1_m)
    h2 = _friis(math.sqrt(db_to_linear(geom.gain_rx_dbi)), geom.freq_hz, geom.d2_m)
    return h1**2 * snr, h2**2 * snr
