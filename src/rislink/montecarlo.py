"""Monte-Carlo estimation of outage and BER by direct channel simulation.

This module is the independent verification route: it never touches the
contour-integral evaluator. Work is split into fixed-size units, each
with its own seed derived from (master_seed, unit index), so estimates
are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc

from .channel import SPEED_OF_LIGHT, budget, db_to_linear, dbm_to_watt
from .config import SystemConfig
from .dgg import cascade_sample, dgg_sample

__all__ = [
    "SCENARIOS",
    "UNIT_TRIALS",
    "SimPlan",
    "McEstimate",
    "DegenerateEstimate",
    "simulate_snr",
    "estimate_outage",
    "estimate_ber",
    "baseline_df_relay",
]

SCENARIOS = ("combined", "ris_only", "dt_only", "df_relay")

# Trials per seeding unit. Estimates depend only on (plan, master_seed),
# because every unit owns a dedicated stream.
UNIT_TRIALS = 100_000


class DegenerateEstimate(RuntimeError):
    """Zero failures observed; carries the one-sided rule-of-three bound."""

    def __init__(self, n: int):
        self.n = n
        self.upper_bound = 3.0 / n
        super().__init__(
            f"no failures in {n} trials; outage < {self.upper_bound:.3e} (95% one-sided)"
        )


@dataclass(frozen=True)
class SimPlan:
    config: SystemConfig
    pt_dbm: float
    n_trials: int = 1_000_000
    master_seed: int = 0
    scenario: str = "combined"

    def __post_init__(self):
        if self.n_trials < 10_000:
            raise ValueError(f"n_trials must be >= 10000, got {self.n_trials}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got '{self.scenario}'")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


def _df_hop_budgets(config: SystemConfig, pt_dbm: float) -> tuple[float, float]:
    """Per-hop average-SNR scales for the relay baseline.

    Each hop is a single Friis segment (d1 then d2); the relay re-transmits
    at full configured power, and array gains stay with their terminals.
    """
    g = config.geometry
    snr = dbm_to_watt(pt_dbm) / dbm_to_watt(config.noise_dbm)
    h1 = math.sqrt(db_to_linear(g.gain_tx_dbi)) * SPEED_OF_LIGHT / (4.0 * math.pi * g.freq_hz * g.d1_m)
    h2 = math.sqrt(db_to_linear(g.gain_rx_dbi)) * SPEED_OF_LIGHT / (4.0 * math.pi * g.freq_hz * g.d2_m)
    return h1**2 * snr, h2**2 * snr


def simulate_snr(plan: SimPlan, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n end-to-end SNR realizations for the plan's scenario."""
    config = plan.config
    bud = budget(config.geometry, plan.pt_dbm, config.noise_dbm)
    if plan.scenario == "dt_only":
        return bud.gamma0_d * dgg_sample(config.direct, rng, n) ** 2
    if plan.scenario == "df_relay":
        g1, g2 = _df_hop_budgets(config, plan.pt_dbm)
        hops = config.elements[0]
        snr1 = g1 * dgg_sample(hops.hop1, rng, n) ** 2
        snr2 = g2 * dgg_sample(hops.hop2, rng, n) ** 2
        return np.minimum(snr1, snr2)
    h_ris = np.zeros(n)
    for cascade in config.elements:
        h_ris += cascade_sample(cascade, rng, n)
    snr = bud.gamma0_ris * h_ris**2
    if plan.scenario == "combined":
        snr = snr + bud.gamma0_d * dgg_sample(config.direct, rng, n) ** 2
    return snr


def _unit_streams(plan: SimPlan):
    """Yield (rng, n) per unit; seeds depend only on (master_seed, index)."""
    full, rem = divmod(plan.n_trials, UNIT_TRIALS)
    for unit in range(full + (1 if rem else 0)):
        n = UNIT_TRIALS if unit < full else rem
        rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.master_seed, spawn_key=(unit,)))
        yield rng, n


def estimate_outage(plan: SimPlan, gamma_th: float) -> McEstimate:
    """Empirical P(snr <= gamma_th) with binomial standard error."""
    if gamma_th < 0:
        raise ValueError("gamma_th must be nonnegative")
    if gamma_th == 0:
        return McEstimate(mean=0.0, std_error=0.0, n=plan.n_trials)
    if math.isinf(gamma_th):
        return McEstimate(mean=1.0, std_error=0.0, n=plan.n_trials)
    failures = 0
    for rng, n in _unit_streams(plan):
        failures += int(np.count_nonzero(simulate_snr(plan, rng, n) <= gamma_th))
    n = plan.n_trials
    if failures == 0:
        raise DegenerateEstimate(n)
    p = failures / n
    return McEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n), n=n)


def estimate_ber(plan: SimPlan, mod) -> McEstimate:
    """Empirical mean of the conditional error a*Q(sqrt(2*b*snr))."""
    total = []
    total_sq = []
    for rng, n in _unit_streams(plan):
        err = mod.a * 0.5 * erfc(np.sqrt(mod.b * simulate_snr(plan, rng, n)))
        total.append(float(err.sum()))
        total_sq.append(float(np.square(err).sum()))
    n = plan.n_trials
    mean = math.fsum(total) / n
    var = max(math.fsum(total_sq) / n - mean**2, 0.0)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), n=n)


def baseline_df_relay(plan: SimPlan, gamma_th: float, mod) -> tuple[McEstimate, McEstimate]:
    """(outage, BER) of the decode-and-forward relay comparator."""
    df_plan = replace(plan, scenario="df_relay")
    return estimate_outage(df_plan, gamma_th), estimate_ber(df_plan, mod)
