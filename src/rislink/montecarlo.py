"""Monte-Carlo estimation of outage and BER by direct channel simulation.

This module is the independent verification route: it never touches the
contour-integral evaluator. Work is split into fixed-size units, each
with its own seed derived from (master_seed, unit index), so estimates
are bit-reproducible. Units run side by side on the available CPUs and
their sums are combined in unit order, so estimates do not depend on the
number of CPUs.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .channel import budget, relay_hop_budgets
from .config import SCENARIOS, SystemConfig
from .dgg import cascade_sample, dgg_sample

__all__ = [
    "UNIT_TRIALS",
    "SimPlan",
    "McEstimate",
    "McTally",
    "DegenerateEstimate",
    "simulate_snr",
    "tally",
    "estimate_outage",
    "estimate_ber",
]

# Trials per seeding unit. Estimates depend only on (plan, master_seed),
# because every unit owns a dedicated stream.
UNIT_TRIALS = 100_000


class DegenerateEstimate(RuntimeError):
    """No event in the trials: no outage, or a conditional bit error that
    underflows to 0 in every trial. Carries the one-sided rule-of-three
    bound on the rate of such events."""

    def __init__(self, n: int, quantity: str = "outage"):
        self.n = n
        self.upper_bound = 3.0 / n
        if quantity == "outage":
            message = f"no failures in {n} trials; outage < {self.upper_bound:.3e} (95% one-sided)"
        else:
            message = f"conditional error is 0 in all {n} trials; {quantity} too small to estimate"
        super().__init__(message)


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


def simulate_snr(plan: SimPlan, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n end-to-end SNR realizations for the plan's scenario.

    Element amplitudes are drawn first, then the direct one. Each in-place
    step is the written-out formula's operation on the same operands, so
    the values are bit-identical to it.
    """
    config = plan.config
    branches = config.branches(plan.scenario)
    if branches is None:  # the decode-and-forward relay
        g1, g2 = relay_hop_budgets(config.geometry, plan.pt_dbm, config.noise_dbm)
        hops = config.elements[0]
        snr1 = _scaled_square(g1, dgg_sample(hops.hop1, rng, n))
        snr2 = _scaled_square(g2, dgg_sample(hops.hop2, rng, n))
        return np.minimum(snr1, snr2, out=snr1)
    elements, direct = branches
    bud = budget(config.geometry, plan.pt_dbm, config.noise_dbm)
    snr = None
    if elements:
        snr = np.zeros(n)
        for cascade in elements:
            snr += cascade_sample(cascade, rng, n)
        _scaled_square(bud.gamma0_ris, snr)
    if direct is not None:
        snr_d = _scaled_square(bud.gamma0_d, dgg_sample(direct, rng, n))
        snr = snr_d if snr is None else np.add(snr, snr_d, out=snr)
    return snr


def _scaled_square(scale: float, x: np.ndarray) -> np.ndarray:
    """scale * x**2, computed in x."""
    x **= 2
    x *= scale
    return x


def _cpu_count() -> int:
    """CPUs this process may run on: the number of units simulated at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _unit_tally(plan: SimPlan, unit: int, n: int, gamma_th: float | None, mod) -> tuple[int, float, float]:
    """(failures, error sum, squared-error sum) of one seeding unit.

    The unit's stream depends only on (master_seed, unit). Failures are
    counted only when gamma_th is given, the conditional error
    a*Q(sqrt(2*b*snr)) is summed only when mod is; the error is computed
    in the SNR buffer.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.master_seed, spawn_key=(unit,)))
    snr = simulate_snr(plan, rng, n)
    failures = 0
    if gamma_th is not None:
        failures = int(np.count_nonzero(snr <= gamma_th))
    if mod is None:
        return failures, 0.0, 0.0
    err = snr
    err *= mod.b
    np.sqrt(err, out=err)
    erfc(err, out=err)
    err *= mod.a * 0.5
    err_sum = float(err.sum())
    np.square(err, out=err)
    return failures, err_sum, float(err.sum())


@dataclass(frozen=True)
class McTally:
    """Sums of one simulation pass over every seeding unit of a plan.

    ``outage()`` and ``ber()`` turn them into estimates; each needs the
    threshold or the modulation the pass was run with.
    """

    n: int
    gamma_th: float | None
    failures: int
    err_sum: float
    err_sq_sum: float
    has_ber: bool

    def outage(self) -> McEstimate:
        """Empirical P(snr <= gamma_th) with binomial standard error."""
        if self.gamma_th is None:
            raise ValueError("tally was run without an outage threshold")
        n = self.n
        if self.gamma_th == 0:
            return McEstimate(mean=0.0, std_error=0.0, n=n)
        if math.isinf(self.gamma_th):
            return McEstimate(mean=1.0, std_error=0.0, n=n)
        if self.failures == 0:
            raise DegenerateEstimate(n)
        p = self.failures / n
        return McEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n), n=n)

    def ber(self) -> McEstimate:
        """Empirical mean of the conditional error a*Q(sqrt(2*b*snr)).

        A sum of 0, where every trial's error underflowed, is no estimate:
        it raises DegenerateEstimate, as an outage with no failures does.
        """
        if not self.has_ber:
            raise ValueError("tally was run without modulation parameters")
        n = self.n
        if self.err_sum == 0:
            raise DegenerateEstimate(n, "BER")
        mean = self.err_sum / n
        var = max(self.err_sq_sum / n - mean**2, 0.0)
        return McEstimate(mean=mean, std_error=math.sqrt(var / n), n=n)


def tally(plan: SimPlan, gamma_th: float | None = None, mod=None) -> McTally:
    """Simulate the plan once for its outage count at gamma_th and/or its BER sums.

    Units run on a thread pool of one worker per available CPU (at most
    one per unit); the sums are combined in unit order, so the result does
    not depend on the worker count. A threshold of 0 or infinity needs no
    samples, so an outage-only pass at one draws none.
    """
    if gamma_th is not None and not gamma_th >= 0:
        raise ValueError(f"gamma_th must be nonnegative, got {gamma_th}")
    count_th = gamma_th if gamma_th is not None and 0 < gamma_th < math.inf else None
    if count_th is None and mod is None:
        return McTally(plan.n_trials, gamma_th, 0, 0.0, 0.0, has_ber=False)
    full, rem = divmod(plan.n_trials, UNIT_TRIALS)
    sizes = [UNIT_TRIALS] * full + ([rem] if rem else [])

    def run(unit: int) -> tuple[int, float, float]:
        return _unit_tally(plan, unit, sizes[unit], count_th, mod)

    workers = min(_cpu_count(), len(sizes))
    if workers == 1:
        parts = [run(unit) for unit in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    return McTally(
        n=plan.n_trials,
        gamma_th=gamma_th,
        failures=sum(f for f, _, _ in parts),
        err_sum=math.fsum(s for _, s, _ in parts),
        err_sq_sum=math.fsum(q for _, _, q in parts),
        has_ber=mod is not None,
    )


def estimate_outage(plan: SimPlan, gamma_th: float) -> McEstimate:
    """Empirical P(snr <= gamma_th) with binomial standard error."""
    return tally(plan, gamma_th=gamma_th).outage()


def estimate_ber(plan: SimPlan, mod) -> McEstimate:
    """Empirical mean of the conditional error a*Q(sqrt(2*b*snr))."""
    return tally(plan, mod=mod).ber()
