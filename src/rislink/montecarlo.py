"""Monte-Carlo estimation of outage and BER by direct channel simulation.

This module is the independent verification route: it never touches the
contour-integral evaluator. Work is split into fixed-size units, each
with its own seed derived from (master_seed, unit index), so estimates
are bit-reproducible. Units run side by side on the available CPUs and
their sums are combined in unit order, so estimates do not depend on the
number of CPUs. A transmit-power sweep draws each unit's channel gains
once and scales them to every power, so all powers of one sweep share
those draws: each estimate equals that of a one-power run, and their
Monte-Carlo errors are correlated across the sweep.
"""
from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import SCENARIOS, SystemConfig
from .dgg import dgg_sample
from .special import erfc

__all__ = [
    "UNIT_TRIALS",
    "SimPlan",
    "McEstimate",
    "McTally",
    "DegenerateEstimate",
    "simulate_snr",
    "tally",
    "tally_sweep",
    "estimate_outage",
    "estimate_ber",
]

# Trials per seeding unit. Estimates depend only on (plan, master_seed),
# because every unit owns a dedicated stream.
UNIT_TRIALS = 100_000
# config's join of a scenario's summands -> the ufunc that applies it in place
_JOINS = {"sum": np.add, "min": np.minimum}


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
    """Draw n end-to-end SNR realizations for the plan's scenario."""
    gains = _draw_gains(plan, rng, n)
    return _snr(gains, *_scales(plan), out=gains)


def _draw_gains(plan: SimPlan, rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Unscaled power gains of n trials, one buffer per summand of the plan's scenario: its blocks'
    amplitudes drawn in config's order and summed in the first draw's buffer, then squared in place
    (squaring does not depend on the transmit power)."""
    summands, _ = plan.config.summands(plan.scenario, plan.pt_dbm)
    gains = []
    for blocks, _ in summands:
        x = dgg_sample(blocks[0], rng, n)
        for block in blocks[1:]:
            x += dgg_sample(block, rng, n)
        x **= 2
        gains.append(x)
    return gains


def _scales(plan: SimPlan) -> tuple[tuple[float, ...], np.ufunc]:
    """The average-SNR scale of each summand _draw_gains draws, at the plan's power,
    and the ufunc that joins the scaled summands."""
    summands, join = plan.config.summands(plan.scenario, plan.pt_dbm)
    return tuple(scale for _, scale in summands), _JOINS[join]


def _snr(gains: list[np.ndarray], scales: tuple[float, ...], join: np.ufunc, out: list[np.ndarray]) -> np.ndarray:
    """join over the summands of scale * gain, computed in the buffers of out (gains itself, or
    spare buffers that leave gains for another power). Each step is the written-out formula's
    operation on the same operands, so the values are bit-identical to it."""
    snr, *rest = [np.multiply(g, s, out=o) for g, s, o in zip(gains, scales, out)]
    for part in rest:
        join(snr, part, out=snr)
    return snr


def _cpu_count() -> int:
    """CPUs this process may run on: the number of units simulated at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _unit_sums(
    plan: SimPlan, scalings, unit: int, n: int, gamma_th: float | None, mod
) -> list[tuple[int, float, float]]:
    """_snr_sums of one seeding unit of the plan at each power's (scales, join) in scalings.

    The unit's stream depends only on (master_seed, unit), and its gains
    are drawn once for every power. The last power computes its SNR in the
    gain buffers, the others in one spare buffer per summand.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.master_seed, spawn_key=(unit,)))
    gains = _draw_gains(plan, rng, n)
    spare = [np.empty(n) for _ in gains] if len(scalings) > 1 else None
    last = len(scalings) - 1
    return [
        _snr_sums(_snr(gains, *scaling, out=gains if i == last else spare), gamma_th, mod)
        for i, scaling in enumerate(scalings)
    ]


def _snr_sums(snr: np.ndarray, gamma_th: float | None, mod) -> tuple[int, float, float]:
    """(failures, error sum, squared-error sum) of the SNR samples.

    Failures are counted only when gamma_th is given, the conditional
    error a*Q(sqrt(2*b*snr)) is summed only when mod is; the error is
    computed in the SNR buffer.
    """
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


def tally_sweep(plans: Iterable[SimPlan], gamma_th: float | None = None, mod=None) -> tuple[McTally, ...]:
    """Simulate a sweep once for its outage counts at gamma_th and/or its BER sums, one tally per plan.

    The plans may differ only in pt_dbm. Each seeding unit draws its gains
    once and evaluates every power from them, so the tallies equal those
    of one pass per plan, bit for bit, and their Monte-Carlo errors are
    correlated. Units run on one thread pool of a worker per available
    CPU (at most one per unit); the sums are combined in unit order, so
    the result does not depend on the worker count. A threshold of 0 or
    infinity needs no samples, so an outage-only pass at one draws none;
    an empty sweep returns () and starts no pool.
    """
    plans = tuple(plans)
    if any(replace(p, pt_dbm=plans[0].pt_dbm) != plans[0] for p in plans):
        raise ValueError("the plans of one sweep may differ only in pt_dbm")
    if gamma_th is not None and not gamma_th >= 0:
        raise ValueError(f"gamma_th must be nonnegative, got {gamma_th}")
    if not plans:
        return ()
    n_trials = plans[0].n_trials
    count_th = gamma_th if gamma_th is not None and 0 < gamma_th < math.inf else None
    if count_th is None and mod is None:
        return (McTally(n_trials, gamma_th, 0, 0.0, 0.0, has_ber=False),) * len(plans)
    full, rem = divmod(n_trials, UNIT_TRIALS)
    sizes = [UNIT_TRIALS] * full + ([rem] if rem else [])
    scalings = [_scales(p) for p in plans]

    def run(unit: int) -> list[tuple[int, float, float]]:
        return _unit_sums(plans[0], scalings, unit, sizes[unit], count_th, mod)

    with ThreadPoolExecutor(max_workers=min(_cpu_count(), len(sizes))) as pool:
        units = list(pool.map(run, range(len(sizes))))
    return tuple(
        McTally(
            n=n_trials,
            gamma_th=gamma_th,
            failures=sum(f for f, _, _ in parts),
            err_sum=math.fsum(s for _, s, _ in parts),
            err_sq_sum=math.fsum(q for _, _, q in parts),
            has_ber=mod is not None,
        )
        for parts in zip(*units)
    )


def tally(plan: SimPlan, gamma_th: float | None = None, mod=None) -> McTally:
    """Simulate the plan once for its outage count at gamma_th and/or its BER sums:
    the sweep of one power."""
    return tally_sweep((plan,), gamma_th, mod)[0]


def estimate_outage(plan: SimPlan, gamma_th: float) -> McEstimate:
    """Empirical P(snr <= gamma_th) with binomial standard error."""
    return tally(plan, gamma_th=gamma_th).outage()


def estimate_ber(plan: SimPlan, mod) -> McEstimate:
    """Empirical mean of the conditional error a*Q(sqrt(2*b*snr))."""
    return tally(plan, mod=mod).ber()
