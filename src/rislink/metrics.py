"""Outage probability, average BER, and diversity order of any branch set.

Each quantity has one entry point, taking a ``CombinedSnrStat`` (or, for
diversity, a ``RisEnsemble``) whose ensemble is any branch set: the
combined link, the reflected branch alone, or the direct link alone.
Exact quantities evaluate the multivariate contour integrals of
``exact_stats``. The high-SNR outage asymptote is the residue of that
same CDF integral at its poles nearest the contour
(``foxh.leading_residue``): a power law in gamma_th / gamma_0, with
logarithmic corrections where poles coincide.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .dgg import gg_factors
from .exact_stats import CombinedSnrStat, RisEnsemble, snr_functional, snr_spec
from .foxh import QuadratureConfig, leading_residue

__all__ = [
    "ModulationParams",
    "DiversityReport",
    "outage_exact",
    "outage_asymptotic",
    "ber_exact",
    "diversity",
]


@dataclass(frozen=True)
class ModulationParams:
    """Conditional error probability a*Q(sqrt(2*b*snr))."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("modulation parameters a, b must be positive")


@dataclass(frozen=True)
class DiversityReport:
    g_out: float
    g_ber: float
    per_element_minima: tuple[float, ...]
    direct_min: float | None


def outage_exact(stat: CombinedSnrStat, gamma_th: float, quad: QuadratureConfig = QuadratureConfig()) -> float:
    """P(SNR <= gamma_th) of the stat's branch set, exact."""
    ens = stat.ensemble
    outage = snr_functional(ens.elements, ens.direct, stat.budget, "cdf", gamma_th, quad)
    if not 0.0 < outage <= 1.0:
        raise RuntimeError(f"outage {outage} outside (0, 1]; evaluation unreliable")
    return outage


def ber_exact(stat: CombinedSnrStat, mod: ModulationParams, quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Average bit error rate of the stat's branch set under conditional error a*Q(sqrt(2*b*snr)).

    Integrating the conditional error against the SNR density by parts
    leaves a Gamma-weighted Mellin transform of the CDF, which folds into
    the CDF's own contour integral as one extra Gamma factor and a
    rescaling of the SNR arguments by b. Q is at most 1/2 at SNR >= 0, so
    a value outside (0, a/2] is refused.
    """
    ens = stat.ensemble
    ber = mod.a * snr_functional(ens.elements, ens.direct, stat.budget, "ber", 1.0 / mod.b, quad)
    if not 0.0 < ber <= 0.5 * mod.a:
        raise RuntimeError(f"average BER {ber} outside (0, a/2 = {0.5 * mod.a:g}]; evaluation unreliable")
    return ber


# ---------------------------------------------------------------------------
# high-SNR asymptote by residues


def outage_asymptotic(stat: CombinedSnrStat, gamma_th: float) -> float:
    """High-SNR P(SNR <= gamma_th) of the stat's branch set: the leading residue of its exact CDF integral,
    in log scale, so that a value below the double range is refused as such rather than read as 0."""
    ens = stat.ensemble
    logc, spec = snr_spec(ens.elements, ens.direct, stat.budget, "cdf", gamma_th)
    log_abs, sign = leading_residue(spec)
    log10 = (logc + log_abs) / math.log(10.0)
    shown = f"{math.copysign(10.0 ** (log10 % 1.0), sign):.4g}e{math.floor(log10):+d}"
    if log10 < math.log10(sys.float_info.min):  # first: at large N the series' sign is rounding noise
        raise RuntimeError(f"asymptotic outage {shown} is below the double range")
    if sign < 0 or log10 > 0.0:
        raise RuntimeError(f"asymptotic outage {shown} outside (0, 1]; power too low for the asymptote")
    return math.exp(logc + log_abs)


def diversity(ensemble: RisEnsemble) -> DiversityReport:
    """Outage and BER diversity orders of a branch set, from each branch's smallest
    shape product alpha*beta; ``direct_min`` is None without a direct link."""
    factors = [gg_factors(b) for b in (*ensemble.elements, ensemble.direct) if b is not None]
    minima = [min(alpha * beta for alpha, beta, _ in f) / 2.0 for f in factors]
    ber_minima = [min(alpha * beta - 1.0 for alpha, beta, _ in f) / 2.0 for f in factors]
    return DiversityReport(
        g_out=sum(minima),
        g_ber=sum(ber_minima),
        per_element_minima=tuple(minima[: len(ensemble.elements)]),
        direct_min=minima[-1] if ensemble.direct is not None else None,
    )
