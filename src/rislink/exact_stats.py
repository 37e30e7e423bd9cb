"""Exact distribution of the combined SNR via multivariate contour integrals.

The reflected branch contributes one contour variable per distinct element
law, counting the elements that share it, and the direct branch one more.
All specs below share the same per-variable Gamma structure; they differ
only in arguments, prefactors, and the joint factors that couple them.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .channel import LinkBudget
from .dgg import CascadeParams, DggParams, mellin_layout
from .foxh import FoxHSpec, GammaTerm, QuadratureConfig, eval_foxh

__all__ = [
    "RisEnsemble",
    "CombinedSnrStat",
    "combined_snr_stat",
    "hris_pdf",
    "hris_cdf",
    "snr_spec",
    "snr_functional",
    "gamma_pdf",
    "gamma_cdf",
    "mgf_gamma_ris",
    "mgf_gamma_d",
]

@dataclass(frozen=True)
class RisEnsemble:
    """A branch set: per-element cascade fading and the direct-link fading.

    Empty ``elements`` is the direct link alone and ``direct=None`` the
    reflected branch alone; a set needs at least one of the two."""

    elements: tuple[CascadeParams, ...]
    direct: DggParams | None

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements and self.direct is None:
            raise ValueError("ensemble needs a reflecting element or a direct link")

    @classmethod
    def identical(cls, n: int, cascade: CascadeParams, direct: DggParams) -> "RisEnsemble":
        return cls(elements=(cascade,) * n, direct=direct)


@dataclass(frozen=True)
class CombinedSnrStat:
    """The SNR of a branch set at a link budget: what each ``metrics`` quantity evaluates."""

    ensemble: RisEnsemble
    budget: LinkBudget


def combined_snr_stat(ensemble: RisEnsemble, budget: LinkBudget) -> CombinedSnrStat:
    return CombinedSnrStat(ensemble=ensemble, budget=budget)


# ---------------------------------------------------------------------------
# SNR of any branch set: reflected, direct, or both combined

# Factors Gamma(offset - sum_i (alpha2_i/2) t_i)^sign, over every branch
# variable, that turn the Mellin transform of the SNR into each functional.
_FUNCTIONAL_TERMS = {
    "pdf": ((0.0, -1),),
    "cdf": ((1.0, -1),),
    "ber": ((0.5, 1), (1.0, -1)),
    "mgf": (),
}


def snr_spec(
    elements: tuple[CascadeParams, ...],
    direct: DggParams | None,
    budget: LinkBudget,
    functional: str,
    x: float,
) -> tuple[float, FoxHSpec]:
    """(log prefactor, spec) so that exp(logc) * H is a functional of the SNR.

    The branches are one contour variable per law of the reflecting
    ``elements`` (a ``dgg.mellin_layout``, up to factor order), counting the
    elements that share it, then one for ``direct``: an empty ``elements`` is
    the direct link alone and ``direct=None`` the reflected branch alone.
    Each variable carries its layout: its Gamma terms, the argument
    (x/gamma0)^(a/2) / B and the prefactor exp(log norm) per member, with
    one 1/2 per SNR summand (the reflected branch, the direct link). The
    reflected branch adds the joint factors that sum the element amplitudes
    and square the sum, and every functional its own joint factors.
    ``functional`` selects the density ("pdf") or distribution function
    ("cdf") at SNR x, E[Q(sqrt(2*SNR/x))] ("ber", x = 1/b), or
    E[exp(-SNR/x)] ("mgf", x = 1/s).
    """
    if functional not in _FUNCTIONAL_TERMS:
        raise ValueError(f"functional must be one of {tuple(_FUNCTIONAL_TERMS)}, got '{functional}'")
    if x <= 0:
        raise ValueError("requires x > 0")
    if not elements and direct is None:
        raise ValueError("requires a reflecting element or a direct link")
    laws: dict[tuple, list] = {}  # law -> [its layout, its element count]
    for block, count in Counter(elements).items():
        layout = mellin_layout(block)
        laws.setdefault((*layout[:3], tuple(sorted(layout[3]))), [layout, 0])[1] += count
    n = len(laws)
    layouts = [layout for layout, _ in laws.values()] + ([mellin_layout(direct)] if direct is not None else [])
    counts = [count for _, count in laws.values()] + [1] * (direct is not None)
    terms, args, scales = [], [], []
    logc = math.log(0.5) * ((n > 0) + (direct is not None))
    for i, ((a, log_norm, log_b, factors), count) in enumerate(zip(layouts, counts)):
        row = [0.0] * len(layouts)  # variable i's coefficients, one term at a time
        for beta, r in factors:
            row[i] = r
            terms.append(GammaTerm(beta, tuple(row)))
        # an element's amplitude enters the amplitude sum, the direct link's SNR the SNR sum
        row[i] = a if i < n else a / 2.0
        terms.append(GammaTerm(0.0, tuple(row), orientation=-1))
        args.append((x / (budget.gamma0_ris if i < n else budget.gamma0_d)) ** (a / 2.0) / math.exp(log_b))
        scales.append(a)
        logc += count * log_norm
    half = tuple(a / 2.0 for a in scales)
    if elements:
        # the reflected SNR is the square of the summed element amplitudes
        pad = (0.0,) * (direct is not None)
        terms.append(GammaTerm(0.0, half[:n] + pad, orientation=-1, joint=True))
        terms.append(GammaTerm(0.0, tuple(scales[:n]) + pad, sign=-1, orientation=-1, joint=True))
    for offset, sign in _FUNCTIONAL_TERMS[functional]:
        terms.append(GammaTerm(offset, half, sign=sign, orientation=-1, joint=True))
    if functional == "pdf":
        logc -= math.log(x)
    elif functional == "ber":
        logc -= 0.5 * math.log(4.0 * math.pi)
    return logc, FoxHSpec(args=tuple(args), terms=tuple(terms), counts=tuple(counts))


def snr_functional(
    elements: tuple[CascadeParams, ...],
    direct: DggParams | None,
    budget: LinkBudget,
    functional: str,
    x: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Value of ``snr_spec``'s functional of the branch set's SNR."""
    logc, spec = snr_spec(elements, direct, budget, functional, x)
    return math.exp(logc) * eval_foxh(spec, quad)[0]


def gamma_pdf(stat: CombinedSnrStat, g: float) -> float:
    """Density of the combined SNR at g > 0."""
    ens = stat.ensemble
    return snr_functional(ens.elements, ens.direct, stat.budget, "pdf", g)


def gamma_cdf(stat: CombinedSnrStat, g: float) -> float:
    """Distribution function of the combined SNR at g > 0."""
    ens = stat.ensemble
    return snr_functional(ens.elements, ens.direct, stat.budget, "cdf", g)


# ---------------------------------------------------------------------------
# sum of cascaded amplitudes: the reflected-only SNR at unit scale, z**2

_UNIT_BUDGET = LinkBudget(gamma0_ris=1.0, gamma0_d=1.0)


def hris_pdf(ensemble: RisEnsemble, z: float) -> float:
    """Density of the summed element amplitudes at z > 0."""
    if z <= 0:
        raise ValueError("requires z > 0")
    return 2.0 * z * snr_functional(ensemble.elements, None, _UNIT_BUDGET, "pdf", z * z)


def hris_cdf(ensemble: RisEnsemble, z: float) -> float:
    """Distribution function of the summed element amplitudes at z > 0."""
    if z <= 0:
        raise ValueError("requires z > 0")
    return snr_functional(ensemble.elements, None, _UNIT_BUDGET, "cdf", z * z)


# ---------------------------------------------------------------------------
# branch MGFs (testable waypoints of the same Gamma structure)


def mgf_gamma_ris(ensemble: RisEnsemble, budget: LinkBudget, s: float) -> float:
    """E[exp(-s * SNR_reflected)] for s > 0."""
    if s <= 0:
        raise ValueError("requires s > 0")
    return snr_functional(ensemble.elements, None, budget, "mgf", 1.0 / s)


def mgf_gamma_d(direct: DggParams, budget: LinkBudget, s: float) -> float:
    """E[exp(-s * SNR_direct)] for s > 0."""
    if s <= 0:
        raise ValueError("requires s > 0")
    return snr_functional((), direct, budget, "mgf", 1.0 / s)
