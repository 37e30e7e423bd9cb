"""Outage probability, average BER, and diversity order of the combined link.

Exact quantities evaluate the multivariate contour integrals of
``exact_stats`` for any branch set: the combined link, the reflected
branch alone, or the direct link alone. The high-SNR asymptote of the
combined link is the sum of residues at the integrand poles nearest the
contour, which reduces to a finite product of Gamma functions and power
laws in gamma_th / gamma_0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .channel import LinkBudget
from .dgg import CascadeParams, DggParams, cascade_coeffs, cascade_shapes, dgg_psi_phi
from .exact_stats import CombinedSnrStat, RisEnsemble, snr_functional, snr_spec
from .foxh import QuadratureConfig

__all__ = [
    "ModulationParams",
    "DiversityReport",
    "branch_outage",
    "branch_ber",
    "branch_diversity",
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


def branch_outage(
    elements: tuple[CascadeParams, ...],
    direct: DggParams | None,
    budget: LinkBudget,
    gamma_th: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> float:
    """P(SNR <= gamma_th) of a branch set, exact.

    The branches are those of ``exact_stats.snr_spec``: the reflecting
    ``elements`` and the ``direct`` link, either of which may be absent.
    """
    outage = snr_functional(elements, direct, budget, "cdf", gamma_th, quad)
    if not 0.0 < outage <= 1.0:
        raise RuntimeError(f"outage {outage} outside (0, 1]; evaluation unreliable")
    return outage


def branch_ber(
    elements: tuple[CascadeParams, ...],
    direct: DggParams | None,
    budget: LinkBudget,
    mod: ModulationParams,
    quad: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Average bit error rate of a branch set under conditional error a*Q(sqrt(2*b*snr)).

    Integrating the conditional error against the SNR density by parts
    leaves a Gamma-weighted Mellin transform of the CDF, which folds into
    the CDF's own contour integral as one extra Gamma factor and a
    rescaling of the SNR arguments by b.
    """
    ber = mod.a * snr_functional(elements, direct, budget, "ber", 1.0 / mod.b, quad)
    if not 0.0 < ber < 1.0:
        raise RuntimeError(f"average BER {ber} outside (0, 1); evaluation unreliable")
    return ber


def outage_exact(
    stat: CombinedSnrStat, gamma_th: float, quad: QuadratureConfig = QuadratureConfig()
) -> float:
    """P(combined SNR <= gamma_th), exact."""
    return branch_outage(stat.ensemble.elements, stat.ensemble.direct, stat.budget, gamma_th, quad)


def ber_exact(
    stat: CombinedSnrStat, mod: ModulationParams, quad: QuadratureConfig = QuadratureConfig()
) -> float:
    """Average bit error rate of the combined link under conditional error a*Q(sqrt(2*b*snr))."""
    return branch_ber(stat.ensemble.elements, stat.ensemble.direct, stat.budget, mod, quad)


# ---------------------------------------------------------------------------
# high-SNR asymptote by residues

_TIE_REL = 1e-9
_SPLIT_EPS = 1e-5


def _perturb(betas: list[float]) -> list[float]:
    """Split exactly coincident poles so each residue is simple.

    The per-index offsets are deterministic; tied contributions are summed
    afterwards, which converges to the multiple-pole (logarithmic) limit
    as the offsets shrink.
    """
    return [b * (1.0 + _SPLIT_EPS * (j + 1)) for j, b in enumerate(betas)]


def _element_residues(c: CascadeParams, log_z: float) -> list[tuple[float, float]]:
    """Near-minimal simple poles of one element's contour variable.

    Returns (sigma, residue) pairs: the integrand behaves like
    residue * z^{sigma} from the pole at t = -sigma. Ties of the minimal
    exponent alpha*beta are epsilon-split and all retained.
    """
    shapes = cascade_shapes(c)
    a2 = c.hop1.alpha2
    alphas = [s[0] for s in shapes]
    betas = _perturb([s[1] for s in shapes])
    products = [al * be for al, be in zip(alphas, betas)]
    p_min = min(s[0] * s[1] for s in shapes)
    out = []
    for j in range(4):
        if shapes[j][0] * shapes[j][1] > p_min * (1.0 + _TIE_REL):
            continue
        sigma = products[j] / a2
        r = alphas[j] / a2 * math.exp(sigma * log_z) * math.gamma(a2 * sigma)
        for l in range(4):
            if l != j:
                r *= math.gamma(betas[l] - products[j] / alphas[l])
        out.append((sigma, r))
    return out


def _direct_residues(d: DggParams, log_z: float) -> list[tuple[float, float]]:
    """Same as _element_residues for the direct-link contour variable."""
    a_d2 = d.alpha2
    alphas = [d.alpha1, d.alpha2]
    betas = _perturb([d.beta1, d.beta2])
    coeffs = [a_d2 / d.alpha1, 1.0]  # Gamma(beta + coeff * t) factors
    products = [al * be for al, be in zip(alphas, betas)]
    p_min = min(d.alpha1 * d.beta1, d.alpha2 * d.beta2)
    out = []
    for j in range(2):
        if alphas[j] * [d.beta1, d.beta2][j] > p_min * (1.0 + _TIE_REL):
            continue
        sigma = products[j] / a_d2
        l = 1 - j
        r = (
            math.exp(sigma * log_z)
            / coeffs[j]
            * math.gamma(betas[l] - coeffs[l] * sigma)
            * math.gamma(a_d2 * sigma / 2.0)  # from Gamma(-(alpha_d2/2) t)
        )
        out.append((sigma, r))
    return out


def outage_asymptotic(stat: CombinedSnrStat, gamma_th: float) -> float:
    """High-SNR outage: dominant residues of the exact CDF contour integral.

    Each contour variable contributes its nearest pole(s); the coupling
    Gamma factors are evaluated at the chosen pole tuple, so tied poles
    (which merge into higher-order poles with log corrections) are handled
    by epsilon-splitting and summing every near-minimal tuple. Identical
    elements are grouped so the tuple sum is polynomial in N.
    """
    if gamma_th <= 0:
        raise ValueError("requires gamma_th > 0")
    ens, bud = stat.ensemble, stat.budget

    groups: list[tuple[CascadeParams, int]] = []
    for c in ens.elements:
        if groups and groups[-1][0] == c:
            groups[-1] = (c, groups[-1][1] + 1)
        else:
            groups.append((c, 1))

    group_residues = []
    for c, count in groups:
        _, B = cascade_coeffs(c)
        log_z = (c.hop1.alpha2 / 2.0) * math.log(gamma_th / bud.gamma0_ris) - math.log(B)
        group_residues.append((c, count, _element_residues(c, log_z)))

    _, phi_d = dgg_psi_phi(ens.direct)
    log_zd = math.log(phi_d) + (ens.direct.alpha2 / 2.0) * math.log(gamma_th / bud.gamma0_d)
    direct_res = _direct_residues(ens.direct, log_zd)

    # Sum over one multiset of pole choices per element group x direct choice.
    # Epsilon-split residues alternate in sign and largely cancel; the
    # leading power law plus its logarithmic correction survive.
    def group_terms(c, count, residues):
        a2 = c.hop1.alpha2
        for combo in combinations_with_replacement(range(len(residues)), count):
            sigma_half = 0.0
            weight = float(_multiset_permutations(combo, count))
            for j in combo:
                sigma, r = residues[j]
                sigma_half += a2 * sigma / 2.0
                weight *= r
            yield sigma_half, weight

    partials = [(0.0, 1.0)]
    for c, count, residues in group_residues:
        partials = [
            (s0 + s1, w0 * w1)
            for s0, w0 in partials
            for s1, w1 in group_terms(c, count, residues)
        ]

    total = 0.0
    for sigma_half_ris, weight in partials:
        for sigma_d, r_d in direct_res:
            half_d = ens.direct.alpha2 * sigma_d / 2.0
            cross = math.gamma(sigma_half_ris) / (
                math.gamma(2.0 * sigma_half_ris) * math.gamma(1.0 + sigma_half_ris + half_d)
            )
            total += weight * r_d * cross
    logc, _ = snr_spec(ens.elements, ens.direct, bud, "cdf", gamma_th)
    outage = math.exp(logc) * total
    if not 0.0 < outage <= 1.0:
        raise RuntimeError(f"asymptotic outage {outage} outside (0, 1]; power too low for the asymptote")
    return outage


def _multiset_permutations(combo, count: int) -> int:
    reps = {}
    for j in combo:
        reps[j] = reps.get(j, 0) + 1
    out = math.factorial(count)
    for r in reps.values():
        out //= math.factorial(r)
    return out


def branch_diversity(elements: tuple[CascadeParams, ...], direct: DggParams | None) -> DiversityReport:
    """Outage and BER diversity orders of a branch set, from each branch's smallest
    shape product alpha*beta; ``direct_min`` is None without a direct link."""
    shapes = [cascade_shapes(c) for c in elements]
    if direct is not None:
        shapes.append(((direct.alpha1, direct.beta1), (direct.alpha2, direct.beta2)))
    minima = [min(alpha * beta for alpha, beta in s) / 2.0 for s in shapes]
    ber_minima = [min(alpha * beta - 1.0 for alpha, beta in s) / 2.0 for s in shapes]
    return DiversityReport(
        g_out=sum(minima),
        g_ber=sum(ber_minima),
        per_element_minima=tuple(minima[: len(elements)]),
        direct_min=minima[-1] if direct is not None else None,
    )


def diversity(ensemble: RisEnsemble) -> DiversityReport:
    """Outage and BER diversity orders of the combined link."""
    return branch_diversity(ensemble.elements, ensemble.direct)
