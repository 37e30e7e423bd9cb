"""Double generalized Gamma (dGG) fading: analytic forms and sampling.

A dGG variate is the product of two generalized Gamma factors; the factor
with shape (alpha, beta) and scale Omega has density

    alpha * x^(alpha*beta - 1) * (beta/Omega)^beta
        * exp(-(beta/Omega) * x^alpha) / Gamma(beta)

and a reflected path's two-hop cascade is the product of four. A product
X of such factors has the Mellin transform

    E[X^s] = prod_j (Omega_j/beta_j)^(s/alpha_j) Gamma(beta_j + s/alpha_j) / Gamma(beta_j),

which ``mellin_layout`` lists once per block; every density, Laplace
transform and SNR contour integral is built from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .foxh import FoxHSpec, GammaTerm, eval_foxh

__all__ = [
    "DggParams",
    "CascadeParams",
    "gg_factors",
    "mellin_layout",
    "dgg_pdf",
    "dgg_sample",
    "dgg_moment",
    "cascade_sample",
    "product_pdf",
    "product_mgf",
]


@dataclass(frozen=True)
class DggParams:
    """Shape pairs (alpha1, beta1), (alpha2, beta2) and scales (omega1, omega2)."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    omega1: float
    omega2: float

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2", "omega1", "omega2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"DggParams.{name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class CascadeParams:
    """Fading of one cascaded reflector path: product of two dGG hops."""

    hop1: DggParams
    hop2: DggParams


def gg_factors(block: DggParams | CascadeParams) -> tuple[tuple[float, float, float], ...]:
    """(alpha, beta, Omega) of each generalized Gamma factor of a link or a cascade, hop1's first."""
    if isinstance(block, CascadeParams):
        return gg_factors(block.hop1) + gg_factors(block.hop2)
    return ((block.alpha1, block.beta1, block.omega1), (block.alpha2, block.beta2, block.omega2))


def mellin_layout(block: DggParams | CascadeParams) -> tuple[float, float, float, tuple[tuple[float, float], ...]]:
    """(a, log norm, log B, terms): the Mellin transform of the block's amplitude X.

    With a the alpha of the block's second factor, E[X^(a t)] is
    exp(log norm) / a * B^t * prod_j Gamma(beta_j + (a/alpha_j) t); each
    term is the pair (beta_j, a/alpha_j), in factor order, which the exactly rounded sums ignore.
    """
    factors = gg_factors(block)
    a = factors[1][0]
    log_norm = math.log(a) - math.fsum(math.lgamma(beta) for _, beta, _ in factors)
    log_b = math.fsum(a / alpha * math.log(omega / beta) for alpha, beta, omega in factors)
    return a, log_norm, log_b, tuple((beta, a / alpha) for alpha, beta, _ in factors)


def _amplitude(block: DggParams | CascadeParams, x: float, laplace: bool) -> float:
    """exp(log norm) * H over the block's Mellin terms at argument x^a / B.

    That is x times the density of the amplitude at x or, with ``laplace``
    and its kernel Gamma(-a t), E[exp(-X/x)].
    """
    a, log_norm, log_b, factors = mellin_layout(block)
    terms = [GammaTerm(beta, (r,)) for beta, r in factors]
    if laplace:
        terms.append(GammaTerm(0.0, (a,), orientation=-1))
    spec = FoxHSpec(args=(x**a / math.exp(log_b),), terms=tuple(terms))
    return math.exp(log_norm) * eval_foxh(spec)[0]


def dgg_pdf(p: DggParams, x: float) -> float:
    """Analytic dGG density at x > 0."""
    if x <= 0:
        raise ValueError("dgg_pdf requires x > 0")
    return _amplitude(p, x, laplace=False) / x


def dgg_moment(block: DggParams | CascadeParams, k: float) -> float:
    """E[X^k] of a link or a cascade, the product of its generalized Gamma factor moments."""
    out = 1.0
    for alpha, beta, omega in gg_factors(block):
        out *= (omega / beta) ** (k / alpha) * math.exp(math.lgamma(beta + k / alpha) - math.lgamma(beta))
    return out


# Largest integer shape drawn as a sum of exponentials, and the block of
# draws whose uniforms are multiplied together. Drawing n = 100,000 on a
# 2-CPU Xeon (numpy 2.4), k uniforms in blocks of 16,384 cost about
# 2.1k + 1 ns per draw, numpy's Marsaglia-Tsang standard_gamma 14.6 ns for
# each shape from 2 to 8 (k = 6: 13.5 ns, k = 7: 15.6 ns). Blocks of
# 8,192 to 65,536 draws cost within 5 % of each other; drawing all n at
# once costs about 2.5 ns more per draw and one more n-length buffer.
_MAX_SUM_SHAPE = 6
_BLOCK = 16_384


def _standard_gamma(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """n standard Gamma(shape) draws, the sampler of every dGG factor.

    An integer shape k in 2.._MAX_SUM_SHAPE is a sum of k exponentials,
    -log prod(1 - U_i) with U_i from rng.random (Devroye 1986, ch. IX),
    drawn block by block: a block's k uniform vectors, then the next
    block's. 1 - U lies in (0, 1], so the log never sees 0. Every other
    shape, shape 1 included (numpy's exponential ziggurat), is
    rng.standard_gamma, which gives the bits of rng.gamma(shape, size=n).
    """
    k = int(shape)
    if k != shape or not 2 <= k <= _MAX_SUM_SHAPE:
        return rng.standard_gamma(shape, n)
    prod = np.empty(n)
    u = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        block = prod[start : start + _BLOCK]
        factor = u[: block.size]
        rng.random(out=block)
        np.subtract(1.0, block, out=block)
        for _ in range(k - 1):
            rng.random(out=factor)
            np.subtract(1.0, factor, out=factor)
            block *= factor
    np.log(prod, out=prod)
    np.negative(prod, out=prod)
    return prod


def dgg_sample(p: DggParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n dGG variates as products of transformed standard-Gamma draws.

    Each factor's g is drawn by `_standard_gamma`: an integer shape from 2
    to _MAX_SUM_SHAPE as -log of a product of uniforms, any other shape by
    numpy's standard_gamma. The draws depend only on the generator's
    state. Releases before the uniform construction drew every factor
    with rng.gamma, so their streams differ for integer shapes (the FP1
    and FP2 presets) and match for all others.

    Computes (omega1/beta1 * g1)^(1/alpha1) * (omega2/beta2 * g2)^(1/alpha2)
    in the two draw buffers: each in-place step is the same operation on
    the same operands as the written-out formula, so values match it bit
    for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x1 = _standard_gamma(rng, p.beta1, n)
    x2 = _standard_gamma(rng, p.beta2, n)
    x1 *= p.omega1 / p.beta1
    x1 **= 1.0 / p.alpha1
    x2 *= p.omega2 / p.beta2
    x2 **= 1.0 / p.alpha2
    x1 *= x2
    return x1


def product_pdf(c: CascadeParams, z: float) -> float:
    """Density of the product of the two hop variates at z > 0."""
    if z <= 0:
        raise ValueError("product_pdf requires z > 0")
    return _amplitude(c, z, laplace=False) / z


def product_mgf(c: CascadeParams, s: float) -> float:
    """Laplace transform E[exp(-s * Z)] of the two-hop product, s > 0."""
    if s <= 0:
        raise ValueError("product_mgf requires s > 0")
    return _amplitude(c, 1.0 / s, laplace=True)


def cascade_sample(c: CascadeParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n two-hop products, hop1's variates first, multiplied in place."""
    z = dgg_sample(c.hop1, rng, n)
    z *= dgg_sample(c.hop2, rng, n)
    return z
