"""Double generalized Gamma (dGG) fading: analytic forms and sampling.

A dGG variate is the product of two generalized Gamma factors; the factor
with shape (alpha, beta) and scale Omega has density

    alpha * x^(alpha*beta - 1) * (beta/Omega)^beta
        * exp(-(beta/Omega) * x^alpha) / Gamma(beta)

which is the unique scale convention under which the analytic dGG density
integrates to one with the psi/phi constants used here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .foxh import FoxHSpec, GammaTerm, eval_foxh

__all__ = [
    "DggParams",
    "CascadeParams",
    "dgg_psi_phi",
    "dgg_pdf",
    "dgg_sample",
    "dgg_moment",
    "cascade_coeffs",
    "cascade_moment",
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


def dgg_psi_phi(p: DggParams) -> tuple[float, float]:
    """Normalization constant psi and argument scale phi of the dGG density."""
    psi = p.alpha2 / (
        (p.omega1 / p.beta1) ** (p.alpha2 * p.beta2 / p.alpha1)
        * (p.omega2 / p.beta2) ** p.beta2
        * math.exp(gammaln(p.beta1) + gammaln(p.beta2))
    )
    phi = (p.beta2 / p.omega2) * (p.beta1 / p.omega1) ** (p.alpha2 / p.alpha1)
    return psi, phi


def _dgg_pdf_spec(p: DggParams, x: float) -> tuple[float, FoxHSpec]:
    psi, phi = dgg_psi_phi(p)
    r = p.alpha2 / p.alpha1
    terms = (
        GammaTerm(0.0, (1.0,)),
        GammaTerm(p.beta1 - r * p.beta2, (r,)),
    )
    coeff = psi * x ** (p.alpha2 * p.beta2 - 1.0)
    spec = FoxHSpec(args=(phi * x**p.alpha2,), terms=terms)
    return coeff, spec


def dgg_pdf(p: DggParams, x: float) -> float:
    """Analytic dGG density at x > 0."""
    if x <= 0:
        raise ValueError("dgg_pdf requires x > 0")
    coeff, spec = _dgg_pdf_spec(p, x)
    value, _ = eval_foxh(spec)
    return coeff * value


def dgg_moment(p: DggParams, k: float) -> float:
    """E[X^k], product of the two generalized Gamma factor moments."""
    out = 1.0
    for alpha, beta, omega in ((p.alpha1, p.beta1, p.omega1), (p.alpha2, p.beta2, p.omega2)):
        out *= (omega / beta) ** (k / alpha) * math.exp(gammaln(beta + k / alpha) - gammaln(beta))
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


def cascade_coeffs(c: CascadeParams) -> tuple[float, float]:
    """Prefactor A and argument scale B of the two-hop product density."""
    psi1, phi1 = dgg_psi_phi(c.hop1)
    psi2, phi2 = dgg_psi_phi(c.hop2)
    a2, b2 = c.hop1.alpha2, c.hop1.beta2
    a4, b4 = c.hop2.alpha2, c.hop2.beta2
    A = psi1 * psi2 / a4 * phi2 ** ((a2 * b2 - a4 * b4) / a4)
    B = phi1**-1.0 * phi2 ** (-a2 / a4)
    return A, B


def cascade_shapes(c: CascadeParams) -> tuple[tuple[float, float], ...]:
    """The four (alpha, beta) pairs of a cascade in canonical order."""
    return (
        (c.hop1.alpha1, c.hop1.beta1),
        (c.hop1.alpha2, c.hop1.beta2),
        (c.hop2.alpha1, c.hop2.beta1),
        (c.hop2.alpha2, c.hop2.beta2),
    )


def product_pdf(c: CascadeParams, z: float) -> float:
    """Density of the product of the two hop variates at z > 0."""
    if z <= 0:
        raise ValueError("product_pdf requires z > 0")
    A, B = cascade_coeffs(c)
    a2 = c.hop1.alpha2
    terms = tuple(GammaTerm(beta, (a2 / alpha,)) for alpha, beta in cascade_shapes(c))
    spec = FoxHSpec(args=(z**a2 / B,), terms=terms)
    value, _ = eval_foxh(spec)
    return A * B ** c.hop1.beta2 / z * value


def product_mgf(c: CascadeParams, s: float) -> float:
    """Laplace transform E[exp(-s * Z)] of the two-hop product, s > 0."""
    if s <= 0:
        raise ValueError("product_mgf requires s > 0")
    A, B = cascade_coeffs(c)
    a2, b2 = c.hop1.alpha2, c.hop1.beta2
    terms = [GammaTerm(a2 * b2, (a2,), orientation=-1)]
    for k, (alpha, beta) in enumerate(cascade_shapes(c)):
        r = a2 / alpha
        if k == 1:
            terms.append(GammaTerm(0.0, (1.0,)))
        else:
            terms.append(GammaTerm(beta - r * b2, (r,)))
    terms = tuple(terms)
    spec = FoxHSpec(args=(s**-a2 / B,), terms=terms)
    value, _ = eval_foxh(spec)
    return A * s ** (-a2 * b2) * value


def cascade_moment(c: CascadeParams, k: float) -> float:
    return dgg_moment(c.hop1, k) * dgg_moment(c.hop2, k)


def cascade_sample(c: CascadeParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n two-hop products, hop1's variates first, multiplied in place."""
    z = dgg_sample(c.hop1, rng, n)
    z *= dgg_sample(c.hop2, rng, n)
    return z
