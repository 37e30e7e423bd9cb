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

``dgg_sample`` (and its alias ``cascade_sample``) draws X itself, in
blocks of draws that stay in cache: each factor's standard Gamma variate
comes from uniforms where its shape is an integer from 1 to 6 (a product
of uniforms) or a half-integer up to 6.5 (that, plus half of a
tan-split exponential), from numpy's ``standard_gamma`` otherwise, and
the factors are joined by one product per block.
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


# Largest k for which shapes k and k + 1/2 are drawn from uniforms, and the
# draws of one block. Drawing six blocks on a 2-CPU Xeon (numpy 2.4, best of
# 40 runs in thread time), an integer shape k costs about 3.2k + 1 ns per
# draw, and numpy's Marsaglia-Tsang standard_gamma about 22 ns for every
# shape from 1.5 to 8.5 (46 ns at 1/2; 6.3 ns at 1, its exponential
# ziggurat, against 4.0 ns here). A shape k + 1/2 costs about 3.5k + 5 ns
# when another factor takes the other half of its pair and 3.4k + 10.5 ns
# when none does, so it breaks even with numpy near k = 5 (shared pair) and
# k = 3 (lone half): shapes 5.5 and 6.5 cost up to 1.3x (shared) and 1.4x
# (lone) numpy's, the presets' 1.5 and 2.5 are 1.8-2.4x cheaper. Blocks of
# 4,096 to 32,768 draws cost the same within the noise of these runs; 8,192
# keeps an FP3 cascade's 12-row block buffer at 0.8 MB, where 16,384 raised
# the simulator's peak RSS over the presets' N=50 cells by 2-3 MB.
_MAX_SUM_SHAPE = 6
_BLOCK = 8_192
_HALF_PI = 0.5 * math.pi


def _uniform_parts(shape: float) -> tuple[int, bool] | None:
    """(k, half) with shape = k + half/2 if the shape is drawn from uniforms, else None."""
    k = math.floor(shape)
    half = shape - k == 0.5
    if k <= _MAX_SUM_SHAPE and (half or (k >= 1 and shape == k)):
        return k, half
    return None


class _GammaRows:
    """Standard Gamma draws of several shapes, one row per shape, one block at a time.

    A shape k or k + 1/2 with k <= _MAX_SUM_SHAPE is drawn from uniforms:
    its Gamma(k) part is -log prod(1 - U_i) over k uniforms (Devroye 1986,
    ch. IX), and the half is one of the pair E*B, E*(1 - B), two
    independent Gamma(1/2) variates when E = -log(1 - U) ~ Exp(1) and
    B = cos^2(pi V/2) ~ Beta(1/2, 1/2) (Box & Muller 1958). With
    t = tan(pi V/2) the pair is H1 = E/(1 + t^2) and H2 = H1*t^2, both to
    full relative precision. Half-integer shapes take the pairs' halves in
    order, H1 then H2. Every other shape is rng.standard_gamma.

    A block's uniforms come from one rng.random call into the buffer's
    first ``uniforms`` rows, laid out as: one row per shape with k >= 1
    (its product, then its -log), the pairs' E rows, the further k - 1
    uniforms of each shape in shape order, the pairs' V rows. Every U is
    used as 1 - U, which lies in (0, 1], so the logs never see 0. Then come
    one scratch row per pair (1 + t^2) and one row per numpy shape, whose
    standard_gamma draws follow the block's uniforms.
    """

    def __init__(self, shapes: tuple[float, ...]):
        parts = [_uniform_parts(s) for s in shapes]
        heads = [j for j, p in enumerate(parts) if p and p[0] >= 1]
        halves = [j for j, p in enumerate(parts) if p and p[1]]
        others = [j for j, p in enumerate(parts) if p is None]
        self.pairs = (len(halves) + 1) // 2
        self.logged = len(heads) + self.pairs
        self.products = []  # (head row, row of one of its further uniforms)
        row = self.logged
        for i, j in enumerate(heads):
            self.products += [(i, r) for r in range(row, row + parts[j][0] - 1)]
            row += parts[j][0] - 1
        self.first_v = row
        self.uniforms = row + self.pairs
        self.size = self.uniforms + self.pairs + len(others)
        self.others = [(self.uniforms + self.pairs + i, shapes[j]) for i, j in enumerate(others)]
        g_rows = {j: i for i, j in enumerate(heads)} | {j: r for (r, _), j in zip(self.others, others)}
        self.adds = []  # (head row, half row) of each shape k + 1/2 with k >= 1
        for i, j in enumerate(halves):
            half = (len(heads) if i % 2 == 0 else self.first_v) + i // 2
            if j in g_rows:
                self.adds.append((g_rows[j], half))
            else:
                g_rows[j] = half
        self.g_rows = [g_rows[j] for j in range(len(shapes))]

    def draw(self, rng: np.random.Generator, buf: np.ndarray) -> list[np.ndarray]:
        """Draw one block into buf, of shape (size, m); return each shape's row of m draws."""
        u = buf[: self.uniforms]
        if self.uniforms:
            rng.random(out=u)
            np.subtract(1.0, u, out=u)
        for head, other in self.products:
            u[head] *= u[other]
        logs = u[: self.logged]
        np.log(logs, out=logs)
        np.negative(logs, out=logs)
        if self.pairs:
            e = u[self.logged - self.pairs : self.logged]
            t2 = u[self.first_v :]
            t2 *= _HALF_PI
            np.tan(t2, out=t2)
            np.square(t2, out=t2)
            e /= np.add(t2, 1.0, out=buf[self.uniforms : self.uniforms + self.pairs])
            t2 *= e
        for row, shape in self.others:
            rng.standard_gamma(shape, out=buf[row])
        for head, half in self.adds:
            buf[head] += buf[half]
        return [buf[r] for r in self.g_rows]


def dgg_sample(block: DggParams | CascadeParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n amplitudes X = prod_j (Omega_j/beta_j * g_j)^(1/alpha_j) of a link or a cascade.

    The g_j are standard Gamma(beta_j) draws of the block's `gg_factors`,
    made by `_GammaRows` in blocks of _BLOCK draws: integer shapes 1 to
    _MAX_SUM_SHAPE from products of uniforms, half-integer shapes up to
    _MAX_SUM_SHAPE + 1/2 from those and tan-split exponentials, every
    other shape by numpy's standard_gamma. Per block, the factors that
    share an exponent 1/alpha are multiplied together and raised once
    (sqrt for 1/2, nothing for 1), the results multiplied, the first of
    them by the constant prod_j (Omega_j/beta_j)^(1/alpha_j). The draws
    depend only on the generator's state. Releases before this sampler
    drew each factor over the whole array, shape 1 and non-integer shapes
    with numpy's samplers, so every preset's stream differs from theirs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = gg_factors(block)
    rows = _GammaRows(tuple(beta for _, beta, _ in factors))
    groups: dict[float, list[int]] = {}
    for j, (alpha, _, _) in enumerate(factors):
        groups.setdefault(1.0 / alpha, []).append(j)
    scale = math.prod((omega / beta) ** (1.0 / alpha) for alpha, beta, omega in factors)
    out = np.empty(n)
    buf = np.empty(rows.size * min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        x = out[start : start + _BLOCK]
        g = rows.draw(rng, buf[: rows.size * x.size].reshape(rows.size, x.size))
        for i, (power, members) in enumerate(groups.items()):
            acc = g[members[0]]
            for j in members[1:]:
                acc *= g[j]
            if power == 0.5:
                np.sqrt(acc, out=acc)
            elif power != 1.0:
                np.power(acc, power, out=acc)
            if i == 0:
                np.multiply(acc, scale, out=x)
            else:
                x *= acc
    return out


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


# A cascade is drawn by the same routine, over its four factors.
cascade_sample = dgg_sample
