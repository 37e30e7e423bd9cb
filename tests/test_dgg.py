"""dGG fading: density/moment/sampling consistency.

The analytic product density is checked against a brute-force convolution
integral oracle built only from the single-factor generalized Gamma
density (no contour integrals), so the two routes share no code.
"""
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as sp_quad
from scipy import stats
from scipy.special import gammaln, polygamma, psi

from rislink.config import preset_fading
from rislink.dgg import (
    CascadeParams,
    DggParams,
    cascade_sample,
    dgg_moment,
    dgg_pdf,
    dgg_sample,
    gg_factors,
    mellin_layout,
    product_mgf,
    product_pdf,
)
from rislink.dgg import _BLOCK, _MAX_SUM_SHAPE, _GammaRows

FP1 = DggParams(2.0, 1.0, 2.0, 2.0, 1.5793, 0.9671)
FP3 = DggParams(1.0, 1.5, 1.0, 2.5, 1.5793, 0.9671)


def gg_pdf(x, alpha, beta, omega):
    """Single generalized Gamma factor density (oracle building block)."""
    lam = beta / omega
    return alpha * x ** (alpha * beta - 1.0) * lam**beta * np.exp(
        -lam * x**alpha - gammaln(beta)
    )


def dgg_pdf_oracle(p: DggParams, x: float) -> float:
    """Density of X1*X2 via the conditional integral over X1."""

    def integrand(u):
        # product density: int f1(y) f2(x/y) dy/y; y = e^u makes dy/y = du
        y = math.exp(u)
        return gg_pdf(y, p.alpha1, p.beta1, p.omega1) * gg_pdf(
            x / y, p.alpha2, p.beta2, p.omega2
        )
    val, _ = sp_quad(integrand, -30, 30, limit=400)
    return val


def test_pdf_matches_convolution_oracle():
    for p in (FP1, FP3):
        for x in (0.2, 0.7, 1.3, 2.5):
            assert dgg_pdf(p, x) == pytest.approx(dgg_pdf_oracle(p, x), rel=1e-6)


def test_pdf_normalizes_to_one():
    for p in (FP1, FP3):
        val, err = sp_quad(
            lambda u: dgg_pdf(p, math.exp(u)) * math.exp(u), -25, 6, limit=200
        )
        assert val == pytest.approx(1.0, abs=5e-6)


def test_pdf_moment_consistency():
    # E[X^k] from the density integral vs the closed-form factor product
    p = FP1
    for k in (1.0, 2.0):
        val, _ = sp_quad(
            lambda u: math.exp(u) ** k * dgg_pdf(p, math.exp(u)) * math.exp(u),
            -20,
            6,
            limit=200,
        )
        assert val == pytest.approx(dgg_moment(p, k), rel=1e-5)


def test_sampling_matches_moments():
    rng = np.random.default_rng(7)
    for p in (FP1, FP3):
        x = dgg_sample(p, rng, 400_000)
        for k in (1.0, 2.0):
            mk = dgg_moment(p, k)
            se = np.std(x**k) / math.sqrt(x.size)
            assert np.mean(x**k) == pytest.approx(mk, abs=4 * se)


def test_layout_scale_rises_with_both_scales():
    a, log_norm, log_b, terms = mellin_layout(FP1)
    assert a == FP1.alpha2 and len(terms) == 2
    # doubling both scales must raise B
    wider = DggParams(2.0, 1.0, 2.0, 2.0, 2 * 1.5793, 2 * 0.9671)
    assert mellin_layout(wider)[2] > log_b


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DggParams(0.0, 1.0, 2.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DggParams(2.0, 1.0, 2.0, 2.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        dgg_pdf(FP1, 0.0)
    with pytest.raises(ValueError):
        product_pdf(CascadeParams(FP1, FP1), -1.0)
    with pytest.raises(ValueError):
        product_mgf(CascadeParams(FP1, FP1), 0.0)


# ---------------------------------------------------------------------------
# two-hop cascade


def cascade_pdf_oracle(c: CascadeParams, z: float) -> float:
    """Density of Z = X*Y through the dGG marginal of hop 1."""

    def integrand(u):
        y = math.exp(u)
        return dgg_pdf(c.hop1, y) * dgg_pdf(c.hop2, z / y)
    val, _ = sp_quad(integrand, -15, 15, limit=300)
    return val


def test_product_pdf_matches_oracle():
    c = CascadeParams(FP1, FP3)
    for z in (0.3, 1.0, 2.0):
        assert product_pdf(c, z) == pytest.approx(cascade_pdf_oracle(c, z), rel=1e-5)


def test_product_pdf_normalizes():
    c = CascadeParams(FP1, FP1)
    val, _ = sp_quad(lambda u: product_pdf(c, math.exp(u)) * math.exp(u), -25, 6, limit=300)
    assert val == pytest.approx(1.0, abs=2e-5)


def test_product_mgf_matches_sampling():
    c = CascadeParams(FP1, FP3)
    rng = np.random.default_rng(11)
    z = cascade_sample(c, rng, 400_000)
    for s in (0.5, 2.0):
        emp = np.exp(-s * z)
        se = float(np.std(emp)) / math.sqrt(z.size)
        assert product_mgf(c, s) == pytest.approx(float(np.mean(emp)), abs=4 * se)


def test_cascade_moment_matches_sampling():
    c = CascadeParams(FP1, FP1)
    rng = np.random.default_rng(3)
    z = cascade_sample(c, rng, 400_000)
    se = float(np.std(z)) / math.sqrt(z.size)
    assert dgg_moment(c, 1.0) == pytest.approx(float(np.mean(z)), abs=4 * se)


@pytest.mark.parametrize("block", [FP3, CascadeParams(FP1, FP3)], ids=["link", "mixed-hop-cascade"])
def test_mellin_layout_gives_the_moments(block):
    # E[X^(a t)] = exp(log norm) / a * B^t * prod Gamma(beta_j + (a/alpha_j) t), at t = k/a
    a, log_norm, log_b, terms = mellin_layout(block)
    for k in (0.5, 1.0, 2.0, 3.0):
        t = k / a
        log_m = log_norm - math.log(a) + t * log_b + sum(gammaln(beta + r * t) for beta, r in terms)
        assert math.exp(log_m) == pytest.approx(dgg_moment(block, k), rel=1e-13)


def test_presets_load_as_valid_params():
    for name in ("FP1", "FP2", "FP3"):
        cascade, direct = preset_fading(name)
        assert isinstance(cascade, CascadeParams)
        assert isinstance(direct, DggParams)
        assert dgg_moment(direct, 2.0) > 0


@settings(max_examples=15, deadline=None)
@given(
    st.floats(0.8, 2.5),
    st.floats(0.6, 2.5),
    st.floats(0.8, 2.5),
    st.floats(0.6, 2.5),
)
def test_pdf_nonnegative_property(a1, b1, a2, b2):
    p = DggParams(a1, b1, a2, b2, 1.5793, 0.9671)
    for x in (0.3, 1.0, 3.0):
        assert dgg_pdf(p, x) >= -1e-12


def _gamma_draws(shapes, seed, n):
    """n standard Gamma draws of each shape from the sampler's block routine, one row per shape."""
    rows = _GammaRows(tuple(shapes))
    rng = np.random.default_rng(seed)
    blocks = [np.array(rows.draw(rng, np.empty((rows.size, min(_BLOCK, n - start))))) for start in range(0, n, _BLOCK)]
    return np.concatenate(blocks, axis=1)


def _amplitude_formula(block, rng, m):
    """One block of the sampler written out of place, draw for draw, from its documented layout."""
    factors = gg_factors(block)
    shapes = [beta for _, beta, _ in factors]
    ks = [math.floor(s) for s in shapes]
    half = [s - k == 0.5 and k <= _MAX_SUM_SHAPE for s, k in zip(shapes, ks)]
    whole = [s == k and 1 <= k <= _MAX_SUM_SHAPE for s, k in zip(shapes, ks)]
    heads = [j for j in range(len(shapes)) if (half[j] or whole[j]) and ks[j] >= 1]
    halves = [j for j in range(len(shapes)) if half[j]]
    pairs = (len(halves) + 1) // 2
    further = sum(ks[j] - 1 for j in heads)
    rows = len(heads) + pairs + further + pairs
    u = 1.0 - rng.random((rows, m)) if rows else None
    g = {}
    more = iter(u[len(heads) + pairs : len(heads) + pairs + further] if rows else ())
    for i, j in enumerate(heads):
        p = u[i]
        for _ in range(ks[j] - 1):
            p = p * next(more)
        g[j] = -np.log(p)
    if pairs:
        e = -np.log(u[len(heads) : len(heads) + pairs])
        t2 = np.tan(u[rows - pairs :] * (0.5 * math.pi)) ** 2
        h1 = e / (t2 + 1.0)
        h2 = h1 * t2
        for i, j in enumerate(halves):
            h = (h1 if i % 2 == 0 else h2)[i // 2]
            g[j] = g[j] + h if j in g else h
    for j, s in enumerate(shapes):
        if j not in g:
            g[j] = rng.standard_gamma(s, m)
    groups = {}
    for j, (alpha, _, _) in enumerate(factors):
        groups.setdefault(1.0 / alpha, []).append(j)
    scale = math.prod((omega / beta) ** (1.0 / alpha) for alpha, beta, omega in factors)
    x = None
    for power, members in groups.items():
        acc = g[members[0]]
        for j in members[1:]:
            acc = acc * g[j]
        acc = acc**power
        x = acc * scale if x is None else x * acc
    return x


@pytest.mark.parametrize("preset", ["FP1", "FP2", "FP3"])
def test_in_place_sampling_matches_formula_bit_for_bit(preset):
    # The factors' exponents 1/alpha are 1, 2/3 and 0.5: numpy's identity,
    # general-pow and sqrt paths must agree with `**`. The last block is partial.
    n = _BLOCK + 10_001
    cascade, direct = preset_fading(preset)
    for block, sample in ((cascade.hop1, dgg_sample), (direct, dgg_sample), (cascade, cascade_sample)):
        got = sample(block, np.random.default_rng(5), n)
        ref_rng = np.random.default_rng(5)
        expect = np.concatenate([_amplitude_formula(block, ref_rng, min(_BLOCK, n - s)) for s in range(0, n, _BLOCK)])
        assert np.array_equal(got, expect)


def _check_gamma_law(g, shape):
    # Gamma(shape): mean and variance shape, fourth central moment
    # 3 shape^2 + 6 shape, E[log g] = psi(shape) with variance psi'(shape).
    n = g.size
    assert g.min() > 0
    assert abs(g.mean() - shape) <= 5 * math.sqrt(shape / n)
    assert abs(g.var() - shape) <= 5 * math.sqrt((2 * shape**2 + 6 * shape) / n)
    assert abs(np.log(g).mean() - psi(shape)) <= 5 * math.sqrt(polygamma(1, shape) / n)
    assert stats.kstest(g, stats.gamma(shape).cdf).pvalue > 1e-3


@pytest.mark.parametrize("k", range(1, _MAX_SUM_SHAPE + 1))
def test_integer_shape_draws_follow_gamma_law(k):
    _check_gamma_law(_gamma_draws([float(k)], 21, 400_000)[0], k)


@pytest.mark.parametrize("k", range(0, _MAX_SUM_SHAPE + 1))
def test_half_integer_shape_draws_follow_gamma_law(k):
    _check_gamma_law(_gamma_draws([k + 0.5], 23, 400_000)[0], k + 0.5)


def test_tan_split_pair_is_two_independent_halves():
    # E*B and E*(1 - B), B ~ Beta(1/2, 1/2): each Gamma(1/2), independent, summing to E ~ Exp(1)
    n = 400_000
    h1, h2 = _gamma_draws([0.5, 0.5], 24, n)
    assert stats.kstest(h1 + h2, stats.expon.cdf).pvalue > 1e-3
    for h in (h1, h2):
        assert stats.kstest(h, stats.gamma(0.5).cdf).pvalue > 1e-3
    assert abs(np.corrcoef(h1, h2)[0, 1]) <= 5 / math.sqrt(n)


@pytest.mark.parametrize("shape", [0.3, 2.1, _MAX_SUM_SHAPE + 1.0, _MAX_SUM_SHAPE + 1.5])
def test_other_shapes_draw_numpy_gamma_bits(shape):
    n = _BLOCK + 10_001
    got = _gamma_draws([shape], 22, n)[0]
    assert np.array_equal(got, np.random.default_rng(22).gamma(shape, size=n))


class _CountingGenerator:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("preset", ["FP1", "FP2", "FP3"])
def test_preset_shapes_draw_one_uniform_call_per_block(preset):
    # Every preset cascade and the FP1/FP2 direct links (shapes 1, 2, 1.5, 2.5)
    # take one rng.random call per block and no standard_gamma; FP3's direct
    # link (shape 2.1 twice) takes numpy's sampler for each factor instead.
    n = 2 * _BLOCK + 1
    cascade, direct = preset_fading(preset)
    for block in (cascade, direct):
        rng = _CountingGenerator(8)
        dgg_sample(block, rng, n)
        if preset == "FP3" and block is direct:
            assert rng.calls == {"standard_gamma": 2 * 3}
        else:
            assert rng.calls == {"random": 3}
