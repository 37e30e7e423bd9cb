"""dGG fading: density/moment/sampling consistency.

The analytic product density is checked against a brute-force convolution
integral oracle built only from the single-factor generalized Gamma
density (no contour integrals), so the two routes share no code.
"""
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
    mellin_layout,
    product_mgf,
    product_pdf,
)
from rislink.dgg import _MAX_SUM_SHAPE, _standard_gamma

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


def _dgg_formula(p, rng, n):
    """The dGG sampler written out of place, draw for draw."""
    g1 = _standard_gamma(rng, p.beta1, n)
    g2 = _standard_gamma(rng, p.beta2, n)
    return (p.omega1 / p.beta1 * g1) ** (1.0 / p.alpha1) * (p.omega2 / p.beta2 * g2) ** (1.0 / p.alpha2)


@pytest.mark.parametrize("preset", ["FP1", "FP2", "FP3"])
def test_in_place_sampling_matches_formula_bit_for_bit(preset):
    # The hops' exponents 1/alpha are 1, 2/3 and 0.5: numpy's identity,
    # general-pow and sqrt paths of `**=` must agree with `**`.
    cascade, direct = preset_fading(preset)
    for hop in (cascade.hop1, cascade.hop2, direct):
        got = dgg_sample(hop, np.random.default_rng(5), 10_001)
        assert np.array_equal(got, _dgg_formula(hop, np.random.default_rng(5), 10_001))
    ref_rng = np.random.default_rng(6)
    expect = _dgg_formula(cascade.hop1, ref_rng, 10_001) * _dgg_formula(cascade.hop2, ref_rng, 10_001)
    assert np.array_equal(cascade_sample(cascade, np.random.default_rng(6), 10_001), expect)


@pytest.mark.parametrize("k", range(2, _MAX_SUM_SHAPE + 1))
def test_integer_shape_draws_follow_gamma_law(k):
    # Gamma(k): mean k, variance k, fourth central moment 3k^2 + 6k,
    # E[log g] = psi(k) with variance psi'(k).
    n = 400_000
    g = _standard_gamma(np.random.default_rng(21), float(k), n)
    assert g.min() > 0
    assert abs(g.mean() - k) <= 5 * math.sqrt(k / n)
    assert abs(g.var() - k) <= 5 * math.sqrt((2 * k**2 + 6 * k) / n)
    assert abs(np.log(g).mean() - psi(k)) <= 5 * math.sqrt(polygamma(1, k) / n)
    assert stats.kstest(g, stats.gamma(k).cdf).pvalue > 1e-3


@pytest.mark.parametrize("shape", [1.0, 1.5, 2.1, _MAX_SUM_SHAPE + 1.0])
def test_other_shapes_draw_numpy_gamma_bits(shape):
    got = _standard_gamma(np.random.default_rng(22), shape, 10_001)
    assert np.array_equal(got, np.random.default_rng(22).gamma(shape, size=10_001))
