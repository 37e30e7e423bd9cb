"""Outage/BER metrics: BER closed form, high-SNR asymptote, diversity."""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad as sp_quad

from rislink.channel import budget
from rislink.config import default_geometry, preset_fading
from rislink.dgg import cascade_sample, dgg_sample
from rislink.exact_stats import RisEnsemble, combined_snr_stat, gamma_cdf
from rislink.foxh import QuadratureConfig
from rislink.metrics import (
    ModulationParams,
    ber_exact,
    diversity,
    outage_asymptotic,
    outage_exact,
)

CASCADE, DIRECT = preset_fading("FP1")
GEOM = default_geometry()
MOD = ModulationParams(a=1.0, b=1.0)


def make_stat(n, pt_dbm=20.0):
    return combined_snr_stat(RisEnsemble.identical(n, CASCADE, DIRECT), budget(GEOM, pt_dbm))


def branch_stat(elements, direct, bud):
    """SNR stat of any branch set: no elements is the direct link alone, direct=None the reflected branch alone."""
    return combined_snr_stat(RisEnsemble(elements, direct), bud)


def test_outage_exact_is_cdf():
    stat = make_stat(1)
    assert outage_exact(stat, 1.0) == gamma_cdf(stat, 1.0)


# ---------------------------------------------------------------------------
# average BER


def ber_oracle(stat, mod):
    """BER by 1-D quadrature of the CDF against the Rayleigh-like kernel.

    Integrating a*Q(sqrt(2 b g)) f(g) dg by parts:
        ber = (a/2) sqrt(b/pi) * int F(g) g^{-1/2} exp(-b g) dg
    which shares nothing with the multivariate BER contour spec except
    the CDF evaluator itself.
    """

    def integrand(u):
        g = math.exp(u)
        return gamma_cdf(stat, g) * g**-0.5 * math.exp(-mod.b * g) * g

    val, _ = sp_quad(integrand, -14, 4, limit=120)
    return 0.5 * mod.a * math.sqrt(mod.b / math.pi) * val


def test_ber_exact_matches_cdf_quadrature():
    stat = make_stat(1)
    assert ber_exact(stat, MOD) == pytest.approx(ber_oracle(stat, MOD), rel=1e-4)


def test_ber_exact_other_modulation():
    stat = make_stat(1)
    mod = ModulationParams(a=0.5, b=2.0)
    assert ber_exact(stat, mod) == pytest.approx(ber_oracle(stat, mod), rel=1e-4)


def test_ber_decreases_with_power():
    assert ber_exact(make_stat(1, 25.0), MOD) < ber_exact(make_stat(1, 15.0), MOD)


def test_modulation_validation():
    with pytest.raises(ValueError):
        ModulationParams(a=0.0, b=1.0)
    with pytest.raises(ValueError):
        ModulationParams(a=1.0, b=-2.0)


# ---------------------------------------------------------------------------
# high-SNR asymptote


def test_asymptote_converges_to_exact():
    # ratio exact/asymptotic tends to 1 as transmit power grows
    stat = make_stat(1, 150.0)
    exact = outage_exact(stat, 1.0)
    asym = outage_asymptotic(stat, 1.0)
    assert asym == pytest.approx(exact, rel=5e-3)


def test_asymptote_tracks_threshold():
    stat = make_stat(1, 150.0)
    lo, hi = outage_asymptotic(stat, 1.0), outage_asymptotic(stat, 2.0)
    ratio_asym = hi / lo
    ratio_exact = outage_exact(stat, 2.0) / outage_exact(stat, 1.0)
    assert ratio_asym == pytest.approx(ratio_exact, rel=1e-2)


def test_asymptote_slope_approaches_diversity_order():
    stat_lo = make_stat(1, 140.0)
    stat_hi = make_stat(1, 150.0)
    slope = (
        math.log10(outage_asymptotic(stat_hi, 1.0)) - math.log10(outage_asymptotic(stat_lo, 1.0))
    )  # per decade of power
    g_out = diversity(stat_lo.ensemble).g_out
    assert -slope == pytest.approx(g_out, rel=0.05)


def test_asymptote_two_elements_positive_and_below_exact_scale():
    stat = make_stat(2, 120.0)
    asym = outage_asymptotic(stat, 1.0)
    assert asym > 0.0
    # slope per decade must exceed the single-element slope
    asym_hi = outage_asymptotic(make_stat(2, 130.0), 1.0)
    per_decade = math.log10(asym) - math.log10(asym_hi)
    assert per_decade > 1.5


def test_asymptote_validation():
    with pytest.raises(ValueError):
        outage_asymptotic(make_stat(1), 0.0)


TIGHT = QuadratureConfig(step=0.04, rel_tol=1e-9)


def cascades(*names):
    return tuple(preset_fading(name)[0] for name in names)


def direct(name):
    return preset_fading(name)[1]


DEFAULT = QuadratureConfig()
# (elements, direct, pt_dbm, bound on |asymptote/exact - 1|, quadrature of the exact value)
ASYMPTOTE_CASES = {
    "combined-FP1-N1": (cascades("FP1"), direct("FP1"), 160.0, 0.003, DEFAULT),
    "combined-FP1-N2": (cascades("FP1", "FP1"), direct("FP1"), 160.0, 0.003, DEFAULT),
    "combined-FP2-N1": (cascades("FP2"), direct("FP2"), 160.0, 0.003, DEFAULT),
    "combined-FP2-N2": (cascades("FP2", "FP2"), direct("FP2"), 160.0, 0.003, DEFAULT),
    "combined-FP1+FP2-over-FP1": (cascades("FP1", "FP2"), direct("FP1"), 160.0, 0.003, DEFAULT),
    "combined-FP3-N1": (cascades("FP3"), direct("FP3"), 150.0, 0.02, TIGHT),
    **{
        f"ris_only-{name}-N{n}": (cascades(*[name] * n), None, 160.0, 0.01, DEFAULT)
        for name in ("FP1", "FP2", "FP3")
        for n in (1, 2, 3)
    },
    **{f"dt_only-{name}": ((), direct(name), 120.0, 0.001, DEFAULT) for name in ("FP1", "FP2", "FP3")},
}


@pytest.mark.parametrize("case", ASYMPTOTE_CASES)
def test_asymptote_over_exact_at_high_power(case):
    elements, direct, pt, bound, quad = ASYMPTOTE_CASES[case]
    stat = branch_stat(elements, direct, budget(GEOM, pt))
    ratio = outage_asymptotic(stat, 1.0) / outage_exact(stat, 1.0, quad)
    assert abs(ratio - 1.0) <= bound


def split_first(elements):
    """The elements with the first one's omega1 scaled by 1 + 1e-12: a class of its own."""
    hop = replace(elements[0].hop1, omega1=elements[0].hop1.omega1 * (1.0 + 1e-12))
    return (replace(elements[0], hop1=hop),) + elements[1:]


@pytest.mark.parametrize("n", [2, 3, 10])
def test_asymptote_class_path_equals_singleton_path(n):
    bud = budget(GEOM, 150.0)
    grouped = outage_asymptotic(branch_stat((CASCADE,) * n, DIRECT, bud), 1.0)
    split = outage_asymptotic(branch_stat(split_first((CASCADE,) * n), DIRECT, bud), 1.0)
    assert split == pytest.approx(grouped, rel=1e-6)


def test_asymptote_n10_is_the_double_pole_residue_in_any_order():
    # the epsilon-split residues of earlier releases read 7.65e-10 here
    bud = budget(GEOM, 100.0)
    assert outage_asymptotic(branch_stat((CASCADE,) * 10, DIRECT, bud), 1.0) == pytest.approx(2.847e-36, rel=1e-3)
    mixed = cascades("FP1", "FP2") * 5
    grouped = cascades(*["FP1"] * 5 + ["FP2"] * 5)
    assert outage_asymptotic(branch_stat(mixed, DIRECT, bud), 1.0) == pytest.approx(
        outage_asymptotic(branch_stat(grouped, DIRECT, bud), 1.0), rel=1e-12
    )


def test_asymptote_alternating_ensemble_is_two_classes():
    start = time.perf_counter()
    value = outage_asymptotic(branch_stat(cascades("FP2", "FP1") * 25, DIRECT, budget(GEOM, 60.0)), 1.0)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < value <= 1.0


# ---------------------------------------------------------------------------
# diversity order arithmetic


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize(
    "preset,out_slope,out_icept,ber_slope,ber_icept",
    [
        ("FP1", 1.0, 0.75, 0.5, 0.25),
        ("FP2", 0.5, 1.5, 0.0, 1.0),
        ("FP3", 0.75, 2.1, 0.25, 1.6),
    ],
)
def test_diversity_orders(preset, n, out_slope, out_icept, ber_slope, ber_icept):
    cascade, direct = preset_fading(preset)
    rep = diversity(RisEnsemble.identical(n, cascade, direct))
    assert rep.g_out == pytest.approx(out_slope * n + out_icept, rel=1e-12)
    assert rep.g_ber == pytest.approx(ber_slope * n + ber_icept, rel=1e-12)
    assert len(rep.per_element_minima) == n


# ---------------------------------------------------------------------------
# single-branch baselines: the same entry points on a branch set without one branch


def outage_and_ber(elements, direct, bud, gamma_th):
    stat = branch_stat(elements, direct, bud)
    return outage_exact(stat, gamma_th), ber_exact(stat, MOD)


def test_baseline_dt_matches_simulation():
    bud = budget(GEOM, 20.0)
    outage, ber = outage_and_ber((), DIRECT, bud, 1.0)
    rng = np.random.default_rng(31)
    snr = bud.gamma0_d * dgg_sample(DIRECT, rng, 400_000) ** 2
    emp_out = float(np.mean(snr <= 1.0))
    se_out = math.sqrt(emp_out * (1 - emp_out) / snr.size)
    assert outage == pytest.approx(emp_out, abs=4 * se_out)
    err = MOD.a * 0.5 * np.vectorize(math.erfc)(np.sqrt(MOD.b * snr))
    se_ber = float(np.std(err)) / math.sqrt(snr.size)
    assert ber == pytest.approx(float(np.mean(err)), abs=4 * se_ber)


def test_baseline_ris_matches_simulation():
    bud = budget(GEOM, 90.0)
    outage, ber = outage_and_ber((CASCADE,) * 2, None, bud, 1.0)
    rng = np.random.default_rng(32)
    h = cascade_sample(CASCADE, rng, 400_000) + cascade_sample(CASCADE, rng, 400_000)
    snr = bud.gamma0_ris * h**2
    emp_out = float(np.mean(snr <= 1.0))
    se_out = math.sqrt(emp_out * (1 - emp_out) / snr.size)
    assert outage == pytest.approx(emp_out, abs=4 * se_out)
    err = MOD.a * 0.5 * np.vectorize(math.erfc)(np.sqrt(MOD.b * snr))
    se_ber = float(np.std(err)) / math.sqrt(snr.size)
    assert ber == pytest.approx(float(np.mean(err)), abs=4 * se_ber)


def test_baseline_validation():
    bud = budget(GEOM, 20.0)
    with pytest.raises(ValueError):
        outage_exact(branch_stat((), DIRECT, bud), 0.0)
    with pytest.raises(ValueError):
        outage_exact(branch_stat((CASCADE,), None, bud), -1.0)


def test_outage_exact_out_of_range_raises():
    # the reflected branch alone, N=3 at -30 dBm: the evaluated CDF is 1.29, out of range by far more
    # than the last bits of the special functions move it
    with pytest.raises(RuntimeError, match="outside"):
        outage_exact(branch_stat((CASCADE,) * 3, None, budget(GEOM, -30.0)), 1.0)
