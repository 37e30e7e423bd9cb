"""Exact combined-SNR statistics against Monte-Carlo oracles.

Every analytic quantity here is cross-checked against direct channel
simulation with fixed seeds; the two routes share only the fading
parameterization and the link budget.
"""
import math

import numpy as np
import pytest

from rislink.channel import LinkBudget, budget
from rislink.config import default_geometry, parse_config_text, preset_fading
from rislink.dgg import (
    CascadeParams,
    DggParams,
    cascade_sample,
    dgg_sample,
    gg_factors,
)
from rislink.exact_stats import (
    RisEnsemble,
    combined_snr_stat,
    gamma_cdf,
    gamma_pdf,
    hris_cdf,
    hris_pdf,
    mgf_gamma_d,
    mgf_gamma_ris,
    snr_spec,
)
from rislink.foxh import MAX_DIMS, GammaTerm, suggest_anchors
from rislink.metrics import ModulationParams, ber_exact, outage_exact

CASCADE, DIRECT = preset_fading("FP1")
BUD = budget(default_geometry(), 20.0)


def make_stat(n):
    return combined_snr_stat(RisEnsemble.identical(n, CASCADE, DIRECT), BUD)


def simulate_combined(ensemble, n_samples, seed):
    rng = np.random.default_rng(seed)
    h = np.zeros(n_samples)
    for c in ensemble.elements:
        h += cascade_sample(c, rng, n_samples)
    snr = BUD.gamma0_ris * h**2
    snr += BUD.gamma0_d * dgg_sample(ensemble.direct, rng, n_samples) ** 2
    return snr


# ---------------------------------------------------------------------------
# reflected-branch amplitude sum


def test_hris_pdf_single_element_matches_histogram():
    ens = RisEnsemble.identical(1, CASCADE, DIRECT)
    rng = np.random.default_rng(5)
    s = cascade_sample(CASCADE, rng, 500_000)
    for z, h in ((0.5, 0.05), (1.2, 0.05), (2.5, 0.1)):
        emp = float(np.mean((s > z - h / 2) & (s < z + h / 2))) / h
        se = math.sqrt(emp / (h * s.size))
        assert hris_pdf(ens, z) == pytest.approx(emp, abs=4 * se + 1e-3)


def test_hris_pdf_two_elements_matches_histogram():
    ens = RisEnsemble.identical(2, CASCADE, DIRECT)
    rng = np.random.default_rng(6)
    s = cascade_sample(CASCADE, rng, 400_000) + cascade_sample(CASCADE, rng, 400_000)
    z, h = 1.5, 0.1
    emp = float(np.mean((s > z - h / 2) & (s < z + h / 2))) / h
    se = math.sqrt(emp / (h * s.size))
    assert hris_pdf(ens, z) == pytest.approx(emp, abs=4 * se + 1e-3)


def test_hris_cdf_matches_empirical():
    ens = RisEnsemble.identical(2, CASCADE, DIRECT)
    rng = np.random.default_rng(7)
    s = cascade_sample(CASCADE, rng, 400_000) + cascade_sample(CASCADE, rng, 400_000)
    for z in (1.0, 2.0):
        emp = float(np.mean(s <= z))
        se = math.sqrt(emp * (1 - emp) / s.size)
        assert hris_cdf(ens, z) == pytest.approx(emp, abs=4 * se)


# (preset, N, z, functional, value) of the amplitude sum before its density
# and distribution function became callers of snr_spec
FROZEN_HRIS = [
    ("FP1", 1, 1.0, "pdf", 0.3878137194198893),
    ("FP3", 2, 0.5, "pdf", 0.2647312472438131),
    ("FP2", 2, 2.0, "cdf", 0.5183946949340026),
    ("FP1", 2, 4.0, "cdf", 0.8937453556111237),
]


@pytest.mark.parametrize("preset,n,z,functional,value", FROZEN_HRIS)
def test_hris_values_frozen(preset, n, z, functional, value):
    cascade, direct = preset_fading(preset)
    fn = hris_pdf if functional == "pdf" else hris_cdf
    assert fn(RisEnsemble.identical(n, cascade, direct), z) == pytest.approx(value, rel=1e-12)


def test_hris_cdf_monotone():
    ens = RisEnsemble.identical(1, CASCADE, DIRECT)
    vals = [hris_cdf(ens, z) for z in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] and vals[-1] < 1.0 + 1e-9


# ---------------------------------------------------------------------------
# branch MGFs


def test_mgf_ris_matches_sampling():
    ens = RisEnsemble.identical(2, CASCADE, DIRECT)
    rng = np.random.default_rng(8)
    h = cascade_sample(CASCADE, rng, 400_000) + cascade_sample(CASCADE, rng, 400_000)
    snr = BUD.gamma0_ris * h**2
    for s in (1e4, 1e5):
        emp = np.exp(-s * snr)
        se = float(np.std(emp)) / math.sqrt(snr.size)
        assert mgf_gamma_ris(ens, BUD, s) == pytest.approx(float(np.mean(emp)), abs=4 * se)


def test_mgf_direct_matches_sampling():
    rng = np.random.default_rng(9)
    snr = BUD.gamma0_d * dgg_sample(DIRECT, rng, 400_000) ** 2
    for s in (0.05, 0.5):
        emp = np.exp(-s * snr)
        se = float(np.std(emp)) / math.sqrt(snr.size)
        assert mgf_gamma_d(DIRECT, BUD, s) == pytest.approx(float(np.mean(emp)), abs=4 * se)


# ---------------------------------------------------------------------------
# combined SNR


@pytest.mark.parametrize("n", [1, 2])
def test_gamma_cdf_matches_simulation(n):
    stat = make_stat(n)
    snr = simulate_combined(stat.ensemble, 400_000, seed=10 + n)
    for g in (0.5, 1.0, 5.0):
        emp = float(np.mean(snr <= g))
        se = math.sqrt(emp * (1 - emp) / snr.size)
        assert gamma_cdf(stat, g) == pytest.approx(emp, abs=4 * se)


def test_gamma_pdf_integrates_to_cdf_increment():
    # independent consistency: numeric integral of the density over
    # [a, b] must equal F(b) - F(a)
    from scipy.integrate import quad as sp_quad

    stat = make_stat(1)
    a, b = 0.5, 2.0
    integral, _ = sp_quad(lambda g: gamma_pdf(stat, g), a, b, limit=60)
    assert integral == pytest.approx(gamma_cdf(stat, b) - gamma_cdf(stat, a), rel=1e-5)


def test_gamma_cdf_monotone_in_threshold_and_power():
    stat = make_stat(1)
    assert gamma_cdf(stat, 0.5) < gamma_cdf(stat, 2.0)
    stronger = combined_snr_stat(stat.ensemble, budget(default_geometry(), 30.0))
    assert gamma_cdf(stronger, 1.0) < gamma_cdf(stat, 1.0)


def test_snr_spec_matches_combined_cdf_term_for_term():
    # The combined CDF at N=1 written out factor by factor from the
    # generalized Gamma factor lists: variable 0 is the element, variable 1
    # the direct link, each scaled by the alpha a of its second factor; the
    # factors that sum the branches are joint.
    g = 2.0
    el, dt = gg_factors(CASCADE), gg_factors(DIRECT)
    a2, ad2 = el[1][0], dt[1][0]
    terms = [GammaTerm(beta, (a2 / alpha, 0.0)) for alpha, beta, _ in el]
    terms.append(GammaTerm(0.0, (a2, 0.0), orientation=-1))
    terms += [GammaTerm(beta, (0.0, ad2 / alpha)) for alpha, beta, _ in dt]
    terms += [
        GammaTerm(0.0, (0.0, ad2 / 2.0), orientation=-1),
        GammaTerm(0.0, (a2 / 2.0, 0.0), orientation=-1, joint=True),
        GammaTerm(0.0, (a2, 0.0), sign=-1, orientation=-1, joint=True),
        GammaTerm(1.0, (a2 / 2.0, ad2 / 2.0), sign=-1, orientation=-1),
    ]

    def scale(a, factors):
        # B = prod (Omega/beta)^(a/alpha)
        return math.exp(sum(a / alpha * math.log(omega / beta) for alpha, beta, omega in factors))

    args = (
        (g / BUD.gamma0_ris) ** (a2 / 2.0) / scale(a2, el),
        (g / BUD.gamma0_d) ** (ad2 / 2.0) / scale(ad2, dt),
    )
    prefactor = 0.25 * (a2 / math.prod(math.gamma(b) for _, b, _ in el)) * (
        ad2 / math.prod(math.gamma(b) for _, b, _ in dt)
    )
    logc, spec = snr_spec((CASCADE,), DIRECT, BUD, "cdf", g)
    assert spec.terms == tuple(terms)
    assert spec.args == args
    assert spec.contour_re == suggest_anchors(terms, 2)
    assert math.exp(logc) == pytest.approx(prefactor, rel=1e-14)


def test_element_cap_enforced():
    # the combined SNR at N=3 takes four contour variables, one more than MAX_DIMS
    stat = combined_snr_stat(RisEnsemble.identical(3, CASCADE, DIRECT), BUD)
    with pytest.raises(ValueError, match=f"MAX_DIMS: at most {MAX_DIMS}"):
        gamma_cdf(stat, 1.0)
    with pytest.raises(ValueError, match=f"MAX_DIMS: at most {MAX_DIMS}"):
        gamma_pdf(stat, 1.0)
    # the reflected branch alone at N=3 takes three: within the cap
    assert 0.0 < mgf_gamma_ris(stat.ensemble, BUD, 1.0) < 1.0


def test_input_validation():
    stat = make_stat(1)
    with pytest.raises(ValueError):
        gamma_cdf(stat, 0.0)
    with pytest.raises(ValueError):
        gamma_pdf(stat, -1.0)
    with pytest.raises(ValueError):
        hris_pdf(stat.ensemble, 0.0)
    with pytest.raises(ValueError):
        hris_cdf(stat.ensemble, -1.0)
    with pytest.raises(ValueError):
        mgf_gamma_d(DIRECT, BUD, 0.0)
    with pytest.raises(ValueError):
        RisEnsemble(elements=(), direct=None)
    with pytest.raises(ValueError, match="reflecting element"):
        hris_cdf(RisEnsemble(elements=(), direct=DIRECT), 1.0)


def test_heterogeneous_elements_accepted():
    other, _ = preset_fading("FP3")
    ens = RisEnsemble(elements=(CASCADE, other), direct=DIRECT)
    stat = combined_snr_stat(ens, BUD)
    snr = simulate_combined(ens, 300_000, seed=21)
    g = 1.0
    emp = float(np.mean(snr <= g))
    se = math.sqrt(emp * (1 - emp) / snr.size)
    assert gamma_cdf(stat, g) == pytest.approx(emp, abs=4 * se)


# ---------------------------------------------------------------------------
# frozen N=2 values of the point-by-point tensor sum the evaluator replaced

# (outage_exact, ber_exact) at 20 dBm with the scenario defaults: 0 dB
# threshold, a = b = 1.
FROZEN_N2 = {
    "FP1": (0.11784700263190263, 0.03090801469395293),
    "FP2": (0.02291650506101726, 0.005628130545536658),
    "FP3": (0.005492652988513777, 0.0015833822352248695),
}


@pytest.mark.parametrize("preset", sorted(FROZEN_N2))
def test_n2_values_frozen(preset):
    cfg = parse_config_text(
        f"n_elements = 2\nfading_preset = {preset}\npt_dbm = 20\ngamma_th_db = 0\nmethods = exact\n"
    )
    stat = combined_snr_stat(cfg.system.ensemble(), budget(cfg.system.geometry, 20.0, cfg.system.noise_dbm))
    outage, ber = FROZEN_N2[preset]
    assert outage_exact(stat, 1.0) == pytest.approx(outage, rel=1e-8)
    assert ber_exact(stat, ModulationParams(cfg.modulation_a, cfg.modulation_b)) == pytest.approx(ber, rel=1e-8)


def test_heterogeneous_n2_outage_frozen():
    # different alpha2 per element: no two contour variables share their
    # cross-factor coefficients, so every variable is its own class
    h1 = DggParams(2, 1, 2, 2, 1, 1)
    h2 = DggParams(1, 1.5, 1, 2.5, 1, 1)
    ens = RisEnsemble((CascadeParams(h1, h1), CascadeParams(h2, h2)), DggParams(1.5, 1.5, 1, 1.5, 1, 1))
    stat = combined_snr_stat(ens, LinkBudget(gamma0_ris=3, gamma0_d=2))
    assert outage_exact(stat, 1.0) == pytest.approx(0.10702147639621941, rel=1e-8)


@pytest.mark.parametrize("preset", ["FP1", "FP2", "FP3"])
def test_snr_spec_holds_one_variable_per_element_law(preset):
    # identical elements are one variable of N members at any N, the direct link one more
    cascade, direct = preset_fading(preset)
    for n in (1, 2, 10_000):
        assert snr_spec((cascade,) * n, direct, BUD, "cdf", 1.0)[1].counts == (n, 1)


def test_swapped_hops_share_one_variable():
    # both hops have alpha2 = 2, so the swapped cascade has the same Mellin layout, factors reordered
    h1 = DggParams(2, 1, 2, 2, 1, 1)
    h2 = DggParams(1, 1.5, 2, 2.5, 1.2, 0.9)
    cascade, swapped = CascadeParams(h1, h2), CascadeParams(h2, h1)
    bud = LinkBudget(gamma0_ris=3, gamma0_d=2)
    assert snr_spec((cascade, swapped), DIRECT, bud, "cdf", 1.0)[1].counts == (2, 1)

    def outage(elements):
        return outage_exact(combined_snr_stat(RisEnsemble(elements, DIRECT), bud), 1.0)

    assert outage((cascade, swapped)) == outage((cascade, cascade))
    assert outage((swapped, swapped)) == pytest.approx(outage((cascade, cascade)), rel=1e-10)
