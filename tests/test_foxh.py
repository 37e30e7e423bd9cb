"""Contour-integral evaluator: reduction identities and contract behavior.

The reduction corpus pins the evaluator against elementary closed forms:
    exp:       (1/2pi i) int Gamma(t) z^{-t} dt            = exp(-z)
    binomial:  (1/2pi i) int Gamma(t)Gamma(a-t)/Gamma(a)   = (1+z)^{-a}
    Bessel:    (1/2pi i) int Gamma(t+nu/2)Gamma(t-nu/2) z^{-t} dt = 2 K_nu(2 sqrt(z))
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import kv

from rislink import foxh
from rislink.foxh import (
    HALF_LENGTH,
    MAX_DIMS,
    FoxHSpec,
    GammaTerm,
    NoValidContour,
    NotConverged,
    QuadratureConfig,
    dump_spec,
    eval_foxh,
    leading_residue,
    suggest_anchors,
    validate_contour,
)
from rislink.special import log_gamma


def exp_spec(z: float) -> FoxHSpec:
    terms = (GammaTerm(0.0, (1.0,)),)
    return FoxHSpec(args=(z,), terms=terms, contour_re=(1.0,))


def binomial_spec(z: float, a: float) -> FoxHSpec:
    terms = (
        GammaTerm(0.0, (1.0,)),
        GammaTerm(a, (1.0,), orientation=-1),
        GammaTerm(a, (0.0,), sign=-1),
    )
    return FoxHSpec(args=(z,), terms=terms, contour_re=(a / 2.0,))


def bessel_spec(z: float, nu: float) -> FoxHSpec:
    terms = (
        GammaTerm(nu / 2.0, (1.0,)),
        GammaTerm(-nu / 2.0, (1.0,)),
    )
    return FoxHSpec(args=(z,), terms=terms, contour_re=(nu / 2.0 + 1.0,))


CORPUS_POINTS = np.geomspace(0.05, 20.0, 20)


def test_exponential_corpus():
    for z in CORPUS_POINTS:
        value, err = eval_foxh(exp_spec(float(z)))
        assert value == pytest.approx(math.exp(-z), rel=1e-8)


def test_binomial_corpus():
    for z in CORPUS_POINTS:
        value, _ = eval_foxh(binomial_spec(float(z), a=1.7))
        assert value == pytest.approx((1.0 + z) ** -1.7, rel=1e-8)


def test_bessel_corpus():
    for z in CORPUS_POINTS:
        value, _ = eval_foxh(bessel_spec(float(z), nu=0.8))
        assert value == pytest.approx(2.0 * kv(0.8, 2.0 * math.sqrt(z)), rel=1e-8)


def test_bessel_frozen_references():
    # scipy.special.kv references computed once and pinned.
    for z, nu, expected in [
        (0.5, 0.3, 0.4903408279638153),
        (2.0, 1.2, 0.10556301974732193),
        (4.0, 0.0, 0.022319352171706046),
    ]:
        value, _ = eval_foxh(bessel_spec(z, nu))
        assert value == pytest.approx(expected, rel=1e-9)


def test_error_estimate_is_honest():
    value, err = eval_foxh(exp_spec(1.0))
    assert abs(value - math.exp(-1.0)) <= max(err, 1e-10) * 10


def test_slow_tail_does_not_converge():
    # Gamma(t) / Gamma(3/2 + t) at z = 1/2 is (1 - z)^(1/2) / Gamma(3/2), but the integrand decays only as
    # |y|^(-3/2): the tail past HALF_LENGTH stays above the tolerance, and the error carries the last estimate
    spec = FoxHSpec(args=(0.5,), terms=(GammaTerm(0.0, (1.0,)), GammaTerm(1.5, (1.0,), sign=-1)))
    with pytest.raises(NotConverged) as caught:
        eval_foxh(spec)
    assert math.isfinite(caught.value.last_delta)
    assert caught.value.value == pytest.approx(math.sqrt(0.5) / math.gamma(1.5), rel=2e-3)


def test_orientation_is_a_constructor_keyword_only():
    # coeffs hold the orientation; a stored copy of the keyword could disagree with them
    term = GammaTerm(1.0, (2.0,), orientation=-1)
    assert term.coeffs == (-2.0,)
    assert GammaTerm(1.0, (2.0,)).coeffs == (2.0,)
    with pytest.raises(AttributeError):
        term.orientation
    with pytest.raises(AttributeError):
        GammaTerm.orientation
    with pytest.raises(ValueError):
        GammaTerm(1.0, (2.0,), orientation=0)


# ---------------------------------------------------------------------------
# contour validation


def test_feasible_interval_two_sided():
    # Gamma(t) Gamma(2-t): anchors must sit in (0, 2)
    terms = (GammaTerm(0.0, (1.0,)), GammaTerm(2.0, (1.0,), orientation=-1))
    spec = FoxHSpec(args=(1.0,), terms=terms, contour_re=(1.0,))
    assert validate_contour(spec) == [(0.0, 2.0)]
    assert suggest_anchors(terms, 1) == (1.0,)


def test_empty_interval_rejected():
    # Gamma(t) Gamma(-t) pole families overlap: no line separates them
    terms = (GammaTerm(0.0, (1.0,)), GammaTerm(0.0, (1.0,), orientation=-1))
    with pytest.raises(NoValidContour):
        suggest_anchors(terms, 1)
    with pytest.raises(NoValidContour):
        FoxHSpec(args=(1.0,), terms=terms, contour_re=(0.5,))


def test_anchor_outside_interval_rejected():
    terms = (GammaTerm(0.0, (1.0,)), GammaTerm(2.0, (1.0,), orientation=-1))
    with pytest.raises(NoValidContour):
        FoxHSpec(args=(1.0,), terms=terms, contour_re=(2.5,))


def test_constant_nonpositive_numerator_rejected():
    terms = (GammaTerm(0.0, (1.0,)), GammaTerm(-1.0, (0.0,)))
    with pytest.raises(NoValidContour):
        FoxHSpec(args=(1.0,), terms=terms, contour_re=(1.0,))


def test_denominator_terms_do_not_constrain():
    terms = (GammaTerm(0.0, (1.0,)), GammaTerm(0.0, (1.0,), sign=-1, orientation=-1))
    lo, hi = validate_contour(FoxHSpec(args=(1.0,), terms=terms, contour_re=(5.0,)))[0]
    assert lo == 0.0 and math.isinf(hi)


def test_unbounded_variable_is_anchored_at_zero():
    # the second variable has only a denominator factor: no bound on either side
    terms = (GammaTerm(1.0, (1.0, 0.0)), GammaTerm(0.0, (0.0, 1.0), sign=-1))
    assert suggest_anchors(terms, 2) == (0.0, 0.0)


def test_spec_places_default_anchors():
    # Gamma(t1)Gamma(t2)Gamma(a - t1 - t2)/Gamma(a): anchors left to the spec
    # are suggest_anchors', and evaluate exactly as the same anchors given
    def binomial2(a):
        return (
            GammaTerm(0.0, (1.0, 0.0)),
            GammaTerm(0.0, (0.0, 1.0)),
            GammaTerm(a, (1.0, 1.0), orientation=-1),
            GammaTerm(a, (0.0, 0.0), sign=-1),
        )

    terms = binomial2(2.3)
    spec = FoxHSpec(args=(0.8, 1.5), terms=terms)
    assert spec.contour_re == suggest_anchors(terms, 2) == (1.0, 1.0)
    assert eval_foxh(spec) == eval_foxh(FoxHSpec(args=(0.8, 1.5), terms=terms, contour_re=(1.0, 1.0)))
    # suggestion skips cross factors; the spec's check still catches one that binds
    with pytest.raises(NoValidContour):
        FoxHSpec(args=(0.8, 1.5), terms=binomial2(1.5))


@pytest.mark.parametrize("z", [1 + 1j, -2.5, 0.0, math.nan], ids=["complex", "negative", "zero", "nan"])
def test_non_positive_real_argument_rejected(z):
    with pytest.raises(ValueError, match="positive real"):
        FoxHSpec(args=(z,), terms=(GammaTerm(0.0, (1.0,)),), contour_re=(1.0,))


def test_term_count_mismatch_rejected():
    with pytest.raises(ValueError):
        FoxHSpec(args=(1.0, 2.0), terms=(GammaTerm(0.0, (1.0,)),), contour_re=(1.0, 1.0))


# ---------------------------------------------------------------------------
# multivariate behavior


def test_separable_two_variable_product():
    # no cross terms: H(z1, z2) factorizes into exp(-z1) exp(-z2)
    terms = (
        GammaTerm(0.0, (1.0, 0.0)),
        GammaTerm(0.0, (0.0, 1.0)),
    )
    spec = FoxHSpec(args=(0.7, 2.2), terms=terms, contour_re=(1.0, 1.0))
    value, _ = eval_foxh(spec)
    assert value == pytest.approx(math.exp(-0.7) * math.exp(-2.2), rel=1e-7)


def test_cross_term_two_variable_binomial():
    # Gamma(t1)Gamma(t2)Gamma(a - t1 - t2)/Gamma(a) -> (1 + z1 + z2)^{-a}
    a = 2.3
    terms = (
        GammaTerm(0.0, (1.0, 0.0)),
        GammaTerm(0.0, (0.0, 1.0)),
        GammaTerm(a, (1.0, 1.0), orientation=-1),
        GammaTerm(a, (0.0, 0.0), sign=-1),
    )
    spec = FoxHSpec(args=(0.8, 1.5), terms=terms, contour_re=(a / 4, a / 4))
    value, _ = eval_foxh(spec)
    assert value == pytest.approx((1.0 + 0.8 + 1.5) ** -a, rel=1e-7)


def test_cross_term_three_variable_multinomial():
    # Gamma(t1)Gamma(t2)Gamma(t3)Gamma(a - t1 - t2 - t3)/Gamma(a) -> (1 + z1 + z2 + z3)^{-a};
    # with equal arguments, one variable of three members whose own factor is Gamma(t)
    a = 2.3
    terms = (
        GammaTerm(0.0, (1.0, 0.0, 0.0)),
        GammaTerm(0.0, (0.0, 1.0, 0.0)),
        GammaTerm(0.0, (0.0, 0.0, 1.0)),
        GammaTerm(a, (1.0, 1.0, 1.0), orientation=-1),
        GammaTerm(a, (0.0, 0.0, 0.0), sign=-1),
    )
    spec = FoxHSpec(args=(0.8, 1.5, 0.3), terms=terms, contour_re=(a / 6,) * 3)
    value, _ = eval_foxh(spec)
    assert value == pytest.approx((1.0 + 0.8 + 1.5 + 0.3) ** -a, rel=1e-7)
    joint = (GammaTerm(a, (1.0,), orientation=-1, joint=True), GammaTerm(a, (0.0,), sign=-1))
    spec = FoxHSpec(args=(0.8,), terms=(GammaTerm(0.0, (1.0,)),) + joint, contour_re=(a / 6,), counts=(3,))
    value, _ = eval_foxh(spec)
    assert value == pytest.approx((1.0 + 3 * 0.8) ** -a, rel=1e-7)


def _log_at(spec: FoxHSpec, y: np.ndarray) -> np.ndarray:
    """Reference: the full integrand log at imaginary parts y, shape (m, N), factor by factor."""
    t = np.asarray(spec.contour_re) + 1j * np.atleast_2d(y)
    logz = np.log(np.asarray(spec.args, dtype=complex))
    acc = -(t @ logz)
    for term in spec.terms:
        acc = acc + term.sign * log_gamma(term.offset + t @ np.asarray(term.coeffs))
    return acc


def _expand_members(spec: FoxHSpec) -> FoxHSpec:
    """Reference: the same integral with one variable per member, members in variable order;
    each member takes its own copy of its variable's own factors, and joint factors span all."""
    members = [v for v, n in enumerate(spec.counts) for _ in range(n)]
    # a factor that spans one member is that member's own
    own = [not t.joint or sum(n for n, c in zip(spec.counts, t.coeffs) if c) == 1 for t in spec.terms]
    terms = [
        GammaTerm(t.offset, tuple(t.coeffs[v] * (j == m) for j in range(len(members))), t.sign)
        for m, v in enumerate(members)
        for t, o in zip(spec.terms, own)
        if o and t.coeffs[v]
    ]
    joint = [t for t, o in zip(spec.terms, own) if not o]
    terms += [GammaTerm(t.offset, tuple(t.coeffs[v] for v in members), t.sign) for t in joint]
    return FoxHSpec(
        args=tuple(spec.args[v] for v in members),
        terms=tuple(terms),
        contour_re=tuple(spec.contour_re[v] for v in members),
    )


def _probe_scan_truncation(spec: FoxHSpec, quad: QuadratureConfig) -> np.ndarray:
    """Reference: the truncation from exact integrand levels on the probe grid
    along each axis and the two diagonals (same threshold, pad and clamp)."""
    n = spec.num_vars
    probe = np.arange(0.0, HALF_LENGTH + 0.25, 0.25)
    base = float(np.real(_log_at(spec, np.zeros((1, n)))[0]))
    threshold = base + math.log(min(1e-10, quad.rel_tol * 1e-4))

    def reach(pts: np.ndarray) -> float:
        above = np.nonzero(np.real(_log_at(spec, pts)) > threshold)[0]
        return float(probe[above[-1]]) if above.size else 0.0

    T = np.empty(n)
    for i in range(n):
        pts = np.zeros((probe.size, n))
        pts[:, i] = probe
        T[i] = reach(pts)
    if n > 1:
        for signs in ((1.0,) * n, (1.0,) * (n - 1) + (-1.0,)):
            T = np.maximum(T, reach(probe[:, None] * np.asarray(signs)))
    return np.minimum(np.maximum(T + 1.0, 4.0), HALF_LENGTH)


@pytest.mark.parametrize("pt_dbm", [10.0, 20.0, 30.0])
@pytest.mark.parametrize("functional", ["cdf", "ber"])
@pytest.mark.parametrize(
    "n,direct",
    [(0, True), (1, True), (2, True), (2, False), (3, False)],
    ids=["direct-only", "combined-n1", "combined-n2", "reflected-n2", "reflected-n3"],
)
@pytest.mark.parametrize("preset", ["FP1", "FP2", "FP3"])
def test_stirling_truncation_matches_probe_scan(preset, n, direct, functional, pt_dbm):
    # Stirling's log-modulus stands in for the exact integrand on the probe grid;
    # each variable's T is that of each of its members in the member-expanded spec
    from rislink.channel import budget
    from rislink.config import default_geometry, preset_fading
    from rislink.exact_stats import snr_spec

    cascade, d = preset_fading(preset)
    bud = budget(default_geometry(), pt_dbm)
    spec = snr_spec((cascade,) * n, d if direct else None, bud, functional, 1.0)[1]
    quad = QuadratureConfig()
    T = np.repeat(foxh._scan_truncation(spec, quad), spec.counts)
    full = _expand_members(spec)
    assert np.array_equal(T, foxh._scan_truncation(full, quad))
    assert np.max(np.abs(T - _probe_scan_truncation(full, quad))) <= 0.5


def test_truncation_keeps_exact_level_of_constant_factors():
    # Along the direct variable's axis the reflector's factors stay at their
    # y = 0 value, exactly; Stirling's value for them would shift the level
    # and put this T 0.25 short of the scan's (9.5 against 9.75).
    spec = _combined_cdf_spec("FP1", 1)
    quad = QuadratureConfig()
    assert np.array_equal(foxh._scan_truncation(spec, quad), _probe_scan_truncation(spec, quad))


def _assert_pass_matches_point_by_point_sum(monkeypatch, spec, T, h, shift):
    # Reference: the member-expanded integrand evaluated at every point of a
    # small tensor grid, the trapezoid grid (shift 0, row 0 of the one pass)
    # or the midpoint grid (shift 1/2, row 1) without its pad point; tiny
    # chunks exercise the rescaling between chunks.
    row = int(shift > 0.0)
    monkeypatch.setattr(foxh, "_CHUNK_ROWS", 100)
    total, band, absmass, ref = foxh._tensor_pass(spec, foxh._make_axes(T, h), h, T)[row]

    full, T = _expand_members(spec), np.repeat(T, spec.counts)
    axes = [y[row, : y.shape[1] - row] for y in foxh._make_axes(T, h)]
    assert all(np.allclose(np.diff(y), h) and y[0] == -y[-1] for y in axes)
    y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, full.num_vars)
    v = np.exp(_log_at(full, y) - ref)
    outer = (np.abs(y) > T - 1.0).any(axis=1)
    assert absmass == pytest.approx(np.abs(v).sum(), rel=1e-12)
    assert abs(total - v.sum()) <= 1e-12 * absmass
    assert abs(band - v[outer].sum()) <= 1e-12 * absmass


def _combined_cdf_spec(preset, n):
    from rislink.channel import budget
    from rislink.config import default_geometry, preset_fading
    from rislink.exact_stats import snr_spec

    cascade, direct = preset_fading(preset)
    return snr_spec((cascade,) * n, direct, budget(default_geometry(), 20.0), "cdf", 1.0)[1]


def _heterogeneous_n2_stat():
    # the ensemble of test_heterogeneous_n2_outage_frozen: distinct alpha2,
    # so every element is its own variable
    from rislink.channel import LinkBudget
    from rislink.dgg import CascadeParams, DggParams
    from rislink.exact_stats import RisEnsemble, combined_snr_stat

    h1 = DggParams(2, 1, 2, 2, 1, 1)
    h2 = DggParams(1, 1.5, 1, 2.5, 1, 1)
    ens = RisEnsemble((CascadeParams(h1, h1), CascadeParams(h2, h2)), DggParams(1.5, 1.5, 1, 1.5, 1, 1))
    return combined_snr_stat(ens, LinkBudget(gamma0_ris=3, gamma0_d=2))


def _heterogeneous_n2_cdf_spec():
    from rislink.exact_stats import snr_spec

    stat = _heterogeneous_n2_stat()
    return snr_spec(stat.ensemble.elements, stat.ensemble.direct, stat.budget, "cdf", 1.0)[1]


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_class_pass_matches_point_by_point_sum(monkeypatch, shift):
    # the N=2 CDF spec holds both reflectors in one variable of two members
    spec = _combined_cdf_spec("FP1", 2)
    assert spec.counts == (2, 1)
    _assert_pass_matches_point_by_point_sum(monkeypatch, spec, np.array([4.0, 5.0]), 0.25, shift)


def _cross_spec(coeffs, offset):
    """Gamma(t_1) ... Gamma(t_n) Gamma(offset - sum_i coeffs[i] t_i) over n one-member variables."""
    n = len(coeffs)
    terms = tuple(GammaTerm(0.0, tuple(float(i == j) for j in range(n))) for i in range(n))
    terms += (GammaTerm(offset, tuple(coeffs), orientation=-1),)
    return FoxHSpec(args=(0.8, 1.5, 1.2)[:n], terms=terms, contour_re=(0.5,) * n)


@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize(
    "build,T,point_by_point",
    [
        (lambda: _combined_cdf_spec("FP1", 1), [4.0, 5.0], False),
        (lambda: _combined_cdf_spec("FP2", 1), [4.0, 5.0], False),
        (_heterogeneous_n2_cdf_spec, [4.0, 3.0, 5.0], False),
        (lambda: _cross_spec((1.0, math.sqrt(2.0)), 2.3), [4.0, 5.0], True),
        (lambda: _cross_spec((1.0, 1.5), 2.3), [4.0, 5.0], False),
        (lambda: _cross_spec((1.0, -0.5), 2.3), [4.0, 5.0], False),
        (lambda: _cross_spec((1.0, 3.0, 6.0), 5.8), [4.0, 3.0, 5.0], False),
        (lambda: _cross_spec((1.0, 8.0), 5.3), [4.0, 5.0], False),
    ],
    ids=[
        "fp1-n1", "fp2-n1", "heterogeneous-n2", "irrational-flat-key", "ratio-2-3-flat-key", "mixed-sign",
        "steps-1-3-6", "steps-1-8",
    ],
)
def test_cross_keys_match_point_by_point_sum(monkeypatch, build, T, point_by_point, shift):
    # A joint factor spanning several variables merges them into one on its
    # key, their weights convolved after dilation by the key's steps, or is
    # summed point by point when its coefficient ratios are not rational;
    # every case must give the point-by-point sum: steps 1 : 1/2 and 1/2 : 1
    # over two variables, three variables, coefficients 1 : sqrt(2) (the one
    # case summed point by point) and 1 : 1.5 (steps 2 : 3), coefficients of
    # opposite sign (a reversed dilation), steps (1, 3, 6), whose dilated
    # weights leave gaps between keys, and steps (1, 8), whose key spans
    # more values than both axes have points.
    spec = build()
    assert spec.num_vars == len(T)
    calls = []
    real_lattice_sum = foxh._lattice_sum

    def counting(*args):
        calls.append(len(args))
        return real_lattice_sum(*args)

    monkeypatch.setattr(foxh, "_lattice_sum", counting)
    _assert_pass_matches_point_by_point_sum(monkeypatch, spec, np.array(T), 0.25, shift)
    assert bool(calls) == point_by_point


def test_merge_key_counts_large_lattices_exactly():
    # ten 128-point axes hold 128^10 = 2^70 points, past int64: the key over
    # all ten, of unit steps, spans 1,271 values and must still be taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S, p, lam = foxh._merge_key(np.ones((1, 10)), [128] * 10)
    assert np.array_equal(S, np.arange(10))
    assert np.array_equal(p, np.ones(10))
    assert np.array_equal(lam, [1.0])


def _count_log_gamma(monkeypatch) -> list:
    """Patch foxh's log_gamma to append each call's element count to the returned list."""
    counted = []
    real_log_gamma = foxh.log_gamma

    def counting(z):
        counted.append(np.size(z))
        return real_log_gamma(z)

    monkeypatch.setattr(foxh, "log_gamma", counting)
    return counted


def test_identical_n2_outage_evaluates_few_log_gammas(monkeypatch):
    # A joint factor over several variables sees only an integer combination
    # of their grid indices, so it takes about sum_c |p_c| K_c arguments:
    # 162k elements once per lattice point, 29M point by point. The
    # truncation evaluates log Gamma once, at y = 0: exact probe scans
    # made 95 of 128 calls and 12.9k of 19.9k elements. Each fold makes one
    # call per variable it multiplies, on the trapezoid and midpoint grids at
    # once: 5 calls, against 9 with one pass per grid and 21 with one call
    # per own factor, axis and grid.
    from rislink.channel import budget
    from rislink.config import default_geometry, preset_fading
    from rislink.exact_stats import RisEnsemble, combined_snr_stat
    from rislink.metrics import outage_exact

    cascade, direct = preset_fading("FP1")
    stat = combined_snr_stat(RisEnsemble.identical(2, cascade, direct), budget(default_geometry(), 20.0))
    counted = _count_log_gamma(monkeypatch)
    assert 0.0 < outage_exact(stat, 1.0) < 1.0
    assert sum(counted) < 8_000
    assert len(counted) <= 5


def test_heterogeneous_n2_outage_evaluates_few_log_gammas(monkeypatch):
    # three variables: 7.7M elements once per point of the K^3 lattice, 44k
    # with exact probe scans for the truncation, 31k with each cross factor
    # gathered from its line onto the lattice; about 6.7k merged along the
    # keys. Both grids in one pass: 6 calls, against 11 with one pass per grid.
    from rislink.metrics import outage_exact

    stat = _heterogeneous_n2_stat()
    counted = _count_log_gamma(monkeypatch)
    assert 0.0 < outage_exact(stat, 1.0) < 1.0
    assert sum(counted) < 8_000
    assert len(counted) <= 6


def _ensemble_stat(elements, direct):
    from rislink.channel import budget
    from rislink.config import default_geometry
    from rislink.exact_stats import RisEnsemble, combined_snr_stat

    return combined_snr_stat(RisEnsemble(elements, direct), budget(default_geometry(), 20.0))


def _heterogeneous_beta_n2_stat():
    # an FP1 cascade beside one with hop1.beta1 scaled by 1.5: two element
    # variables with equal alpha2, so one amplitude-sum key of steps (1, 1)
    import dataclasses

    from rislink.config import preset_fading

    cascade, direct = preset_fading("FP1")
    other = dataclasses.replace(cascade, hop1=dataclasses.replace(cascade.hop1, beta1=1.5 * cascade.hop1.beta1))
    return _ensemble_stat((cascade, other), direct)


def _ratio_2_3_n2_stat():
    # element alpha2 2 beside direct alpha2 3: the SNR-sum key has steps (2, 3)
    import dataclasses

    from rislink.config import preset_fading

    cascade, direct = preset_fading("FP1")
    return _ensemble_stat((cascade,) * 2, dataclasses.replace(direct, alpha2=3.0))


def test_heterogeneous_beta_n2_outage_evaluates_few_log_gammas(monkeypatch):
    # the K^3 lattice took 52k elements and 0.9 s; merged along the keys, about 7.2k
    from rislink.metrics import outage_exact

    stat = _heterogeneous_beta_n2_stat()
    counted = _count_log_gamma(monkeypatch)
    assert outage_exact(stat, 1.0) == pytest.approx(0.1178469876591445, rel=1e-9)
    assert sum(counted) < 8_000


def _snr_spec_cases():
    from rislink.config import preset_fading

    for preset in ("FP1", "FP2", "FP3"):
        cascade, direct = preset_fading(preset)
        yield f"{preset}-dt_only", (), direct
        for n in (1, 2):
            yield f"{preset}-combined-n{n}", (cascade,) * n, direct
        for n in (1, 2, 3):
            yield f"{preset}-ris_only-n{n}", (cascade,) * n, None
    for name, build in (
        ("heterogeneous-n2", _heterogeneous_n2_stat),
        ("heterogeneous-beta-n2", _heterogeneous_beta_n2_stat),
        ("ratio-2-3-n2", _ratio_2_3_n2_stat),
    ):
        stat = build()
        yield name, stat.ensemble.elements, stat.ensemble.direct


@pytest.mark.parametrize("functional", ["pdf", "cdf", "ber", "mgf"])
def test_snr_spec_never_evaluates_the_lattice(monkeypatch, functional):
    # every joint factor snr_spec writes is eliminated along its key: the
    # reflected-sum key nests in the SNR-sum key, with rational steps
    from rislink.channel import budget
    from rislink.config import default_geometry
    from rislink.exact_stats import snr_functional

    def no_lattice(*args):
        raise AssertionError("joint factors evaluated point by point")

    monkeypatch.setattr(foxh, "_lattice_sum", no_lattice)
    bud = budget(default_geometry(), 20.0)
    for name, elements, direct in _snr_spec_cases():
        assert math.isfinite(snr_functional(elements, direct, bud, functional, 1.0)), name


def test_more_than_max_dims_rejected_before_evaluation(monkeypatch):
    n = MAX_DIMS + 1
    terms = tuple(GammaTerm(0.0, tuple(1.0 if j == i else 0.0 for j in range(n))) for i in range(n))
    spec = FoxHSpec(args=(1.0,) * n, terms=terms, contour_re=(1.0,) * n)

    def no_evaluation(z):
        raise AssertionError("log_gamma evaluated for a rejected spec")

    monkeypatch.setattr(foxh, "log_gamma", no_evaluation)
    with pytest.raises(ValueError, match=f"at most {MAX_DIMS}"):
        eval_foxh(spec)


def residue(spec):
    log_abs, sign = leading_residue(spec)
    return sign * math.exp(log_abs)


def test_leading_residue_of_the_reduction_corpus():
    z = 1e-3
    assert residue(exp_spec(z)) == pytest.approx(1.0, rel=1e-14)
    assert residue(binomial_spec(z, 1.7)) == pytest.approx(1.0, rel=1e-14)
    # simple pole at t = nu/2, then the double pole of nu = 0: 2 K_0(2 sqrt(z)) ~ -log z - 2 gamma_E
    assert residue(bessel_spec(z, 1.5)) == pytest.approx(math.gamma(1.5) * z**-0.75, rel=1e-14)
    assert residue(bessel_spec(z, 0.0)) == pytest.approx(-math.log(z) - 2.0 * np.euler_gamma, rel=1e-14)


def test_leading_residue_of_a_triple_pole():
    # [u^2] Gamma(1+u)^3 z^-u = ((3 psi(1) - log z)^2 + 3 psi'(1)) / 2
    z = 1e-4
    spec = FoxHSpec(args=(z,), terms=(GammaTerm(0.0, (1.0,)),) * 3)
    lam = -3.0 * np.euler_gamma - math.log(z)
    assert residue(spec) == pytest.approx((lam**2 + 3.0 * math.pi**2 / 6.0) / 2.0, rel=1e-13)


def double_pole_pair(z1, z2):
    """Two variables with a double pole each at 0, coupled by a numerator and a denominator factor."""
    return FoxHSpec(
        args=(z1, z2),
        terms=(GammaTerm(0.0, (1.0, 0.0)),) * 2
        + (GammaTerm(0.0, (0.0, 1.0)),) * 2
        + (GammaTerm(2.0, (1.0, 1.0)), GammaTerm(3.0, (2.0, 2.0), sign=-1)),
    )


def test_leading_residue_of_a_class_matches_quadrature_and_split_class():
    # one variable of two members, two variables, or two when the arguments differ by 1e-12
    z = 1e-7
    pair = FoxHSpec(
        args=(z,),
        terms=(GammaTerm(0.0, (1.0,)),) * 2
        + (GammaTerm(2.0, (1.0,), joint=True), GammaTerm(3.0, (2.0,), sign=-1, joint=True)),
        counts=(2,),
    )
    value = residue(pair)
    assert _expand_members(pair) == double_pole_pair(z, z)
    assert residue(double_pole_pair(z, z)) == pytest.approx(value, rel=1e-14)
    assert residue(double_pole_pair(z, z * (1.0 + 1e-12))) == pytest.approx(value, rel=1e-9)
    exact, _ = eval_foxh(double_pole_pair(z, z), QuadratureConfig(step=0.04, rel_tol=1e-10))
    assert value == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize(
    "shape,v", [((7,), (0.6,)), ((6, 3), (0.7, -0.3)), ((2, 5, 3), (0.2, -0.5, 0.0))], ids=["1d", "2d", "3d-one-still"]
)
def test_shift_series_matches_horner(shape, v):
    # Reference: Horner's rule in the shift operator, one _shift per degree; the longest
    # moved axis takes window products, the others the binomial powers of their shift
    rng = np.random.default_rng(7)
    x, v = rng.standard_normal(shape), np.array(v)
    g = rng.standard_normal(sum(k - 1 for k, w in zip(shape, v) if w) + 1)
    acc = g[-1] * x
    for g_k in g[-2::-1]:
        acc = g_k * x + foxh._shift(acc, v)
    assert np.max(np.abs(foxh._shift_series(g, v, x) - acc)) <= 1e-12 * np.max(np.abs(acc))


def test_leading_residue_needs_a_pole_on_the_left():
    spec = FoxHSpec(args=(0.5,), terms=(GammaTerm(1.0, (1.0,), orientation=-1),))
    with pytest.raises(ValueError, match="no pole"):
        leading_residue(spec)


def test_dump_spec_mentions_every_term(tmp_path):
    import io

    buf = io.StringIO()
    dump_spec(binomial_spec(1.0, 1.7), buf)
    text = buf.getvalue()
    assert "variables: 1" in text
    assert text.count("term") == 3
    # coefficients print signed, as stored
    assert "term 1: num Gamma(1.7 - 1*t0)\n" in text
    # a zero bound prints as 0, not -0
    buf = io.StringIO()
    dump_spec(exp_spec(2.5), buf)
    assert "feasible=(0, inf)" in buf.getvalue()


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 30.0))
def test_exponential_identity_property(z):
    value, _ = eval_foxh(exp_spec(z))
    assert value == pytest.approx(math.exp(-z), rel=1e-7)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.4, 4.0))
def test_binomial_identity_property(z, a):
    value, _ = eval_foxh(binomial_spec(z, a))
    assert value == pytest.approx((1.0 + z) ** -a, rel=1e-7)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(step=-1.0)
    with pytest.raises(ValueError):
        GammaTerm(0.0, (1.0,), sign=2)
    with pytest.raises(ValueError):
        GammaTerm(0.0, (1.0,), orientation=0)


def test_orientation_is_applied_to_the_stored_coefficients():
    term = GammaTerm(2.0, (1.0, 0.5), sign=-1, orientation=-1)
    assert term.coeffs == (-1.0, -0.5)
    assert term == GammaTerm(2.0, (-1.0, -0.5), sign=-1)
