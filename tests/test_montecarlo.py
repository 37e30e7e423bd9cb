"""Monte-Carlo route: determinism and moment checks."""
import math
import threading

import numpy as np
import pytest

from rislink.channel import budget, relay_hop_budgets
from rislink.config import SCENARIOS, preset_system
from rislink.dgg import dgg_moment, dgg_sample
from rislink.metrics import ModulationParams
from rislink import montecarlo
from rislink.montecarlo import (
    DegenerateEstimate,
    SimPlan,
    estimate_ber,
    estimate_outage,
    simulate_snr,
    tally,
    tally_sweep,
)

MOD = ModulationParams(a=1.0, b=1.0)


def make_plan(n=1, pt=20.0, trials=100_000, seed=0, scenario="combined"):
    return SimPlan(
        config=preset_system("FP1", n),
        pt_dbm=pt,
        n_trials=trials,
        master_seed=seed,
        scenario=scenario,
    )


def test_estimates_are_deterministic():
    plan = make_plan(trials=150_000)
    a = estimate_outage(plan, 1.0)
    b = estimate_outage(plan, 1.0)
    assert a == b
    assert estimate_ber(plan, MOD) == estimate_ber(plan, MOD)


def test_seed_changes_estimate():
    a = estimate_outage(make_plan(seed=0), 1.0).mean
    b = estimate_outage(make_plan(seed=1), 1.0).mean
    assert a != b
    # but only at the Monte-Carlo noise level
    assert a == pytest.approx(b, abs=0.01)


def test_partial_last_unit_consistent():
    # n_trials not a multiple of the unit size still deterministic
    plan = make_plan(trials=150_001)
    assert estimate_outage(plan, 1.0) == estimate_outage(plan, 1.0)
    assert estimate_outage(plan, 1.0).n == 150_001


def test_mean_snr_matches_moments():
    # E[snr] = gamma0_ris * E[(sum h_i)^2] + gamma0_d * E[h_d^2]
    cfg = preset_system("FP1", 3)
    bud = budget(cfg.geometry, 20.0, cfg.noise_dbm)
    m1 = dgg_moment(cfg.elements[0], 1.0)
    m2 = dgg_moment(cfg.elements[0], 2.0)
    n = 3
    expect = bud.gamma0_ris * (n * m2 + n * (n - 1) * m1**2)
    expect += bud.gamma0_d * dgg_moment(cfg.direct, 2.0)
    plan = make_plan(n=3, trials=400_000)
    rng = np.random.default_rng(17)
    snr = simulate_snr(plan, rng, 400_000)
    se = float(np.std(snr)) / math.sqrt(snr.size)
    assert float(np.mean(snr)) == pytest.approx(expect, abs=5 * se)


def test_df_relay_outage_matches_product_rule():
    # min(snr1, snr2) survives iff both hops survive; cross-check the
    # joint simulation against independently simulated per-hop outages
    cfg = preset_system("FP1", 1)
    pt, gamma_th = 10.0, 1.0
    plan = make_plan(pt=pt, trials=400_000, scenario="df_relay")
    joint = estimate_outage(plan, gamma_th)
    g1, g2 = relay_hop_budgets(cfg.geometry, pt, cfg.noise_dbm)
    rng = np.random.default_rng(41)
    hop = cfg.elements[0]
    p1 = float(np.mean(g1 * dgg_sample(hop.hop1, rng, 400_000) ** 2 <= gamma_th))
    p2 = float(np.mean(g2 * dgg_sample(hop.hop2, rng, 400_000) ** 2 <= gamma_th))
    expect = 1.0 - (1.0 - p1) * (1.0 - p2)
    assert joint.mean == pytest.approx(expect, abs=5 * joint.std_error + 0.005)


def test_scenarios_ordered_by_strength():
    # adding the direct branch can only reduce outage
    pt = 0.0
    combined = estimate_outage(make_plan(pt=pt), 1.0).mean
    ris_only = estimate_outage(make_plan(pt=pt, scenario="ris_only"), 1.0).mean
    assert combined <= ris_only


def test_degenerate_zero_failures():
    plan = make_plan(pt=60.0, trials=10_000)
    with pytest.raises(DegenerateEstimate) as exc:
        estimate_outage(plan, 1e-12)
    assert exc.value.upper_bound == pytest.approx(3.0 / 10_000)


def test_threshold_edge_cases():
    plan = make_plan(trials=10_000)
    assert estimate_outage(plan, 0.0).mean == 0.0
    assert estimate_outage(plan, math.inf).mean == 1.0
    with pytest.raises(ValueError):
        estimate_outage(plan, -1.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(trials=100)
    with pytest.raises(ValueError):
        make_plan(scenario="bogus")
    assert set(SCENARIOS) == {"combined", "ris_only", "dt_only", "df_relay"}


def test_ber_standard_error_positive():
    est = estimate_ber(make_plan(trials=50_000), MOD)
    assert 0.0 < est.mean < 1.0
    assert est.std_error > 0.0


# (preset, N, scenario, Pt dBm) -> (outage, BER) at master_seed 0,
# 150_001 trials, gamma_th 1 and ModulationParams(1, 1). Any change to
# the order or number of draws in a unit's stream moves these values.
FROZEN = [
    ("FP1", 2, "combined", 20.0, 0.11828587809414604, 0.031065747131432325),
    ("FP2", 3, "ris_only", 100.0, 0.0019933200445330364, 0.0005021706271520151),
    ("FP3", 1, "dt_only", 20.0, 0.005613295911360591, 0.0016162436670266384),
    ("FP1", 1, "df_relay", 20.0, 0.23890507396617355, 0.056988201237584274),
]


def frozen_plan(preset, n, scenario, pt):
    return SimPlan(preset_system(preset, n), pt, n_trials=150_001, master_seed=0, scenario=scenario)


@pytest.mark.parametrize("preset,n,scenario,pt,outage,ber", FROZEN, ids=[row[2] for row in FROZEN])
def test_streams_frozen(preset, n, scenario, pt, outage, ber):
    plan = frozen_plan(preset, n, scenario, pt)
    assert estimate_outage(plan, 1.0).mean == outage
    assert estimate_ber(plan, MOD).mean == ber


def test_estimates_independent_of_worker_count(monkeypatch):
    # 150_001 trials: one full unit and a one-trial partial unit.
    assert {row[2] for row in FROZEN} == set(SCENARIOS)
    results = {}
    for workers in (1, 3):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
        for preset, n, scenario, pt, _, _ in FROZEN:
            plan = frozen_plan(preset, n, scenario, pt)
            threads = threading.active_count()
            out = estimate_outage(plan, 1.0)
            assert threading.active_count() == threads
            ber = estimate_ber(plan, MOD)
            assert threading.active_count() == threads
            results.setdefault(scenario, []).append((out, ber))
    for scenario, (serial, pooled) in results.items():
        assert serial == pooled, scenario


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_tallies_equal_one_power_tallies(monkeypatch, workers):
    # 150_001 trials: one full unit and a one-trial partial unit, each drawn once for three powers
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
    assert {row[2] for row in FROZEN} == set(SCENARIOS)
    for preset, n, scenario, pt, _, _ in FROZEN:
        plans = [frozen_plan(preset, n, scenario, pt + step) for step in (-10.0, 0.0, 10.0)]
        threads = threading.active_count()
        sweep = tally_sweep(plans, 1.0, MOD)
        assert threading.active_count() == threads
        assert sweep == tuple(tally(plan, 1.0, MOD) for plan in plans), scenario


def test_empty_sweep_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("an empty sweep started a pool")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    assert tally_sweep((), 1.0, MOD) == ()
    assert tally_sweep(iter([]), mod=MOD) == ()


def test_sweep_plans_differ_only_in_power():
    with pytest.raises(ValueError, match="only in pt_dbm"):
        tally_sweep([make_plan(pt=10.0), make_plan(pt=20.0, seed=1)], 1.0)


def test_one_pass_serves_both_quantities():
    plan = make_plan(pt=10.0, trials=150_001)
    both = tally(plan, 1.0, MOD)
    assert both.outage() == estimate_outage(plan, 1.0)
    assert both.ber() == estimate_ber(plan, MOD)
    with pytest.raises(ValueError):
        tally(plan, gamma_th=1.0).ber()
    with pytest.raises(ValueError):
        tally(plan, mod=MOD).outage()


@pytest.mark.parametrize("gamma_th", [-1.0, math.nan])
def test_negative_or_nan_threshold_rejected(gamma_th):
    # a NaN threshold compares false with every SNR: it would count no failures
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_outage(make_plan(trials=10_000), gamma_th)


def test_degenerate_outage_keeps_ber():
    plan = make_plan(pt=60.0, trials=10_000)
    both = tally(plan, 1e-12, MOD)
    with pytest.raises(DegenerateEstimate):
        both.outage()
    assert both.ber() == estimate_ber(plan, MOD)


def test_single_quantity_does_no_extra_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    plan = make_plan(trials=10_000)
    monkeypatch.setattr(montecarlo, "erfc", forbidden)
    assert estimate_outage(plan, 1.0).mean > 0.0
    monkeypatch.setattr(montecarlo, "_draw_gains", forbidden)
    assert estimate_outage(plan, 0.0).mean == 0.0
    assert estimate_outage(plan, math.inf).mean == 1.0
