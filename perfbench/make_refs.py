"""Generate perfbench/refs.json, the reference value of every benchmark cell.

    python3 perfbench/make_refs.py --jobs 2

Exact cells (N=2 of exact-n2, N=1 of verify) are recomputed with a tighter
QuadratureConfig than the library default. Monte-Carlo cells (N=50 of
mc-n50) come from an independent seed with 10x the trials of a benchmark
cell; outage and BER are taken from the same draws. Takes about 25 min on
2 CPUs.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    EXACT_N2_PT,
    GAMMA_TH_DB,
    MC_N50_PT,
    MC_N50_TRIALS,
    PRESETS,
    QUANTITIES,
    VERIFY_PT,
    ref_key,
    scenario_text,
)

TIGHT = {"rel_tol": 1e-9, "step": 0.04}
REF_TRIALS = 10 * MC_N50_TRIALS
REF_UNIT = 100_000
# Far outside the seeds the benchmark draws (< 2**31 + repeats), so streams are independent.
REF_ENTROPY = 10**15


def _exact(task):
    n, preset, pt = task
    from rislink import channel, config, exact_stats, foxh, metrics

    cfg = config.parse_config_text(scenario_text(n, preset, [pt], "exact"))
    bud = channel.budget(cfg.system.geometry, pt, cfg.system.noise_dbm)
    stat = exact_stats.combined_snr_stat(cfg.system.ensemble(), bud)
    quad = foxh.QuadratureConfig(**TIGHT)
    mod = metrics.ModulationParams(cfg.modulation_a, cfg.modulation_b)
    values = {
        "outage": metrics.outage_exact(stat, cfg.gamma_th, quad),
        "ber": metrics.ber_exact(stat, mod, quad),
    }
    return {ref_key(n, preset, q, pt): {"value": values[q]} for q in QUANTITIES}


def _mc(task):
    n, preset, pt = task
    import numpy as np
    from scipy.special import erfc

    from rislink import config, montecarlo

    cfg = config.parse_config_text(scenario_text(n, preset, [pt], "mc"))
    plan = montecarlo.SimPlan(config=cfg.system, pt_dbm=pt, n_trials=REF_TRIALS)
    entropy = REF_ENTROPY + PRESETS.index(preset) * 1000 + int(pt * 10)
    outages = 0
    err_sum = err_sq = 0.0
    for unit in range(REF_TRIALS // REF_UNIT):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(unit,)))
        snr = montecarlo.simulate_snr(plan, rng, REF_UNIT)
        outages += int(np.count_nonzero(snr <= cfg.gamma_th))
        err = cfg.modulation_a * 0.5 * erfc(np.sqrt(cfg.modulation_b * snr))
        err_sum += math.fsum(err)
        err_sq += math.fsum(err * err)
    p = outages / REF_TRIALS
    ber = err_sum / REF_TRIALS
    ber_var = max(err_sq / REF_TRIALS - ber * ber, 0.0)
    common = {"trials": REF_TRIALS, "entropy": entropy}
    return {
        ref_key(n, preset, "outage", pt): {
            "mean": p, "std_error": math.sqrt(p * (1.0 - p) / REF_TRIALS), **common},
        ref_key(n, preset, "ber", pt): {
            "mean": ber, "std_error": math.sqrt(ber_var / REF_TRIALS), **common},
    }


def _run(job):
    kind, task = job
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    t = time.perf_counter()
    out = (_exact if kind == "exact" else _mc)(task)
    print(f"{kind} {task}: {time.perf_counter() - t:.1f} s", file=sys.stderr, flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", default=os.path.join(HERE, "refs.json"))
    args = parser.parse_args()
    jobs = [("exact", (2, p, pt)) for p in PRESETS for pt in EXACT_N2_PT]
    jobs += [("mc", (50, p, pt)) for p in PRESETS for pt in MC_N50_PT]
    jobs += [("exact", (1, "FP1", pt)) for pt in VERIFY_PT]
    cells = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        for part in pool.imap_unordered(_run, jobs):
            cells.update(part)
    payload = {
        "generated_by": "python3 perfbench/make_refs.py --jobs 2",
        "exact_quadrature": TIGHT,
        "mc_trials": REF_TRIALS,
        "gamma_th_db": GAMMA_TH_DB,
        "cells": dict(sorted(cells.items())),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
