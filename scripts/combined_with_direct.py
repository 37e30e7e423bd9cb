#!/usr/bin/env python3
"""Combined reflected + direct link across fading presets and array sizes.

Sweeps transmit power for N in {10, 50} with FP1 direct-link fading and
FP1/FP2/FP3 reflected-link fading, estimating outage and average BER of
the coherently combined SNR by Monte-Carlo (exact evaluation is capped at
small N). Also records the direct-only curve for reference.

Usage: python3 scripts/combined_with_direct.py [--trials T] [--seed S]
           [--outdir DIR]
"""
from __future__ import annotations

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rislink.config import SystemConfig, default_geometry, preset_fading
from rislink.metrics import ModulationParams
from rislink.montecarlo import McTally, SimPlan, tally

ELEMENT_COUNTS = (10, 50)
RIS_PRESETS = ("FP1", "FP2", "FP3")
PT_DBM = [float(p) for p in range(-10, 31, 5)]


def outage_cell(mc: McTally, pt: float, label: str) -> float | None:
    """Outage estimate, or None (an empty CSV cell) with the reason on stderr.

    A DegenerateEstimate (no outage events seen) says its rule-of-three
    upper bound in that message.
    """
    try:
        return mc.outage().mean
    except RuntimeError as exc:
        print(f"warning: {label} outage at {pt:g} dBm left empty: {exc}", file=sys.stderr)
        return None


def mixed_system(ris_preset: str, n: int) -> SystemConfig:
    """FP1 direct link combined with the requested reflected-link preset."""
    cascade, _ = preset_fading(ris_preset)
    _, direct = preset_fading("FP1")
    return SystemConfig(
        geometry=default_geometry(), noise_dbm=-74.0, elements=(cascade,) * n, direct=direct
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mod = ModulationParams(a=1.0, b=1.0)
    gamma_th = 1.0

    header = ["pt_dbm", "dt_outage", "dt_ber"]
    combos = [(p, n) for p in RIS_PRESETS for n in ELEMENT_COUNTS]
    for preset, n in combos:
        header += [f"{preset.lower()}_n{n}_outage", f"{preset.lower()}_n{n}_ber"]

    rows = []
    for pt in PT_DBM:
        base = mixed_system("FP1", 1)
        dt = SimPlan(
            config=base, pt_dbm=pt, n_trials=args.trials, master_seed=args.seed, scenario="dt_only"
        )
        dt_mc = tally(dt, gamma_th, mod)
        row = [pt, outage_cell(dt_mc, pt, "dt"), dt_mc.ber().mean]
        for preset, n in combos:
            plan = SimPlan(
                config=mixed_system(preset, n),
                pt_dbm=pt,
                n_trials=args.trials,
                master_seed=args.seed,
                scenario="combined",
            )
            mc = tally(plan, gamma_th, mod)
            row.append(outage_cell(mc, pt, f"{preset} N={n}"))
            row.append(mc.ber().mean)
        rows.append(row)
        print(f"pt={pt:g} dBm done", file=sys.stderr)

    path = outdir / "combined_with_direct.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
