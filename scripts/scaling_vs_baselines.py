#!/usr/bin/env python3
"""Reflected-link scaling versus direct transmission and DF relaying.

Sweeps transmit power and estimates outage and average BER of the
RIS-only link for several element counts, next to the direct-transmission
and decode-and-forward baselines. Writes one CSV per quantity.

Usage: python3 scripts/scaling_vs_baselines.py [--trials T] [--seed S]
           [--outdir DIR]
"""
from __future__ import annotations

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rislink.config import preset_system
from rislink.metrics import ModulationParams
from rislink.montecarlo import McTally, SimPlan, tally

ELEMENT_COUNTS = (10, 20, 50)
PT_DBM = [float(p) for p in range(0, 31, 5)]


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mod = ModulationParams(a=1.0, b=1.0)
    gamma_th = 1.0  # 0 dB threshold

    header = ["pt_dbm", "dt_outage", "df_outage", "dt_ber", "df_ber"]
    for n in ELEMENT_COUNTS:
        header += [f"ris{n}_outage", f"ris{n}_ber"]

    rows = []
    for pt in PT_DBM:
        cfg = preset_system("FP1", 1)
        dt = SimPlan(config=cfg, pt_dbm=pt, n_trials=args.trials, master_seed=args.seed, scenario="dt_only")
        df = SimPlan(config=cfg, pt_dbm=pt, n_trials=args.trials, master_seed=args.seed, scenario="df_relay")
        dt_mc, df_mc = tally(dt, gamma_th, mod), tally(df, gamma_th, mod)
        row = [
            pt,
            outage_cell(dt_mc, pt, "dt"),
            outage_cell(df_mc, pt, "df relay"),
            dt_mc.ber().mean,
            df_mc.ber().mean,
        ]
        for n in ELEMENT_COUNTS:
            cfg_n = preset_system("FP1", n)
            ris = SimPlan(
                config=cfg_n, pt_dbm=pt, n_trials=args.trials, master_seed=args.seed, scenario="ris_only"
            )
            mc = tally(ris, gamma_th, mod)
            row.append(outage_cell(mc, pt, f"RIS N={n}"))
            row.append(mc.ber().mean)
        rows.append(row)
        print(f"pt={pt:g} dBm done", file=sys.stderr)

    path = outdir / "scaling_vs_baselines.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
