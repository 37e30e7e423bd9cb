#!/usr/bin/env python3
"""Regenerate the paper curves: results/<name>.csv for every scenarios/<name>.cfg.

Each curve is one sweep of outage and average BER; a point that cannot
be estimated is left empty and its warning goes to stderr and into the
CSV metadata.

Usage: python3 scripts/paper_curves.py
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rislink.cli import emit_csv, run_sweep  # noqa: E402
from rislink.config import load_config  # noqa: E402

for cfg_path in sorted((ROOT / "scenarios").glob("*.cfg")):
    result = run_sweep(load_config(str(cfg_path)), "both")
    out = ROOT / "results" / f"{cfg_path.stem}.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        emit_csv(result, fh)
    for w in result.warnings:
        print(f"warning: {cfg_path.stem}: {w}", file=sys.stderr)
    print(f"wrote {out.relative_to(ROOT)}")
