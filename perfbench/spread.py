"""Run one workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload exact-n2 --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workload verify --seeds 1-10 --trace 1 --record perfbench/baseline.json

Spread is the quartile distance (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure each end-to-end bound in BENCHMARK.json is
checked against. ``--record`` stores the summary, with the environment of
the first run, under the workload's name in a baseline file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="baseline JSON file to update")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail_path = os.path.join(HERE, "out", f"{args.workload}-seed{seed}-trace{args.trace}.json")
        with open(detail_path, encoding="utf-8") as fh:
            detail = json.load(fh)
        runs.append((seed, result, detail))
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)

    names = list(runs[0][1]["metrics"])
    summary = {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "environment": runs[0][2]["environment"],
        "all_correct": all(r["correct"] for _, r, _ in runs),
        "attempted": sum(r["attempted"] for _, r, _ in runs),
        "failed": sum(r["failed"] for _, r, _ in runs),
        "metrics": {},
    }
    for name in names:
        values = [r["metrics"][name]["value"] for _, r, _ in runs]
        summary["metrics"][name] = {"unit": runs[0][1]["metrics"][name]["unit"], **summarize(values)}
    if not args.trace:
        for name in ("exact_rel_err_max", "mc_s_at_1pct"):
            values = [d["extra"][name] for _, _, d in runs if d["extra"][name] is not None]
            if values:
                summary["metrics"][name] = summarize(values)
    for name, s in summary["metrics"].items():
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.record:
        try:
            with open(args.record, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            baseline = {}
        key = "per_layer" if args.trace else "end_to_end"
        baseline.setdefault(key, {})[args.workload] = summary
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
