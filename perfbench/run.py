"""rislink benchmark: one workload, closed loop, every result checked.

    python3 perfbench/run.py --workload exact-n2 --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports ``rislink`` from its
``src/``. The workload's pass (its list of cells, drawn from ``--seed``) runs
one cell at a time, over and over, while the next cell is expected to end
within ``--seconds`` (at least one whole pass). The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Details of every run (per-cell times, set-up samples,
environment) go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

# Before numpy is imported anywhere: one BLAS/OpenMP thread, so runs do not
# depend on how many cores a pool would grab.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of these and the run's own
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Outcome  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "cell_s_p50": "s", "peak_rss_mb": "MB"}


class RislinkModules:
    """The rislink modules, imported from this checkout's ``src/``."""

    MODULES = ("special", "foxh", "dgg", "channel", "exact_stats", "metrics", "montecarlo", "config", "cli")

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "rislink", "__init__.py")):
            raise SystemExit(f"error: no rislink sources under {SRC}; run from a source checkout")
        sys.path.insert(0, SRC)
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"rislink.{name}"))
        where = os.path.dirname(os.path.abspath(self.cli.__file__))
        if where != os.path.join(SRC, "rislink"):
            raise SystemExit(f"error: rislink imported from {where}, not from {SRC}")


def _import_rislink():
    """(modules, seconds the import took)."""
    t = time.perf_counter()
    rl = RislinkModules()
    return rl, time.perf_counter() - t


def _probe_setup(name: str) -> float:
    workload = WORKLOADS[name](0, {})
    rl, import_s = _import_rislink()
    t = time.perf_counter()
    workload.setup(rl)
    return import_s + time.perf_counter() - t


def _child_setups(name: str, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
    }


def run(args) -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["cells"]
    workload = WORKLOADS[args.workload](args.seed, refs)
    tracer = None

    rl, import_s = _import_rislink()
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(rl)
    t = time.perf_counter()
    workload.setup(rl)
    setup_own = import_s + time.perf_counter() - t

    # Closed loop, one cell at a time, cycling through the pass: the next
    # cell starts only while the mean cell so far is expected to end
    # within --seconds, and the first pass always completes.
    run_cell = tracer.wrap("bench.cell", workload.run_cell, None) if tracer else workload.run_cell
    n = len(workload.cells)
    cells = []  # (pass index, cell index, seconds, outcome)
    deadline = time.perf_counter() + args.seconds
    spent = 0.0
    while len(cells) < n or time.perf_counter() + spent / len(cells) <= deadline:
        repeat, i = divmod(len(cells), n)
        if tracer:
            tracer.cell = f"p{repeat}c{i}"
        t = time.perf_counter()
        try:
            outcome = run_cell(rl, workload.cells[i], repeat)
        except Exception:
            outcome = Outcome(False, traceback.format_exc())
        cell_s = time.perf_counter() - t
        spent += cell_s
        cells.append((repeat, i, cell_s, outcome))
    peak_rss = _peak_rss_mb()
    # A traced run reports no setup_s, so it skips the extra set-ups.
    setups = [setup_own] + ([] if tracer else _child_setups(args.workload, SETUP_PROBES))

    rel_errs = [e for *_, o in cells for e in o.exact_rel_errs]
    # Each cell of the pass timed as the median of its repeats, so that
    # which cells a partial last pass repeated does not move the figures.
    pass_cell_s = [statistics.median(s for _, j, s, _ in cells if j == i) for i in range(n)]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "sweep_s": math.fsum(pass_cell_s),
        "cell_s_p50": statistics.median(pass_cell_s),
        "peak_rss_mb": peak_rss,
    }
    mc_cells = [(s, o.mc_point) for *_, s, o in cells if o.mc_point]
    extra = {
        "fail_ratio": sum(not o.ok for *_, o in cells) / len(cells),
        "exact_rel_err_max": max(rel_errs) if rel_errs else None,
        "mc_s_at_1pct": statistics.median(s * (se / (0.01 * m)) ** 2 for s, (m, se) in mc_cells)
        if mc_cells else None,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(),
        "pass": [vars(c) for c in workload.cells],
        "cells": [{"pass": p, "cell": i, "s": s, "ok": o.ok, "detail": o.detail} for p, i, s, o in cells],
        "setup_samples_s": setups,
        "end_to_end": end_to_end, "extra": extra,
    }
    if tracer:
        from spans import layer_metrics

        first_pass = {"setup"} | {f"p0c{i}" for i in range(n)}
        layers = layer_metrics(tracer.spans, first_pass)
        layers["exact_rel_err_max"] = max(
            (e for p, _, _, o in cells if p == 0 for e in o.exact_rel_errs), default=0.0)
        layers["trace.sweep_s"] = end_to_end["sweep_s"]
        record["per_layer"] = layers
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write_jsonl(stem + ".spans.jsonl")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rislink benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(_probe_setup(args.workload)))
        return 0

    record = run(args)
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(env))
    n_cells = len(record["cells"])
    n_failed = sum(not c["ok"] for c in record["cells"])
    for c in record["cells"]:
        if not c["ok"]:
            print(f"FAILED pass {c['pass']} cell {c['cell']}: {c['detail']}", file=sys.stderr)
    if args.trace:
        from spans import LAYER_UNITS

        metrics, units = record["per_layer"], LAYER_UNITS
    else:
        metrics, units = record["end_to_end"], END_TO_END_UNITS
    for name, value in {**record["end_to_end"], **record["extra"]}.items():
        print(f"# {name} = {value}")
    result = {
        "correct": n_failed == 0,
        "attempted": n_cells,
        "failed": n_failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
