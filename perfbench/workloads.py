"""Workload definitions: inputs drawn from a seed, set-up, cells and checks.

A cell is one method x quantity x preset x Pt evaluation. Each workload
turns a seed into one *pass*, an ordered list of cells; the runner repeats
that pass in a closed loop (one cell at a time) until its time is up.
Pt values come from fixed grids so that every cell has a stored reference
in ``refs.json`` (see ``make_refs.py``).
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass

PRESETS = ("FP1", "FP2", "FP3")
QUANTITIES = ("outage", "ber")
GAMMA_TH_DB = 0.0  # scenario default: outage threshold 1 (linear)
EXACT_N2_PT = (10.0, 15.0, 20.0, 25.0, 30.0)
# N=50 outage stays above ~5e-3 over this grid, so 1e6 trials never
# come back with zero outage events (DegenerateEstimate).
MC_N50_PT = (0.0, 5.0, 10.0, 15.0, 20.0)
MC_N50_TRIALS = 1_000_000
# `rislink verify` is a fixed suite: N=1, FP1, these powers, its own MC seed.
VERIFY_PT = (10.0, 15.0, 20.0, 25.0)

EXACT_REL_TOL = 1e-6  # QuadratureConfig().rel_tol, the accuracy the evaluator targets
MC_SIGMAS = 5.0  # false alarm ~6e-7 per MC check, so a run of hundreds stays clean


def ref_key(n: int, preset: str, quantity: str, pt: float) -> str:
    return f"N{n}|{preset}|{quantity}|{pt:g}"


def scenario_text(n: int, preset: str, pts, methods: str) -> str:
    return (
        f"n_elements = {n}\nfading_preset = {preset}\n"
        f"pt_dbm = {' '.join(f'{p:g}' for p in pts)}\n"
        f"gamma_th_db = {GAMMA_TH_DB:g}\nmethods = {methods}\n"
    )


@dataclass
class Cell:
    key: str  # reference key
    quantity: str
    preset: str
    pt: float
    mc_seed: int = 0


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    exact_rel_errs: tuple = ()  # |exact - ref| / ref of each exact value returned
    mc_point: tuple | None = None  # (mean, std_error) of an MC cell's estimate


def _in_range(p: float) -> bool:
    return 0.0 < p <= 1.0


def _check_exact(value: float, ref: dict) -> Outcome:
    ref = ref["value"]
    rel = abs(value - ref) / ref
    if not _in_range(value):
        return Outcome(False, f"exact {value!r} outside (0, 1]", (rel,))
    if rel > EXACT_REL_TOL:
        return Outcome(False, f"exact {value!r} vs reference {ref!r}: rel err {rel:.2e}", (rel,))
    return Outcome(True, exact_rel_errs=(rel,))


def _check_mc(mean: float, se: float, ref: dict) -> Outcome:
    if not _in_range(mean) or not se > 0:
        return Outcome(False, f"mc {mean!r} +- {se!r} outside (0, 1] or no error")
    limit = MC_SIGMAS * math.hypot(se, ref["std_error"])
    if abs(mean - ref["mean"]) > limit:
        return Outcome(False, f"mc {mean!r} vs reference {ref['mean']!r}: beyond {MC_SIGMAS:g} sigma")
    return Outcome(True, mc_point=(mean, se))


class Workload:
    """One workload: ``setup`` builds inputs, ``run_cell`` evaluates and checks one cell."""

    name = ""
    why = ""

    def __init__(self, seed: int, refs: dict):
        self.refs = refs
        self.cells = self.make_pass(random.Random(seed))

    def make_pass(self, rng: random.Random) -> list[Cell]:
        raise NotImplementedError

    def setup(self, rl) -> None:
        """Parse scenarios and build budgets/stats; ``rl`` holds the imported rislink modules."""
        raise NotImplementedError

    def run_cell(self, rl, cell: Cell, repeat: int) -> Outcome:
        raise NotImplementedError


def _seeded_cells(rng: random.Random, n: int, pts) -> list[Cell]:
    """One cell per preset with a drawn Pt and quantity, in a drawn order."""
    cells = []
    for preset in PRESETS:
        pt = rng.choice(pts)
        q = rng.choice(QUANTITIES)
        cells.append(Cell(ref_key(n, preset, q, pt), q, preset, pt))
    rng.shuffle(cells)
    return cells


class ExactN2(Workload):
    name = "exact-n2"
    why = "exact N=2 outage/BER (3 contour variables): the K^3 tensor grid, log_gamma-bound; MC idle"

    def make_pass(self, rng):
        return _seeded_cells(rng, 2, EXACT_N2_PT)

    def setup(self, rl):
        self.stats = {}
        for preset in PRESETS:
            cfg = rl.config.parse_config_text(scenario_text(2, preset, EXACT_N2_PT, "exact"))
            ensemble = cfg.system.ensemble()
            for pt in cfg.pt_dbm:
                bud = rl.channel.budget(cfg.system.geometry, pt, cfg.system.noise_dbm)
                self.stats[preset, pt] = rl.exact_stats.combined_snr_stat(ensemble, bud)
            self.gamma_th = cfg.gamma_th
            self.mod = rl.metrics.ModulationParams(cfg.modulation_a, cfg.modulation_b)

    def run_cell(self, rl, cell, repeat):
        stat = self.stats[cell.preset, cell.pt]
        if cell.quantity == "outage":
            value = rl.metrics.outage_exact(stat, self.gamma_th)
        else:
            value = rl.metrics.ber_exact(stat, self.mod)
        return _check_exact(value, self.refs[cell.key])


class McN50(Workload):
    name = "mc-n50"
    why = "Monte-Carlo N=50 outage/BER, 1e6 trials per cell: montecarlo+dgg sampling only; contour idle"

    def make_pass(self, rng):
        cells = _seeded_cells(rng, 50, MC_N50_PT)
        for c in cells:
            c.mc_seed = rng.randrange(1 << 31)
        return cells

    def setup(self, rl):
        self.systems = {}
        for preset in PRESETS:
            cfg = rl.config.parse_config_text(scenario_text(50, preset, MC_N50_PT, "mc"))
            self.systems[preset] = cfg.system
            self.gamma_th = cfg.gamma_th
            self.mod = rl.metrics.ModulationParams(cfg.modulation_a, cfg.modulation_b)

    def run_cell(self, rl, cell, repeat):
        # A repeated pass draws fresh trials, so no two cells of a run share a stream.
        plan = rl.montecarlo.SimPlan(
            config=self.systems[cell.preset],
            pt_dbm=cell.pt,
            n_trials=MC_N50_TRIALS,
            master_seed=cell.mc_seed + repeat,
        )
        if cell.quantity == "outage":
            est = rl.montecarlo.estimate_outage(plan, self.gamma_th)
        else:
            est = rl.montecarlo.estimate_ber(plan, self.mod)
        return _check_mc(est.mean, est.std_error, self.refs[cell.key])


class Verify(Workload):
    name = "verify"
    why = "`rislink verify` via cli.main: many small N=1 contours (per-call cost) plus 200k-trial MC, cli/config"

    def make_pass(self, rng):
        # verify fixes its own inputs (N=1, FP1, four powers, MC seed 0), so the
        # seed changes nothing: the workload is the command as users run it.
        return [Cell("verify", "both", "FP1", 0.0)]

    def setup(self, rl):
        self.argv = ["verify", "--quiet"]

    def run_cell(self, rl, cell, repeat):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rl.cli.main(self.argv)
        text = out.getvalue()
        if code != 0:
            return Outcome(False, f"verify exited {code}")
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        if [float(r["pt_dbm"]) for r in rows] != list(VERIFY_PT):
            return Outcome(False, "verify rows do not match its Pt suite")
        rel_errs = []
        for row in rows:
            if float(row["within_3sigma"]) != 1.0:
                return Outcome(False, f"verify row pt={row['pt_dbm']} outside 3 sigma")
            pt = float(row["pt_dbm"])
            for q in QUANTITIES:
                check = _check_exact(float(row[f"{q}_exact"]), self.refs[ref_key(1, "FP1", q, pt)])
                if not check.ok:
                    return check
                rel_errs += check.exact_rel_errs
                mean, se = float(row[f"{q}_mc"]), float(row[f"{q}_mc_se"])
                if not (_in_range(mean) and se > 0):
                    return Outcome(False, f"verify {q}_mc {mean!r} outside (0, 1]")
        return Outcome(True, exact_rel_errs=tuple(rel_errs))


WORKLOADS = {w.name: w for w in (ExactN2, McN50, Verify)}
