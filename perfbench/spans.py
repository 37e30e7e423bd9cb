"""Spans around rislink's public functions, installed from outside the library.

Modules import each other with ``from .x import y``, so a function is wrapped
in every rislink module namespace that holds it: the caller's own reference
is the one replaced. Spans (name, start, end, parent, cell) stay in memory
and are written as JSONL when the run ends; self times are derived from
them afterwards.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import time

import numpy as np


def _log_gamma_attrs(args, kwargs, result, exc):
    return {"elements": int(np.size(args[0]))}


def _eval_foxh_attrs(args, kwargs, result, exc):
    attrs = {"dims": args[0].num_vars}
    if exc is not None:
        attrs["not_converged"] = type(exc).__name__ == "NotConverged"
    elif result[0]:
        attrs["err_rel"] = result[1] / abs(result[0])
    return attrs


def _probability_attrs(args, kwargs, result, exc):
    # ber_exact signals a value outside (0, 1) with a plain RuntimeError.
    if exc is not None:
        return {"out_of_range": type(exc) is RuntimeError}
    return {"out_of_range": not 0.0 < result <= 1.0}


def _estimate_attrs(args, kwargs, result, exc):
    attrs = {"trials": args[0].n_trials}
    if exc is not None:
        attrs["degenerate"] = type(exc).__name__ == "DegenerateEstimate"
    else:
        attrs["mean"], attrs["std_error"] = result.mean, result.std_error
    return attrs


def _draws_attrs(args, kwargs, result, exc):
    return {"draws": int(args[2])}


# (span name, module, function, namespaces to patch or None for every rislink module, attrs)
TARGETS = (
    ("special.log_gamma", "special", "log_gamma", None, _log_gamma_attrs),
    ("foxh.eval_foxh", "foxh", "eval_foxh", None, _eval_foxh_attrs),
    ("exact_stats.gamma_cdf", "exact_stats", "gamma_cdf", None, None),
    ("exact_stats.gamma_pdf", "exact_stats", "gamma_pdf", None, None),
    ("metrics.outage_exact", "metrics", "outage_exact", None, _probability_attrs),
    ("metrics.ber_exact", "metrics", "ber_exact", None, _probability_attrs),
    ("montecarlo.estimate_outage", "montecarlo", "estimate_outage", None, _estimate_attrs),
    ("montecarlo.estimate_ber", "montecarlo", "estimate_ber", None, _estimate_attrs),
    # Only the simulator's references: cascade_sample calls dgg_sample itself,
    # and wrapping that inner call would count its draws twice.
    ("dgg.dgg_sample", "dgg", "dgg_sample", ("montecarlo",), _draws_attrs),
    ("dgg.cascade_sample", "dgg", "cascade_sample", ("montecarlo",), _draws_attrs),
    ("channel.budget", "channel", "budget", None, None),
    ("config.parse_config_text", "config", "parse_config_text", None, None),
    ("config.config_hash", "config", "config_hash", None, None),
    ("cli.run_sweep", "cli", "run_sweep", None, None),
    ("cli.emit_csv", "cli", "emit_csv", None, None),
)


# Per-layer metric -> unit, in report order. Counts of one seed repeat exactly.
LAYER_UNITS = {
    "special.log_gamma.calls": "count",
    "special.log_gamma.elements": "count",
    "special.log_gamma.self_s": "s",
    "foxh.eval_foxh.calls": "count",
    "foxh.eval_foxh.self_s": "s",
    "foxh.eval_foxh.dims_max": "count",
    "foxh.eval_foxh.not_converged": "count",
    "foxh.eval_foxh.err_rel_max": "ratio",
    "foxh.lg_elements_per_call": "elem/call",
    "exact_stats.self_s": "s",
    "metrics.outage_exact.s": "s",
    "metrics.ber_exact.s": "s",
    "metrics.self_s": "s",
    "metrics.out_of_range": "count",
    "montecarlo.trials": "count",
    "montecarlo.self_s": "s",
    "montecarlo.degenerate": "count",
    "montecarlo.s_at_1pct": "s",
    "dgg.sample.draws": "count",
    "dgg.sample.self_s": "s",
    "channel.budget.s": "s",
    "config.parse_s": "s",
    "config.hash_s": "s",
    "cli.run_sweep.self_s": "s",
    "cli.emit_csv.s": "s",
    "exact_rel_err_max": "ratio",
    "trace.sweep_s": "s",
}


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or -1, cell id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cell = "setup"

    def wrap(self, name, fn, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, tracer.cell, None]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if attrs_fn is not None:
                    rec[5] = attrs_fn(args, kwargs, result, exc)

        return wrapper

    def install(self, rl) -> None:
        """Replace every reference to each target in the rislink modules of ``rl``."""
        modules = {name: getattr(rl, name) for name in rl.MODULES}
        for name, home, attr, where, attrs_fn in TARGETS:
            fn = getattr(modules[home], attr)
            wrapper = self.wrap(name, fn, attrs_fn)
            for mod_name in where or modules:
                mod = modules[mod_name]
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, cell, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "cell": cell}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, cells) -> dict[str, float]:
    """Per-layer metrics over the spans whose cell id is in ``cells``."""
    selves = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    attrs: dict[str, list] = {}
    for (name, start, end, _, cell, a), own in zip(spans, selves):
        if cell not in cells:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        if a:
            attrs.setdefault(name, []).append(a)

    def total(d, *names):
        return math.fsum(d.get(n, 0.0) for n in names)

    def attr_sum(names, key):
        return sum(a.get(key, 0) for n in names for a in attrs.get(n, ()))

    foxh = attrs.get("foxh.eval_foxh", [])
    estimates = ("montecarlo.estimate_outage", "montecarlo.estimate_ber")
    samplers = ("dgg.dgg_sample", "dgg.cascade_sample")
    metric_fns = ("metrics.outage_exact", "metrics.ber_exact")
    lg_elements = attr_sum(["special.log_gamma"], "elements")
    foxh_calls = calls.get("foxh.eval_foxh", 0)
    at_1pct = [
        (end - start) * (a["std_error"] / (0.01 * a["mean"])) ** 2
        for name, start, end, _, cell, a in spans
        if cell in cells and name in estimates and a and a.get("mean")
    ]
    return {
        "special.log_gamma.calls": calls.get("special.log_gamma", 0),
        "special.log_gamma.elements": lg_elements,
        "special.log_gamma.self_s": total(self_s, "special.log_gamma"),
        "foxh.eval_foxh.calls": foxh_calls,
        "foxh.eval_foxh.self_s": total(self_s, "foxh.eval_foxh"),
        "foxh.eval_foxh.dims_max": max((a["dims"] for a in foxh), default=0),
        "foxh.eval_foxh.not_converged": sum(bool(a.get("not_converged")) for a in foxh),
        "foxh.eval_foxh.err_rel_max": max((a["err_rel"] for a in foxh if "err_rel" in a), default=0.0),
        "foxh.lg_elements_per_call": lg_elements / foxh_calls if foxh_calls else 0.0,
        "exact_stats.self_s": total(self_s, "exact_stats.gamma_cdf", "exact_stats.gamma_pdf"),
        "metrics.outage_exact.s": total(incl_s, "metrics.outage_exact"),
        "metrics.ber_exact.s": total(incl_s, "metrics.ber_exact"),
        "metrics.self_s": total(self_s, *metric_fns),
        "metrics.out_of_range": sum(bool(a["out_of_range"]) for n in metric_fns for a in attrs.get(n, ())),
        "montecarlo.trials": attr_sum(estimates, "trials"),
        "montecarlo.self_s": total(self_s, *estimates),
        "montecarlo.degenerate": sum(bool(a.get("degenerate")) for n in estimates for a in attrs.get(n, ())),
        "montecarlo.s_at_1pct": statistics.median(at_1pct) if at_1pct else 0.0,
        "dgg.sample.draws": attr_sum(samplers, "draws"),
        "dgg.sample.self_s": total(self_s, *samplers),
        "channel.budget.s": total(incl_s, "channel.budget"),
        "config.parse_s": total(incl_s, "config.parse_config_text"),
        "config.hash_s": total(incl_s, "config.config_hash"),
        "cli.run_sweep.self_s": total(self_s, "cli.run_sweep"),
        "cli.emit_csv.s": total(incl_s, "cli.emit_csv"),
    }
