"""Command-line sweep runner with deterministic CSV output.

Subcommands: ``outage`` and ``ber`` run a configured transmit-power sweep,
``diversity`` prints diversity orders, ``verify`` cross-checks the exact
evaluator against Monte-Carlo, and ``foxh-eval`` evaluates a contour-
integral spec from a JSON file for debugging.

Exit codes: 0 success, 1 hard error (a rejected command line included),
2 success with warnings (e.g. the exact method was downgraded to
Monte-Carlo above the contour-variable cap).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

from .channel import budget
from .config import (
    ParseError,
    ScenarioConfig,
    ValidationError,
    config_hash,
    load_config,
    parse_config_text,
    parse_methods,
    setting_problems,
)
from .foxh import (
    HALF_LENGTH,
    MAX_DIMS,
    FoxHSpec,
    GammaTerm,
    NotConverged,
    QuadratureConfig,
    dump_spec,
    eval_foxh,
)
from .exact_stats import CombinedSnrStat
from .metrics import ModulationParams, ber_exact, diversity, outage_asymptotic, outage_exact
from .montecarlo import SimPlan, tally_sweep

__all__ = ["CurveResult", "run_sweep", "emit_csv", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2


@dataclass(frozen=True)
class CurveResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...]


# Which methods fill which quantity, in column order, and the call that fills
# each cell from (config, branch-set SNR stat, modulation, Monte-Carlo tally).
_FILLS = {
    "outage": {
        "exact": lambda cfg, stat, mod, mc: outage_exact(stat, cfg.gamma_th),
        "asymptotic": lambda cfg, stat, mod, mc: outage_asymptotic(stat, cfg.gamma_th),
        "mc": lambda cfg, stat, mod, mc: mc.outage(),
    },
    "ber": {
        "exact": lambda cfg, stat, mod, mc: ber_exact(stat, mod),
        "mc": lambda cfg, stat, mod, mc: mc.ber(),
    },
}


def _columns(quantity: str, method: str) -> tuple[str, ...]:
    """CSV columns of one (quantity, method) pair: its value, and for Monte-Carlo its standard error."""
    name = f"{quantity}_{method}"
    return (name, f"{name}_se") if method == "mc" else (name,)


def _effective_methods(config: ScenarioConfig, branches, quantities, warnings: list[str]) -> tuple[str, ...]:
    """The requested methods that can evaluate the scenario, of branch set ``branches`` (None for the relay);
    Monte-Carlo stands in for the rest, and fills any quantity that none of them gives."""
    methods = list(config.methods)
    unavailable = {}
    if branches is None:
        routes = {"exact": "exact evaluation has no route", "asymptotic": "no asymptote"}
        unavailable.update((m, f"{routes[m]} for scenario '{config.scenario}'") for m in routes if m in methods)
    elif "exact" in methods:
        # MAX_DIMS counts members: one per element, one more for the direct link
        members = len(branches.elements) + (branches.direct is not None)
        if members > MAX_DIMS:
            unavailable["exact"] = f"{members} members exceed MAX_DIMS={MAX_DIMS}"
    for method in methods:
        if not any(method in _FILLS[q] for q in quantities):
            unavailable.setdefault(method, f"{method} gives no {' or '.join(quantities)} value")
    for method, reason in unavailable.items():
        warnings.append(f"{reason}; {method} falls back to Monte-Carlo")
        methods.remove(method)
    if unavailable and "mc" not in methods:
        methods.append("mc")
    missing = [q for q in quantities if not any(m in _FILLS[q] for m in methods)]
    if missing:
        warnings.append(f"no requested method gives a {' or '.join(missing)} value; Monte-Carlo fills it")
        methods.append("mc")
    return tuple(methods)


def run_sweep(config: ScenarioConfig, quantity: str = "outage") -> CurveResult:
    """Evaluate the requested methods at every sweep point of the config's scenario.

    quantity: "outage", "ber", or "both". Per-point evaluation failures
    are recorded as warnings and leave empty cells; the sweep continues.
    """
    if quantity not in ("outage", "ber", "both"):
        raise ValueError(f"quantity must be outage/ber/both, got '{quantity}'")
    quantities = tuple(_FILLS) if quantity == "both" else (quantity,)
    warnings: list[str] = []
    branches = config.system.branches(config.scenario)
    methods = _effective_methods(config, branches, quantities, warnings)
    pairs = [(q, m) for q in quantities for m in _FILLS[q] if m in methods]
    columns = ["pt_dbm"] + [c for pair in pairs for c in _columns(*pair)]
    mod = ModulationParams(config.modulation_a, config.modulation_b)

    pts = sorted(config.pt_dbm)
    mcs = [None] * len(pts)
    if "mc" in methods:
        # One simulation pass serves both quantities at every power.
        mcs = tally_sweep(
            [SimPlan(config.system, pt, config.mc_trials, config.mc_seed, config.scenario) for pt in pts],
            gamma_th=config.gamma_th if "outage" in quantities else None,
            mod=mod if "ber" in quantities else None,
        )
    rows = []
    for pt, mc in zip(pts, mcs):
        cells: dict[str, float] = {"pt_dbm": pt}
        bud = budget(config.system.geometry, pt, config.system.noise_dbm)
        stat = CombinedSnrStat(branches, bud) if branches is not None else None
        for q, m in pairs:
            names = _columns(q, m)
            try:
                value = _FILLS[q][m](config, stat, mod, mc)
                cells.update(zip(names, (value.mean, value.std_error) if m == "mc" else (value,)))
            except (RuntimeError, ValueError) as e:
                warnings.append(f"{names[0]} failed at pt={pt:g} dBm: {e}")
        rows.append(tuple(cells.get(c) for c in columns))

    quad = QuadratureConfig()
    metadata = [
        ("config_hash", config_hash(config)),
        ("quantity", quantity),
        ("scenario", config.scenario),
        ("n_elements", str(config.system.n_elements)),
        ("gamma_th_db", repr(config.gamma_th_db)),
        ("methods", ",".join(methods)),
        ("mc_trials", str(config.mc_trials)),
        ("mc_seed", str(config.mc_seed)),
        ("quadrature", f"half_length={HALF_LENGTH} step={quad.step} rel_tol={quad.rel_tol}"),
    ]
    for i, w in enumerate(warnings):
        metadata.append((f"warning_{i}", w))
    return CurveResult(
        columns=tuple(columns),
        rows=tuple(rows),
        metadata=tuple(metadata),
        warnings=tuple(warnings),
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    return f"{float(value):.17e}"


def emit_csv(result: CurveResult, fh) -> None:
    """Write metadata comments, header, and full-precision rows."""
    for key, value in result.metadata:
        fh.write(f"# {key}: {value}\n")
    fh.write(",".join(result.columns) + "\n")
    for row in result.rows:
        fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _write_output(result: CurveResult, path: str | None, quiet: bool) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            emit_csv(result, fh)
        if not quiet:
            print(f"wrote {path}")
    else:
        emit_csv(result, sys.stdout)


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    """The config with the command-line settings, checked like a scenario file's."""
    updates = {}
    if args.seed is not None:
        updates["mc_seed"] = args.seed
    if args.trials is not None:
        updates["mc_trials"] = args.trials
    if getattr(args, "methods", None) is not None:  # verify runs a fixed method set
        updates["methods"] = parse_methods(args.methods)
    if args.output is not None:
        updates["output"] = args.output
    config = replace(config, **updates)
    problems = setting_problems(config.methods, config.mc_trials, config.mc_seed)
    if problems:
        raise ValidationError(problems)
    return config


def _cmd_sweep(args, quantity: str) -> int:
    config = _apply_overrides(load_config(args.config), args)
    result = run_sweep(config, quantity)
    _write_output(result, config.output, args.quiet)
    if result.warnings:
        if not args.quiet:
            for w in result.warnings:
                print(f"warning: {w}", file=sys.stderr)
        return EXIT_WARNINGS
    return EXIT_OK


def _cmd_diversity(args) -> int:
    config = load_config(args.config)
    branches = config.system.branches(config.scenario)
    if branches is None:
        print(f"error: no diversity orders for scenario '{config.scenario}'", file=sys.stderr)
        return EXIT_ERROR
    report = diversity(branches)
    print(f"g_out = {report.g_out:.6g}")
    print(f"g_ber = {report.g_ber:.6g}")
    print(f"per_element_minima = {[round(m, 6) for m in report.per_element_minima]}")
    if report.direct_min is not None:
        print(f"direct_min = {report.direct_min:.6g}")
    return EXIT_OK


# verify: fixed small consistency suite, deterministic for a fixed seed.
_VERIFY_TEXT = """
n_elements = 1
fading_preset = FP1
pt_dbm = 10 15 20 25
methods = exact,mc
mc_trials = 200000
"""


def _cmd_verify(args) -> int:
    config = _apply_overrides(parse_config_text(_VERIFY_TEXT), args)
    result = run_sweep(config, "both")
    cols = result.columns
    failures = []
    rows = []
    for row in result.rows:
        cells = dict(zip(cols, row))
        checked = len(failures)
        for q in _FILLS:
            (exact_key,), (mc_key, se_key) = _columns(q, "exact"), _columns(q, "mc")
            ex, mc, se = cells.get(exact_key), cells.get(mc_key), cells.get(se_key)
            where = f"{exact_key} vs {mc_key} at pt={cells['pt_dbm']:g}"
            if ex is None or mc is None:
                failures.append(f"{where}: value missing")
            elif abs(ex - mc) > 3.0 * se:
                failures.append(where)
        rows.append(row + (1.0 if len(failures) == checked else 0.0,))
    verified = CurveResult(
        columns=cols + ("within_3sigma",),
        rows=tuple(rows),
        metadata=result.metadata + (("verify_failures", str(len(failures))),),
        warnings=result.warnings,
    )
    _write_output(verified, config.output, args.quiet)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_ERROR
    if not args.quiet:
        print("verify: all points within 3 sigma", file=sys.stderr)
    return EXIT_WARNINGS if result.warnings else EXIT_OK


def _check_spec_numbers(payload) -> None:
    """Refuse a field foxh-eval does not read, non-numbers, which FoxHSpec would parse,
    and a sign or orientation other than the integer 1 or -1."""
    _check_fields(payload, ("args", "terms", "contour_re"), "spec")
    fields = [("args", payload["args"]), ("contour_re", payload.get("contour_re") or [])]
    for t in payload["terms"]:
        _check_fields(t, ("offset", "coeffs", "sign", "orientation"), f"term {t!r}")
        fields += [("offset", [t["offset"]]), ("coeffs", t["coeffs"])]
        if any(type(t.get(k, 1)) is not int or t.get(k, 1) not in (1, -1) for k in ("sign", "orientation")):
            raise TypeError(f"sign or orientation of term {t!r} is not the integer 1 or -1")
    for name, values in fields:
        if not isinstance(values, list):
            raise TypeError(f"'{name}' is not a list")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError(f"'{name}' entry {v!r} is not a number")


def _check_fields(obj, known: tuple[str, ...], where: str) -> None:
    """Refuse a JSON object with a field outside ``known``: it would be dropped unread."""
    unknown = sorted(set(obj) - set(known)) if isinstance(obj, dict) else []
    if unknown:
        raise TypeError(f"{where} has unknown field(s) {unknown}; expected only {list(known)}")


def _cmd_foxh_eval(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        _check_spec_numbers(payload)
        terms = tuple(
            GammaTerm(
                offset=t["offset"],
                coeffs=tuple(t["coeffs"]),
                sign=t.get("sign", 1),
                orientation=t.get("orientation", 1),
            )
            for t in payload["terms"]
        )
        spec = FoxHSpec(args=tuple(payload["args"]), terms=terms, contour_re=payload.get("contour_re"))
        if not args.quiet:
            dump_spec(spec, sys.stderr)
        value, err = eval_foxh(spec)
    except KeyError as e:
        print(f"error: spec has no field {e}", file=sys.stderr)
        return EXIT_ERROR
    except (TypeError, OverflowError) as e:  # not an object, a wrong JSON type, or past the float range
        print(f"error: malformed spec: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, NotConverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(f"value = {value:.17e}")
    print(f"err_estimate = {err:.3e}")
    return EXIT_OK


_FLAGS = {
    "--config": dict(required=True, help="scenario file (JSON spec file for foxh-eval)"),
    "--output": dict(help="CSV output path (default stdout)"),
    "--seed": dict(type=int, help="override Monte-Carlo seed"),
    "--trials": dict(type=int, help="override Monte-Carlo trials"),
    "--methods": dict(help="comma list from exact,asymptotic,mc"),
    "--quiet": dict(action="store_true", help="suppress progress chatter"),
}

# (name, help, flags, handler): each subcommand takes only the flags it reads.
_SUBCOMMANDS = (
    ("outage", "transmit-power sweep of outage probability", tuple(_FLAGS), lambda args: _cmd_sweep(args, "outage")),
    ("ber", "transmit-power sweep of average BER", tuple(_FLAGS), lambda args: _cmd_sweep(args, "ber")),
    ("diversity", "print diversity orders for a configuration", ("--config",), _cmd_diversity),
    (
        "verify",
        "cross-check exact evaluation against Monte-Carlo",
        ("--output", "--seed", "--trials", "--quiet"),
        _cmd_verify,
    ),
    ("foxh-eval", "evaluate a contour-integral spec from JSON", ("--config", "--quiet"), _cmd_foxh_eval),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Outage and BER of a reflecting-surface link with direct combining",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 after a usage error, 0 after --help
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        return args.handler(args)
    except (ParseError, ValidationError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
