"""Scenario-file parsing, config hashing, and CLI contract."""
import argparse
import json
import pathlib
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from rislink import cli
from rislink.channel import budget, relay_hop_budgets
from rislink.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, emit_csv, main, run_sweep
from rislink.config import (
    PRESETS,
    SCENARIOS,
    ParseError,
    ValidationError,
    config_hash,
    load_config,
    parse_config_text,
    preset_fading,
    preset_system,
)
from rislink.exact_stats import RisEnsemble
from rislink.foxh import MAX_DIMS
from rislink.metrics import ModulationParams
from rislink.montecarlo import SimPlan, tally

MINIMAL = """
n_elements = 1
fading_preset = FP1
pt_dbm = 10 20
mc_trials = 20000
"""


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_parses():
    cfg = parse_config_text(MINIMAL)
    assert cfg.system.n_elements == 1
    assert cfg.pt_dbm == (10.0, 20.0)
    assert cfg.methods == ("exact", "mc")
    assert cfg.scenario == "combined"
    assert cfg.gamma_th == pytest.approx(1.0)


def test_power_range_expansion():
    text = "n_elements = 1\nfading_preset = FP2\npt_start_dbm = 0\npt_stop_dbm = 20\n"
    assert parse_config_text(text + "pt_step_db = 10\n").pt_dbm == (0.0, 10.0, 20.0)
    # the 5 dB default applies only when the step is absent
    assert parse_config_text(text).pt_dbm == (0.0, 5.0, 10.0, 15.0, 20.0)
    with pytest.raises(ValidationError, match="pt_step_db must be positive") as exc:
        parse_config_text(text + "pt_step_db = 0\n")
    # a range that was given and rejected reports its own problem only
    assert exc.value.problems == ["pt_step_db must be positive"]
    # the point count is checked before any point is built: an infinite
    # count, a 1e12-point range and one point over the cap are all errors
    start = "n_elements = 1\nfading_preset = FP2\npt_start_dbm = 0\n"
    for stop, step in (("1e300", "1e-300"), ("1e9", "1e-3"), ("2500", "0.25")):
        with pytest.raises(ValidationError, match="more than 10000 points") as exc:
            parse_config_text(start + f"pt_stop_dbm = {stop}\npt_step_db = {step}\n")
        assert len(exc.value.problems) == 1
    assert len(parse_config_text(start + "pt_stop_dbm = 2499.75\npt_step_db = 0.25\n").pt_dbm) == 10_000
    # a backwards range whose step count is -inf is empty, not a traceback
    with pytest.raises(ValidationError, match="empty transmit-power sweep") as exc:
        parse_config_text("n_elements = 1\nfading_preset = FP2\npt_start_dbm = 1e300\npt_stop_dbm = 0\npt_step_db = 1e-300\n")
    assert exc.value.problems == ["empty transmit-power sweep (pt_stop_dbm is below pt_start_dbm)"]
    # only a sweep with neither a list nor both range ends asks for one
    for keys in ("", "pt_start_dbm = 0\n", "pt_stop_dbm = 20\npt_step_db = 5\n"):
        with pytest.raises(ValidationError) as exc:
            parse_config_text("n_elements = 1\nfading_preset = FP2\n" + keys)
        assert exc.value.problems == ["empty transmit-power sweep (need pt_dbm or pt_start/stop)"]
    with pytest.raises(ParseError, match="expected numbers"):
        parse_config_text("n_elements = 1\nfading_preset = FP2\npt_dbm = ,\n")


@pytest.mark.parametrize(
    "extra,line,key",
    [
        ("pt_start_dbm = 0\npt_stop_dbm = 50\npt_step_db = 7\n", 4, "pt_start_dbm"),
        ("pt_step_db = 7\n", 4, "pt_step_db"),
        ("element1_hop1 = 1 1 1 1\nelement01_hop1 = 2 2 2 2\n", 5, "element01_hop1"),
    ],
    ids=["pt-list-and-range", "pt-list-and-step", "one-hop-two-keys"],
)
def test_two_keys_for_one_setting_rejected(extra, line, key):
    with pytest.raises(ParseError) as exc:
        parse_config_text("n_elements = 1\nfading_preset = FP1\npt_dbm = 10\n" + extra)
    assert (exc.value.line, exc.value.key) == (line, key)


@pytest.mark.parametrize("methods", ["exact,exact", "mc mc exact", "mc,exact,asymptotic,mc"])
def test_repeated_method_rejected(methods):
    with pytest.raises(ParseError, match="method '(exact|mc)' given twice") as exc:
        parse_config_text(MINIMAL + f"methods = {methods}\n")
    assert (exc.value.line, exc.value.key) == (6, "methods")


def test_mc_trials_bounded():
    # at most 10,000 seeding units of montecarlo.UNIT_TRIALS
    assert parse_config_text(MINIMAL.replace("20000", "1000000000")).mc_trials == 10**9
    for n in ("1000000001", str(10**30), "1"):
        with pytest.raises(ValidationError) as exc:
            parse_config_text(MINIMAL.replace("20000", n))
        assert exc.value.problems == [f"mc_trials must be in 10000..1000000000, got {n}"]


def test_n_elements_bounded():
    # the bound is checked before the element list is built
    text = "fading_preset = FP1\npt_dbm = 10\nn_elements = "
    assert parse_config_text(text + "10000\n").system.n_elements == 10_000
    for n in ("10001", "1000000000000", "0"):
        with pytest.raises(ValidationError) as exc:
            parse_config_text(text + n + "\n")
        assert exc.value.problems == [f"n_elements must be in 1..10000, got {n}"]


def test_custom_fading_blocks_and_overrides():
    cfg = parse_config_text(
        "n_elements = 2\n"
        "ris_fading = 2 1 2 2\n"
        "direct_fading = 1.5 1.5 1 1.5\n"
        "element2_hop2 = 1 1.5 1 2.5\n"
        "pt_dbm = 20\n"
    )
    assert cfg.system.elements[0].hop2.alpha1 == 2.0
    assert cfg.system.elements[1].hop2.beta2 == 2.5
    # override touches only the named hop of the named element
    assert cfg.system.elements[1].hop1 == cfg.system.elements[0].hop1


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# header\n\nn_elements = 1 # trailing\nfading_preset = FP1\npt_dbm = 5\n")
    assert cfg.pt_dbm == (5.0,)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_config_text("n_elements = 1\nnot a key value line\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_config_text("bogus_key = 3\n")
    assert exc.value.key == "bogus_key"
    with pytest.raises(ParseError):
        parse_config_text("n_elements = 1\nn_elements = 2\n")
    with pytest.raises(ParseError):
        parse_config_text("n_elements = 1\nfading_preset = FP9\npt_dbm = 10\n")
    with pytest.raises(ParseError):
        parse_config_text(MINIMAL + "methods = exact,magic\n")
    with pytest.raises(ParseError) as exc:
        parse_config_text(MINIMAL + "scenario = relay\n")
    assert exc.value.key == "scenario"


def test_unknown_key_is_a_parse_error_before_validation():
    # also invalid as a whole (no n_elements, too few trials): the unknown key is reported
    with pytest.raises(ParseError) as exc:
        parse_config_text("mc_trials = 1\nd3_m = 10\n")
    assert (exc.value.line, exc.value.key) == (2, "d3_m")


def test_preset_system_matches_scenario_file_defaults():
    assert parse_config_text(MINIMAL).system == preset_system("FP1", 1)


def test_validation_collects_all_problems():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("mc_trials = 100\n")
    text = str(exc.value)
    assert "n_elements is required" in text
    assert "mc_trials" in text
    assert "sweep" in text
    assert len(exc.value.problems) >= 3


def test_presets_cover_three_families():
    assert sorted(PRESETS) == ["FP1", "FP2", "FP3"]
    for name in PRESETS:
        cascade, direct = preset_fading(name)
        assert cascade.hop1 == cascade.hop2
    with pytest.raises(KeyError):
        preset_fading("FP0")


def test_load_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL)
    assert load_config(str(path)) == parse_config_text(MINIMAL)


# ---------------------------------------------------------------------------
# hashing


def test_config_hash_semantic():
    a = parse_config_text(MINIMAL)
    assert config_hash(a) == config_hash(parse_config_text(MINIMAL))
    assert config_hash(a) != config_hash(replace(a, mc_seed=1))
    assert config_hash(a) != config_hash(replace(a, gamma_th_db=3.0))
    assert config_hash(a) != config_hash(replace(a, scenario="dt_only"))
    # output path is presentation, not semantics
    assert config_hash(a) == config_hash(replace(a, output="x.csv"))
    assert len(config_hash(a)) == 16


# ---------------------------------------------------------------------------
# sweep runner


def test_run_sweep_columns_and_rows():
    cfg = replace(parse_config_text(MINIMAL), methods=("exact", "asymptotic", "mc"))
    result = run_sweep(cfg, "outage")
    assert result.columns == ("pt_dbm", "outage_exact", "outage_asymptotic", "outage_mc", "outage_mc_se")
    assert len(result.rows) == 2
    assert result.rows[0][0] == 10.0 and result.rows[1][0] == 20.0
    # the high-SNR asymptote leaves (0, 1] at these powers: empty cell, warning
    for row, pt in zip(result.rows, ("10", "20")):
        assert row[2] is None
        assert all(v is not None for i, v in enumerate(row) if i != 2)
        assert any(w.startswith(f"outage_asymptotic failed at pt={pt} dBm") for w in result.warnings)
    assert len(result.warnings) == 2
    meta = dict(result.metadata)
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["n_elements"] == "1"

    high = run_sweep(replace(cfg, pt_dbm=(150.0,), methods=("asymptotic",)), "outage")
    assert not high.warnings
    assert 0.0 < high.rows[0][1] <= 1.0


@pytest.mark.parametrize("n_elements", [3, 6])
def test_run_sweep_exact_fallback_above_cap(n_elements):
    cfg = parse_config_text(
        f"n_elements = {n_elements}\nfading_preset = FP1\npt_dbm = 20\nmc_trials = 20000\n"
    )
    result = run_sweep(cfg, "outage")
    assert result.warnings
    assert "outage_exact" not in result.columns
    assert "outage_mc" in result.columns


@pytest.mark.parametrize("scenario,n", [("ris_only", 4), ("combined", 3)])
def test_exact_falls_back_above_max_dims(scenario, n):
    # one contour variable per element, plus one for the direct link
    result = run_sweep(scenario_cfg(scenario, n, pt="20"), "outage")
    assert result.columns == ("pt_dbm", "outage_mc", "outage_mc_se")
    assert len(result.warnings) == 1
    assert f"MAX_DIMS={MAX_DIMS}" in result.warnings[0] and "Monte-Carlo" in result.warnings[0]


def test_ris_only_three_elements_exact_matches_mc():
    # three contour variables: the reflected branch alone is exact up to N = MAX_DIMS
    result = run_sweep(scenario_cfg("ris_only", n=3, pt="70"), "both")
    assert not result.warnings
    cells = dict(zip(result.columns, result.rows[0]))
    for quantity in ("outage", "ber"):
        exact, mc, se = cells[f"{quantity}_exact"], cells[f"{quantity}_mc"], cells[f"{quantity}_mc_se"]
        assert abs(exact - mc) <= 3.0 * se, quantity


def test_run_sweep_simulates_once_for_both_quantities(monkeypatch):
    from rislink import montecarlo

    calls = []
    real = montecarlo._draw_gains

    def counted(plan, rng, n):
        calls.append(n)
        return real(plan, rng, n)

    monkeypatch.setattr(montecarlo, "_draw_gains", counted)
    cfg = replace(parse_config_text(MINIMAL), methods=("mc",), pt_dbm=(10.0, 15.0, 20.0))
    both = run_sweep(cfg, "both")
    # 20,000 trials are one seeding unit: drawn once for both quantities at all three powers
    assert calls == [20_000]
    outage, ber = run_sweep(cfg, "outage"), run_sweep(cfg, "ber")
    assert both.rows == tuple(o + b[1:] for o, b in zip(outage.rows, ber.rows))


def test_sweep_leaves_only_the_failure_free_power_empty():
    # no outage in 20,000 trials at 85 dBm; the powers sharing its draws still estimate theirs.
    # Exact: outage 4.9e-7 and P(snr <= 745) 3.7e-4 there, so a stream has no failure and a
    # nonzero BER sum with probability 0.99 (0.59 at 70 dBm, where this test stood before).
    cfg = replace(parse_config_text(MINIMAL + "methods = mc\n"), pt_dbm=(10.0, 20.0, 85.0))
    result = run_sweep(cfg, "both")
    assert result.warnings == (
        "outage_mc failed at pt=85 dBm: no failures in 20000 trials; outage < 1.500e-04 (95% one-sided)",
    )
    mod = ModulationParams(cfg.modulation_a, cfg.modulation_b)
    for row in result.rows:
        cells = dict(zip(result.columns, row))
        mc = tally(SimPlan(cfg.system, row[0], cfg.mc_trials, cfg.mc_seed, cfg.scenario), cfg.gamma_th, mod)
        ber = mc.ber()
        assert (cells["ber_mc"], cells["ber_mc_se"]) == (ber.mean, ber.std_error)
        if row[0] == 85.0:
            assert (cells["outage_mc"], cells["outage_mc_se"]) == (None, None)
            assert mc.failures == 0
        else:
            outage = mc.outage()
            assert (cells["outage_mc"], cells["outage_mc_se"]) == (outage.mean, outage.std_error)


# ---------------------------------------------------------------------------
# scenario axis: one sweep runner for every link the paper compares


def scenario_cfg(scenario, n=1, pt="10 20", methods="exact,mc"):
    return parse_config_text(
        f"scenario = {scenario}\nn_elements = {n}\nfading_preset = FP1\n"
        f"pt_dbm = {pt}\nmethods = {methods}\nmc_trials = 20000\n"
    )


def test_summands_of_every_scenario():
    # each summand's blocks in draw order and its scale, exactly the channel budget's; the relay's hops min-joined
    system = preset_system("FP1", 2)
    cascade, direct = preset_fading("FP1")
    bud = budget(system.geometry, 20.0, system.noise_dbm)
    g1, g2 = relay_hop_budgets(system.geometry, 20.0, system.noise_dbm)
    reflected, direct_link = ((cascade, cascade), bud.gamma0_ris), ((direct,), bud.gamma0_d)
    expected = {
        "combined": ((reflected, direct_link), "sum"),
        "ris_only": ((reflected,), "sum"),
        "dt_only": ((direct_link,), "sum"),
        "df_relay": ((((cascade.hop1,), g1), ((cascade.hop2,), g2)), "min"),
    }
    assert tuple(expected) == SCENARIOS
    for scenario, want in expected.items():
        assert system.summands(scenario, 20.0) == want, scenario
    assert system.ensemble() == system.branches("combined") == RisEnsemble((cascade, cascade), direct)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_sweep_mc_cells_simulate_the_scenario(scenario):
    cfg = scenario_cfg(scenario, n=2, methods="mc")
    result = run_sweep(cfg, "both")
    assert dict(result.metadata)["scenario"] == scenario
    for row in result.rows:
        plan = SimPlan(cfg.system, row[0], cfg.mc_trials, cfg.mc_seed, scenario=scenario)
        mc = tally(plan, cfg.gamma_th, ModulationParams(cfg.modulation_a, cfg.modulation_b))
        out, ber = mc.outage(), mc.ber()
        cells = dict(zip(result.columns, row))
        assert (cells["outage_mc"], cells["outage_mc_se"]) == (out.mean, out.std_error)
        assert (cells["ber_mc"], cells["ber_mc_se"]) == (ber.mean, ber.std_error)


# (outage, BER) of direct transmission and of the reflected branch alone at
# the scenario defaults (0 dB threshold, a = b = 1), as the single-branch
# baselines of the metrics module computed them before the scenario axis.
FROZEN_BRANCH_CELLS = [
    ("dt_only", 1, 0.0, 0.7809447411650625, 0.2460284524454088),
    ("dt_only", 1, 20.0, 0.11784816658491147, 0.030909824392149256),
    ("dt_only", 6, 20.0, 0.11784816658491147, 0.030909824392149256),  # no element cap
    ("ris_only", 1, 90.0, 0.1334143357519333, 0.03380146441149867),
    ("ris_only", 2, 90.0, 0.00601770885588131, 0.0015514945344478918),
]


@pytest.mark.parametrize("scenario,n,pt,outage,ber", FROZEN_BRANCH_CELLS)
def test_run_sweep_exact_branch_cells_frozen(scenario, n, pt, outage, ber):
    result = run_sweep(scenario_cfg(scenario, n, pt, methods="exact"), "both")
    assert not result.warnings
    assert result.columns == ("pt_dbm", "outage_exact", "ber_exact")
    assert result.rows[0][1] == pytest.approx(outage, rel=1e-12)
    assert result.rows[0][2] == pytest.approx(ber, rel=1e-12)


def test_df_relay_exact_falls_back_to_mc():
    result = run_sweep(scenario_cfg("df_relay", methods="exact"), "outage")
    assert result.columns == ("pt_dbm", "outage_mc", "outage_mc_se")
    assert len(result.warnings) == 1
    assert "df_relay" in result.warnings[0] and "Monte-Carlo" in result.warnings[0]


@pytest.mark.parametrize("scenario", ["df_relay"])
def test_asymptote_dropped_outside_combined(scenario):
    result = run_sweep(scenario_cfg(scenario, methods="asymptotic"), "outage")
    assert result.columns == ("pt_dbm", "outage_mc", "outage_mc_se")
    assert len(result.warnings) == 1
    assert "asymptote" in result.warnings[0]


@pytest.mark.parametrize("scenario", ["ris_only", "dt_only"])
def test_asymptote_written_for_single_branch(scenario):
    # the residue of the branch's own CDF integral, beside its exact value
    pt = {"ris_only": 160.0, "dt_only": 120.0}[scenario]
    result = run_sweep(scenario_cfg(scenario, n=2, pt=pt, methods="exact,asymptotic"), "outage")
    assert not result.warnings
    assert result.columns == ("pt_dbm", "outage_exact", "outage_asymptotic")
    _, exact, asymptote = result.rows[0]
    assert asymptote == pytest.approx(exact, rel=1e-2)


@pytest.mark.parametrize("n", [200, 10_000])
def test_asymptote_at_large_n_gives_value_or_warning(n):
    start = time.perf_counter()
    result = run_sweep(scenario_cfg("combined", n=n, pt="100 160", methods="asymptotic"), "outage")
    assert time.perf_counter() - start < 10.0
    assert result.columns == ("pt_dbm", "outage_asymptotic")
    for pt, value in result.rows:
        warned = [w for w in result.warnings if w.startswith(f"outage_asymptotic failed at pt={pt:g} dBm")]
        assert (value is None) == bool(warned)
    # both are evaluated, as one variable of N members, and underflow
    assert len(result.warnings) == 2 and all("below the double range" in w for w in result.warnings)


def test_asymptote_series_cap_is_a_warning():
    # twenty distinct alpha2 values are twenty tied classes: a 2^20 series lattice
    cfg = scenario_cfg("combined", pt="160", methods="asymptotic")
    cascade = cfg.system.elements[0]
    elements = tuple(replace(cascade, hop1=replace(cascade.hop1, alpha2=2.0 + 0.01 * i)) for i in range(20))
    result = run_sweep(replace(cfg, system=replace(cfg.system, elements=elements)), "outage")
    assert result.rows == ((160.0, None),)
    assert len(result.warnings) == 1 and "exceeds" in result.warnings[0]


def test_ris_only_out_of_range_exact_outage_left_empty():
    # the evaluated CDF of the reflected branch alone is 1.29 here, out of range by far more than
    # the last bits of the special functions move it; the BER, 0.559 at the evaluator's noise level
    # (its own error estimate is 11), is above a/2 = 0.5, which a*Q(.) never averages past
    result = run_sweep(scenario_cfg("ris_only", n=3, pt="-30", methods="exact"), "both")
    assert result.rows[0][1:] == (None, None)
    assert len(result.warnings) == 2
    assert result.warnings[0].startswith("outage_exact failed at pt=-30 dBm")
    assert result.warnings[1].startswith("ber_exact failed at pt=-30 dBm")
    assert "outside (0, a/2 = 0.5]" in result.warnings[1]


# ---------------------------------------------------------------------------
# paper curves: one scenario file per curve, its CSV under results/

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_paper_curves_match_their_scenarios():
    curves = sorted((ROOT / "scenarios").glob("*.cfg"))
    assert curves
    for cfg_path in curves:
        cfg = load_config(str(cfg_path))
        csv_text = (ROOT / "results" / f"{cfg_path.stem}.csv").read_text()
        assert f"# config_hash: {config_hash(cfg)}\n" in csv_text, cfg_path.name
    assert {p.stem for p in (ROOT / "results").glob("*.csv")} == {p.stem for p in curves}


def test_run_sweep_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        run_sweep(parse_config_text(MINIMAL), "latency")


def test_emit_csv_layout(tmp_path):
    cfg = parse_config_text(MINIMAL)
    result = run_sweep(cfg, "outage")
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        emit_csv(result, fh)
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# config_hash:") for l in comments)
    header_idx = len(comments)
    assert lines[header_idx] == ",".join(result.columns)
    assert len(lines) == header_idx + 1 + len(result.rows)


# ---------------------------------------------------------------------------
# CLI surface


def write_cfg(tmp_path, text=MINIMAL, name="s.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_outage_writes_csv(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(["outage", "--config", cfg, "--output", str(out), "--trials", "20000", "--quiet"])
    assert code == EXIT_OK
    assert out.read_text().count("\n") >= 3


def test_cli_seed_and_trials_override_change_hash(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["outage", "--config", cfg, "--output", str(a), "--trials", "20000", "--quiet"])
    main(["outage", "--config", cfg, "--output", str(b), "--trials", "20000", "--seed", "5", "--quiet"])
    ha = [l for l in a.read_text().splitlines() if l.startswith("# config_hash")]
    hb = [l for l in b.read_text().splitlines() if l.startswith("# config_hash")]
    assert ha != hb


def test_cli_deterministic_output(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["ber", "--config", cfg, "--output", str(a), "--trials", "20000", "--quiet"])
    main(["ber", "--config", cfg, "--output", str(b), "--trials", "20000", "--quiet"])
    assert a.read_bytes() == b.read_bytes()


def test_cli_diversity(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["diversity", "--config", cfg]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "g_out = 1.75" in captured
    assert "g_ber = 0.75" in captured


@pytest.mark.parametrize(
    "scenario,lines",
    [
        ("combined", ["g_out = 2.75", "g_ber = 1.25", "per_element_minima = [1.0, 1.0]", "direct_min = 0.75"]),
        ("ris_only", ["g_out = 2", "g_ber = 1", "per_element_minima = [1.0, 1.0]"]),
        ("dt_only", ["g_out = 0.75", "g_ber = 0.25", "per_element_minima = []", "direct_min = 0.75"]),
    ],
)
def test_cli_diversity_reads_scenario(tmp_path, capsys, scenario, lines):
    # the orders of the scenario's branch set, FP1 with N=2
    cfg = write_cfg(tmp_path, text=f"scenario = {scenario}\nn_elements = 2\nfading_preset = FP1\npt_dbm = 10\n")
    assert main(["diversity", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == lines


def test_cli_diversity_of_relay_is_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, text="scenario = df_relay\nn_elements = 2\nfading_preset = FP1\npt_dbm = 10\n")
    assert main(["diversity", "--config", cfg]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: no diversity orders for scenario 'df_relay'\n"
    assert captured.out == ""


# The flags each subcommand reads; argparse rejects every other flag.
CLI_FLAGS = {
    "outage": ["--config", "--output", "--seed", "--trials", "--methods", "--quiet"],
    "ber": ["--config", "--output", "--seed", "--trials", "--methods", "--quiet"],
    "diversity": ["--config"],
    "verify": ["--output", "--seed", "--trials", "--quiet"],
    "foxh-eval": ["--config", "--quiet"],
}


def test_cli_subcommands_take_only_the_flags_they_read():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [s for action in sub._actions for s in action.option_strings if s not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }
    assert surface == CLI_FLAGS
    assert sum(len(flags) for flags in surface.values()) == 19


@pytest.mark.parametrize(
    "argv",
    [
        ["diversity", "--config", "s.cfg", "--output", "x.csv"],
        ["foxh-eval", "--config", "spec.json", "--seed", "1"],
        ["verify", "--config", "s.cfg"],
        ["verify", "--methods", "mc"],
    ],
    ids=["diversity-output", "foxh-eval-seed", "verify-config", "verify-methods"],
)
def test_cli_rejects_flags_a_subcommand_ignores(argv, capsys):
    assert main(argv) == EXIT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_help_is_success(capsys):
    assert main(["outage", "--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_cli_verify_fails_when_a_value_is_missing(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("exact route broken")

    monkeypatch.setattr(cli, "outage_exact", broken)
    assert main(["verify", "--trials", "20000", "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "# verify_failures: 4\n" in captured.out
    assert captured.err.count("value missing") == 4


def test_cli_missing_config_is_error(tmp_path):
    assert main(["outage", "--config", str(tmp_path / "nope.cfg")]) == EXIT_ERROR


def test_cli_invalid_config_is_error(tmp_path):
    cfg = write_cfg(tmp_path, text="mc_trials = 1\n")
    assert main(["outage", "--config", cfg]) == EXIT_ERROR


def test_scenario_file_not_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    with pytest.raises(ParseError, match="not UTF-8"):
        load_config(str(path))
    assert main(["outage", "--config", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: scenario file is not UTF-8")


@pytest.mark.parametrize(
    "argv,text",
    [
        (["--trials", "100"], MINIMAL),
        (["--methods", "magic"], MINIMAL),
        (["--seed", "-1"], MINIMAL),
        ([], MINIMAL + "mc_seed = -1\n"),
        (["--methods", "mc,exact,mc"], MINIMAL),
        ([], MINIMAL + "methods = exact,exact\n"),
    ],
    ids=["trials-flag", "methods-flag", "seed-flag", "seed-key", "repeated-method-flag", "repeated-method-key"],
)
def test_cli_invalid_setting_is_error(tmp_path, capsys, argv, text):
    cfg = write_cfg(tmp_path, text=text)
    out = tmp_path / "c.csv"
    assert main(["outage", "--config", cfg, "--output", str(out), "--quiet", *argv]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,text",
    [(["--trials", str(10**30)], MINIMAL), ([], MINIMAL.replace("20000", str(10**30)))],
    ids=["trials-flag", "trials-key"],
)
def test_cli_huge_trials_is_error(tmp_path, capsys, argv, text):
    # caught by the setting check, before any seeding unit is built
    cfg = write_cfg(tmp_path, text=text)
    assert main(["outage", "--config", cfg, "--quiet", *argv]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and "Traceback" not in err


@pytest.mark.parametrize(
    "key,value",
    [
        ("gamma_th_db", "4000"),
        ("gamma_th_db", "nan"),
        ("pt_dbm", "5000"),
        ("pt_dbm", "-5000"),
        ("pt_dbm", "nan"),
        ("pt_dbm", "inf"),
        ("d1_m", "inf"),
        ("d1_m", "1e200"),
        ("noise_dbm", "nan"),
        ("modulation_a", "nan"),
        ("n_elements", "1000000000000"),
    ],
)
def test_cli_unusable_number_is_error(tmp_path, capsys, key, value):
    settings = {"n_elements": "1", "fading_preset": "FP1", "pt_dbm": "10 20", "mc_trials": "20000", key: value}
    cfg = write_cfg(tmp_path, text="".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["outage", "--config", cfg, "--quiet"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_fallback_warning_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, text="n_elements = 6\nfading_preset = FP1\npt_dbm = 20\nmc_trials = 20000\n")
    out = tmp_path / "c.csv"
    code = main(["outage", "--config", cfg, "--output", str(out), "--quiet"])
    assert code == EXIT_WARNINGS


def test_cli_method_without_a_column_falls_back_to_mc(tmp_path, capsys):
    # the asymptote is an outage method: a BER sweep simulates instead, and says so
    cfg = write_cfg(tmp_path, text=MINIMAL + "methods = asymptotic\n")
    out = tmp_path / "c.csv"
    assert main(["ber", "--config", cfg, "--output", str(out)]) == EXIT_WARNINGS
    assert "warning: asymptotic gives no ber value; asymptotic falls back to Monte-Carlo" in capsys.readouterr().err
    text = out.read_text()
    assert "# methods: mc\n" in text
    assert "\npt_dbm,ber_mc,ber_mc_se\n" in text


def test_both_sweep_simulates_a_quantity_no_method_gives():
    # the asymptote gives outage only: a "both" sweep simulates BER, and says so once
    cfg = replace(parse_config_text(MINIMAL + "methods = asymptotic\n"), pt_dbm=(130.0,))
    result = run_sweep(cfg, "both")
    assert result.columns[:2] == ("pt_dbm", "outage_asymptotic") and "ber_mc" in result.columns
    assert [w for w in result.warnings if "ber" in w] == [
        "no requested method gives a ber value; Monte-Carlo fills it",
        "ber_mc failed at pt=130 dBm: conditional error is 0 in all 20000 trials; BER too small to estimate",
    ]


def test_ber_sweep_leaves_an_underflowed_mc_ber_empty():
    # every trial's conditional error underflows to 0 at 130 dBm: no estimate, not 0 +- 0.
    # erfc(sqrt(snr)) underflows for snr > 745, and exact P(snr <= 745) is 2.2e-9 there, so
    # a stream of 20,000 trials has none with probability 0.99996 (0.67 at 100 dBm, before).
    cfg = replace(parse_config_text(MINIMAL + "methods = mc\n"), pt_dbm=(130.0,))
    result = run_sweep(cfg, "ber")
    assert result.columns == ("pt_dbm", "ber_mc", "ber_mc_se")
    assert result.rows == ((130.0, None, None),)
    assert len(result.warnings) == 1 and result.warnings[0].startswith("ber_mc failed at pt=130 dBm")
    assert "BER" in result.warnings[0]


def test_cli_foxh_eval(tmp_path, capsys):
    spec = {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0]}], "contour_re": [1.0]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["foxh-eval", "--config", str(path), "--quiet"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "value = 8.208" in out  # exp(-2.5)
    assert "err_estimate" in out


@pytest.mark.parametrize(
    "spec",
    [
        # Gamma(t) Gamma(-t): the two pole families leave no contour between them
        {
            "args": [1.0],
            "terms": [{"offset": 0.0, "coeffs": [1.0]}, {"offset": 0.0, "coeffs": [1.0], "orientation": -1}],
        },
        # four contour variables: more than the evaluator takes
        {
            "args": [0.5, 1.0, 1.5, 0.8],
            "terms": [
                {"offset": 0.0, "coeffs": [1.0 if j == i else 0.0 for j in range(4)]} for i in range(4)
            ],
        },
        {"args": [2.5]},
        [1, 2],
        {"args": [2.5], "terms": 5},
        # exp(-z) off the positive real axis; JSON has no complex numbers, and a string is not a number
        {"args": ["1+1j"], "terms": [{"offset": 0.0, "coeffs": [1.0]}]},
        {"args": [-2.5], "terms": [{"offset": 0.0, "coeffs": [1.0]}]},
        # numbers written as JSON strings (or booleans) are not numbers
        {"args": ["2.5"], "terms": [{"offset": 0.0, "coeffs": [1.0]}], "contour_re": ["1"]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0]}], "contour_re": ["1"]},
        {"args": [2.5], "terms": [{"offset": "0", "coeffs": [1.0]}]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [True]}]},
        # JSON integers beyond the float range
        {"args": [10**400], "terms": [{"offset": 0.0, "coeffs": [1.0]}]},
        {"args": [2.5], "terms": [{"offset": -(10**400), "coeffs": [1.0]}]},
        # a sign or orientation is the JSON integer 1 or -1, not a boolean, a float or another integer
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0], "sign": True}]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0], "orientation": True}]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0], "sign": 1.0}]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0], "orientation": 1.0}]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0], "sign": 2}]},
        # a field foxh-eval does not read is refused: dropping counts=(2,) or a misspelled sign changes the value
        {"args": [2.5], "counts": [2], "terms": [{"offset": 0.0, "coeffs": [1.0], "sgn": -1}]},
        {"args": [2.5], "terms": [{"offset": 0.0, "coeffs": [1.0], "sgn": -1}]},
    ],
    ids=[
        "empty-contour",
        "four-variables",
        "missing-terms",
        "top-level-list",
        "terms-not-a-list",
        "complex-arg",
        "negative-arg",
        "string-arg",
        "string-anchor",
        "string-offset",
        "bool-coeff",
        "huge-arg",
        "huge-offset",
        "bool-sign",
        "bool-orientation",
        "float-sign",
        "float-orientation",
        "two-sign",
        "unknown-fields",
        "unknown-term-field",
    ],
)
def test_cli_foxh_eval_invalid_spec_is_error(request, tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["foxh-eval", "--config", str(path), "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "value =" not in captured.out
    if request.node.callspec.id.startswith(("string-", "bool-", "huge-", "float-", "two-", "unknown-")):
        assert captured.err.startswith("error: malformed spec: ")


def test_cli_foxh_eval_not_converged_is_error(tmp_path, capsys):
    # Gamma(t) / Gamma(3/2 + t): an integrand decaying as |y|^(-3/2) outlasts the longest truncation
    spec = {"args": [0.5], "terms": [{"offset": 0.0, "coeffs": [1.0]}, {"offset": 1.5, "coeffs": [1.0], "sign": -1}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["foxh-eval", "--config", str(path), "--quiet"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: quadrature did not converge")
    assert captured.out == ""


@pytest.mark.parametrize(
    "content",
    [b'{"args": [1' + b"0" * 5000 + b'], "terms": []}', b"\xff\xfe{}"],
    ids=["integer-past-the-digit-limit", "not-utf8"],
)
def test_cli_foxh_eval_unreadable_json_is_error(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert main(["foxh-eval", "--config", str(path), "--quiet"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_verify_deterministic_subprocess(tmp_path):
    cmd = [
        sys.executable, "-m", "rislink.cli", "verify",
        "--trials", "20000", "--quiet", "--output",
    ]
    a, b = tmp_path / "va.csv", tmp_path / "vb.csv"
    ra = subprocess.run(cmd + [str(a)], capture_output=True)
    rb = subprocess.run(cmd + [str(b)], capture_output=True)
    assert ra.returncode == 0 and rb.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert "within_3sigma" in a.read_text()
