"""The committed paper curves reproduce: results/<name>.csv from scenarios/<name>.cfg.

A change to a Monte-Carlo stream or to an exact evaluation that ships
without regenerated curves (``python scripts/paper_curves.py``) fails here.
Exact and asymptotic cells must agree to 1e-9 relative. A Monte-Carlo
cell must agree within 0.01 of its own standard error: another CPU's
SIMD ``log``, ``tan`` or ``erfc`` can round one trial across the
threshold, but a changed stream moves the cell by about one standard error.
"""
import csv
import io
import math
import pathlib

import pytest

from rislink.cli import emit_csv, run_sweep
from rislink.config import load_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.cfg"))


def _read(lines):
    """(metadata lines, rows as dicts) of an emitted CSV."""
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return meta, rows


def test_every_scenario_has_committed_curves():
    assert SCENARIOS
    assert {p.stem for p in SCENARIOS} == {p.stem for p in (ROOT / "results").glob("*.csv")}


@pytest.mark.parametrize("cfg", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_committed_curves_reproduce(cfg):
    out = io.StringIO()
    emit_csv(run_sweep(load_config(str(cfg)), "both"), out)
    meta, rows = _read(out.getvalue().splitlines())
    committed = (ROOT / "results" / f"{cfg.stem}.csv").read_text(encoding="utf-8").splitlines()
    want_meta, want_rows = _read(committed)
    assert meta == want_meta
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert row.keys() == want.keys()
        for col, text in want.items():
            where = f"{cfg.stem} pt={want['pt_dbm']} {col}"
            assert (row[col] == "") == (text == ""), where
            if text == "":
                continue
            got, value = float(row[col]), float(text)
            if "_mc" in col:
                se = float(want[col.removesuffix("_se") + "_se"])
                assert abs(got - value) <= 0.01 * se, where
            else:
                assert math.isclose(got, value, rel_tol=1e-9, abs_tol=0.0), where
