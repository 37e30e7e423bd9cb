"""Self-checks of the benchmark itself: python3 -m pytest perfbench -q

Not part of the library's test suite; the count checks run each workload's
pass twice (about two minutes in all on 2 CPUs).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402

COUNTS = (
    "special.log_gamma.elements",
    "foxh.eval_foxh.calls",
    "dgg.sample.draws",
    "montecarlo.trials",
)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_self_times_subtract_direct_children_only():
    spans = [
        ["cell", 0.0, 10.0, -1, "p0c0", None],
        ["eval", 1.0, 9.0, 0, "p0c0", None],
        ["lg", 2.0, 5.0, 1, "p0c0", None],
        ["lg", 6.0, 7.0, 1, "p0c0", None],
    ]
    assert self_times(spans) == [2.0, 4.0, 3.0, 1.0]


@pytest.mark.parametrize("workload", ["verify", "mc-n50", "exact-n2"])
def test_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append({k: result["metrics"][k]["value"] for k in COUNTS})
    assert results[0] == results[1]
    if workload == "mc-n50":
        assert results[0]["special.log_gamma.elements"] == 0
        assert results[0]["foxh.eval_foxh.calls"] == 0
    if workload == "exact-n2":
        assert results[0]["montecarlo.trials"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
