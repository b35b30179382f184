"""Smoke test of the benchmark at tiny size (one seed per cell, one random target).

Set-up is timed once per run instead of seven times. Its child process
builds the workload at full size, because the size patch below does not
reach a fresh process; that costs well under a second per run.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(monkeypatch, capsys, name: str, trace: int) -> tuple[str, dict]:
    """One run at one session seed per cell; returns (digest, final JSON)."""
    monkeypatch.setitem(workloads.WORKLOADS, name, (workloads.WORKLOADS[name][0], 1))
    monkeypatch.setattr(workloads, "CLEAN_TARGETS", 1)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    code = bench.main(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    digest = next(line.split()[-1] for line in lines if line.startswith("digest:"))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_metrics_named_with_units_and_digest_repeats(monkeypatch, capsys, name):
    first, plain = tiny_run(monkeypatch, capsys, name, 0)
    second, traced = tiny_run(monkeypatch, capsys, name, 1)
    assert first == second
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tail_percentile_keeps_ten_sessions_beyond():
    for n in (20, 48, 60, 240):
        p = bench.tail_percentile(n)
        assert n * (100 - p) / 100 >= bench.TAIL_BEYOND
        assert n * (100 - p - 1) / 100 < bench.TAIL_BEYOND


def test_names_and_units_follow_the_contract():
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_no_success_reports_the_worst_cost():
    from ceal.harness import ExperimentConfig, RunResult

    cfg = ExperimentConfig(target="t.dot", max_queries=2_000)
    lost = RunResult(False, 2_000, 9_000, 0.5, 3, 1, "query_cap")
    sessions = [(cfg, 0, None)] * 3
    outcomes = [lost, RunResult(False, 800, 5_000, 0.5, 3, 0, "stability"),
                bench.SessionError("InconsistentTeacher", "")]
    metrics = bench.end_to_end(sessions, outcomes, [0.1, 0.2, 0.3], [0.5])
    assert metrics["success_rate"][0] == 0
    assert metrics["tests_mean"][0] == 2_000
    assert metrics["symbols_mean"][0] == 9_000
    assert metrics["error_share"][0] == 1 / 3
