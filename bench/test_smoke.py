"""Smoke test of the benchmark itself, kept out of the package's test
suite: every workload at a tiny size in both modes, the result line, and
planted wrong expectations that must be reported as failed operations.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.01  # the fewest passes: one per worker


@pytest.fixture
def env(monkeypatch):
    """Shrink every workload so the whole file runs in well under a minute."""
    monkeypatch.setattr(workloads, "ENUMERATE_N", 4)
    monkeypatch.setattr(workloads, "ENUMERATE_EXPECT", {"total": 64, "orientable": 8, "spin": 8})
    monkeypatch.setattr(workloads, "ENUMERATE_SAMPLE", 16)
    monkeypatch.setattr(workloads, "SW_DENSE_STRATA", ((7, 0.5), (8, 0.9)))
    monkeypatch.setattr(workloads, "SW_NUMBERS_STRATA", ((6, 0.5), (7, 0.8)))
    monkeypatch.setattr(run, "TRACE_CHECK_OPS", 40)
    monkeypatch.setattr(run, "DEADLINE_FACTOR", 1e6)  # every pass despite tiny --seconds
    return run.child_env()


def test_workload_names_match_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert sorted(run.E2E_INPUTS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_tiny(env, workload):
    metrics, attempted, failed, _ = run.end_to_end(env, workload, SECONDS, seed=3)
    assert attempted >= 1 and failed == 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_tiny(env):
    metrics, attempted, failed, _ = run.traced(env, seed=3)
    assert attempted >= 1 and failed == 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_main_prints_result_line(env, capsys):
    assert run.main(["--workload", "check-batch", "--seed", "1", "--seconds", str(SECONDS)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_planted_enumerate_expectation_fails(env, monkeypatch):
    real = workloads.enumerate_items

    def planted(n, count, rng):
        items = real(n, count, rng)
        items[0][2] = not items[0][2]
        return items

    monkeypatch.setattr(workloads, "enumerate_items", planted)
    _, attempted, failed, _ = run.end_to_end(env, "enumerate-sample", SECONDS, seed=3)
    assert failed == run.CHUNKS  # item 0, answered once per pass


def test_planted_enumerate_counts_fail(env, monkeypatch):
    monkeypatch.setattr(workloads, "ENUMERATE_EXPECT", {"total": 64, "orientable": 8, "spin": 7})
    _, attempted, failed, _ = run.traced(env, seed=3)
    assert failed == 3  # the counts of sweep(4) and of both traced loops


def _plant_n7(monkeypatch):
    real = workloads.sw_expect

    def planted(C):
        return dict(real(C), flags="orientable=planted") if C.n == 7 else real(C)

    monkeypatch.setattr(workloads, "sw_expect", planted)


@pytest.mark.parametrize("workload", ["sw-dense", "sw-numbers"])
def test_planted_sw_expectation_fails(env, monkeypatch, workload):
    _plant_n7(monkeypatch)
    attempted, failed = run.trace_sw(env, 3, workload, {}, [])
    assert attempted == 4 and failed == 2  # the n = 7 request, by the CLI and traced


def test_planted_check_expectation_fails():
    items = workloads.check_items(4, random.Random(1))
    first = items[0]
    items[0] = dataclasses.replace(first, expect=(not first.expect[0], first.expect[1]))
    _, attempted, failed = worker.check_pass(worker.NULL, items, 2)
    assert attempted == 8 and failed == 2  # item 0 ran once in each pass


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
