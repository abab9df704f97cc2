"""Tests of the repository benchmark itself (smoke-sized).

Run from the repository root: ``python -m pytest repobench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chaos import checkpoint
from repro.engine.session import Session

from repobench import run as bench_run
from repobench.episodes import EpisodeRunner, check_episode
from repobench.tracing import Span, layer_metrics, self_times
from repobench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str):
    """A tiny variant of a workload that runs the same code paths."""
    bench = WORKLOADS[name]
    size = dict(bench.workload_kwargs)
    size["num_pages"] = 1024
    size["ops_per_window"] //= 50
    return replace(
        bench,
        workload_kwargs=size,
        episode_windows=4 if bench.checkpoint_every else 3,
        sub_seeds=1,
        checkpoint_every=2 if bench.checkpoint_every else 0,
    )


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == bench_run.END_TO_END
    assert _declared("per_layer") == bench_run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result, table = bench_run.run(
        smoke(name), seed=3, seconds=0, trace=bool(trace),
        work_dir=tmp_path,
    )
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric]
        assert math.isfinite(entry["value"])
    assert {row[0] for row in table} >= set(bench_run.END_TO_END)
    if trace:
        spans = json.loads((tmp_path / f"spans-{name}.json").read_text())
        assert set(spans["spans"][0]) >= {
            "name", "start_ns", "end_ns", "parent", "window"
        }
        shares = sum(
            v for k, v in spans["layers"].items() if k.endswith(".share")
        )
        assert shares == pytest.approx(1.0)


def _smoke_session(windows=3):
    bench = smoke("xsbench-ckpt")
    session = Session(bench.spec(5))
    for _ in range(windows):
        session.run_window()
    accesses = windows * bench.accesses_per_window
    return session, accesses


def test_intact_episode_passes_its_checks():
    session, accesses = _smoke_session()
    blob = checkpoint.capture_session(session)
    assert check_episode(session, blob, 3, accesses) == []


def test_truncated_checkpoint_is_a_failure():
    session, accesses = _smoke_session()
    blob = checkpoint.capture_session(session)
    problems = check_episode(session, blob[: len(blob) // 2], 3, accesses)
    assert any("checkpoint restore" in p for p in problems)


def test_corrupted_page_location_is_a_failure():
    session, accesses = _smoke_session()
    blob = checkpoint.capture_session(session)
    location = session.system.page_location
    location[0] = (location[0] + 1) % len(session.system.tiers)
    problems = check_episode(session, blob, 3, accesses)
    assert any("capacity invariant" in p for p in problems)


def test_short_access_count_is_a_failure():
    session, accesses = _smoke_session()
    blob = checkpoint.capture_session(session)
    problems = check_episode(session, blob, 3, accesses + 1)
    assert any("served" in p for p in problems)


def test_tampered_run_reports_failure_not_numbers(tmp_path, monkeypatch):
    capture = checkpoint.capture_session
    monkeypatch.setattr(
        checkpoint, "capture_session", lambda s: capture(s)[:-64]
    )
    result, _ = bench_run.run(
        smoke("xsbench-ckpt"), seed=3, seconds=0, trace=False,
        work_dir=tmp_path,
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}


def test_nondeterministic_repeat_is_a_failure(tmp_path):
    runner = EpisodeRunner(smoke("ycsb-waterfall"), seed=3)
    runner.fingerprints[0] = {"slowdown": -1.0}
    episode = runner.run_episode(0)
    assert not episode.ok
    assert any("differ between repeats" in p for p in episode.problems)


def test_self_times_and_shares_add_up():
    spans = [
        Span("engine.run_window", 0, 80, parent=2, window=0),
        Span("mem.access_batch", 10, 40, parent=0, window=0),
        Span("window", 0, 100, parent=None, window=0),
        Span("checkpoint.restore", 200, 260, parent=None, window=None),
    ]
    spans[1].counts = {"faults": 7}
    assert self_times(spans) == [50, 30, 20, 60]
    metrics = layer_metrics(spans, serve=True)
    assert metrics["mem.share"] == pytest.approx(0.3)
    assert metrics["engine.share"] == pytest.approx(0.5)
    assert metrics["serve.share"] == pytest.approx(0.2)
    assert metrics["mem.faults_per_window"] == 7
    assert metrics["checkpoint.restore_ms"] == pytest.approx(60 / 1e6)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "repobench", tmp_path / "repobench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "ycsb-waterfall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
