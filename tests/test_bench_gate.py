"""Tests for the paired benchmark gate's decision rule (tools/bench_gate.py).

``decide`` is a pure function over parsed ``repobench/run.py`` results,
so these cases need no benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

_GATE_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(correct=True, **metrics):
    return {
        "correct": correct,
        "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
    }


def _side(
    windows_per_s=60.0,
    apply_ms=3.2,
    pages=2000.0,
    incorrect_run=None,
    serve_windows_per_s=280.0,
    amtco_windows_per_s=250.0,
    recommend_ms=1.0,
    record_ms=0.3,
    end_window_ms=0.05,
    waterfall_apply_ms=0.9,
    waterfall_pages=900.0,
    ingest_ms=0.4,
    waterfall_access_ms=0.3,
    access_ms=0.5,
):
    """One tree's parsed results: five identical runs of each run name."""
    ycsb = [_result(windows_per_s=windows_per_s) for _ in range(5)]
    ycsb_traced = [
        _result(
            **{
                "telemetry.record_ms": record_ms,
                "telemetry.end_window_ms": end_window_ms,
                "migration.apply_ms": waterfall_apply_ms,
                "migration.pages_per_window": waterfall_pages,
                "mem.access_batch_ms": waterfall_access_ms,
            }
        )
        for _ in range(5)
    ]
    amtco = [_result(windows_per_s=amtco_windows_per_s) for _ in range(5)]
    amtco_traced = [
        _result(**{"policy.recommend_ms": recommend_ms}) for _ in range(5)
    ]
    xsbench = [_result(windows_per_s=90.0) for _ in range(5)]
    serve = [_result(windows_per_s=serve_windows_per_s) for _ in range(5)]
    serve_traced = [_result(**{"serve.ingest_ms": ingest_ms}) for _ in range(5)]
    traced = [
        _result(
            **{
                "migration.apply_ms": apply_ms,
                "migration.pages_per_window": pages,
                "mem.access_batch_ms": access_ms,
            }
        )
        for _ in range(5)
    ]
    if incorrect_run is not None:
        traced[incorrect_run]["correct"] = False
    return {
        "ycsb-waterfall --trace 0": ycsb,
        "ycsb-waterfall --trace 1": ycsb_traced,
        "ycsb-amtco --trace 0": amtco,
        "ycsb-amtco --trace 1": amtco_traced,
        "xsbench-ckpt --trace 0": xsbench,
        "xsbench-ckpt --trace 1": traced,
        "serve-flash-adaptive --trace 0": serve,
        "serve-flash-adaptive --trace 1": serve_traced,
    }


def test_identical_sides_pass(gate):
    ok, lines = gate.decide(_side(), _side())
    assert ok
    assert len(lines) == len(gate.GATES)
    assert all(line.startswith("ok") for line in lines)


def test_windows_per_s_drop_of_15_pct_fails(gate):
    ok, lines = gate.decide(_side(), _side(windows_per_s=60.0 * 0.85))
    assert not ok
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "ycsb-waterfall --trace 0 windows_per_s" in failed[0]


def test_serve_windows_per_s_drop_of_15_pct_fails(gate):
    ok, lines = gate.decide(_side(), _side(serve_windows_per_s=280.0 * 0.85))
    assert not ok
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "serve-flash-adaptive --trace 0 windows_per_s" in failed[0]


def test_amtco_windows_per_s_drop_of_15_pct_fails(gate):
    ok, lines = gate.decide(_side(), _side(amtco_windows_per_s=250.0 * 0.85))
    assert not ok
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "ycsb-amtco --trace 0 windows_per_s" in failed[0]


def test_slower_policy_layer_fails(gate):
    # +40 % ms of policy.recommend per window is past the 1/0.75 bound;
    # +30 % is within it.
    ok, lines = gate.decide(_side(), _side(recommend_ms=1.40))
    assert not ok
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "ycsb-amtco --trace 1 recommends_per_ms" in failed[0]
    ok, _ = gate.decide(_side(), _side(recommend_ms=1.30))
    assert ok


def test_slower_telemetry_layer_fails(gate):
    # +40 % ms of telemetry.record + telemetry.end_window per window is
    # past the 1/0.75 bound; +30 % is within it, wherever it lands.
    ok, lines = gate.decide(_side(), _side(record_ms=0.3 + 0.14))
    assert not ok
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "ycsb-waterfall --trace 1 profiled_windows_per_ms" in failed[0]
    ok, _ = gate.decide(_side(), _side(end_window_ms=0.05 + 0.105))
    assert ok


def test_slower_migration_per_page_fails(gate):
    # +40 % ms per migrated page is past the 1/0.75 bound, on either
    # gated run; +30 % is within it.
    for run, slower in (
        ("xsbench-ckpt --trace 1", {"apply_ms": 3.2 * 1.40}),
        ("ycsb-waterfall --trace 1", {"waterfall_apply_ms": 0.9 * 1.40}),
    ):
        ok, lines = gate.decide(_side(), _side(**slower))
        assert not ok
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert f"{run} migrated_pages_per_apply_ms" in failed[0]
    ok, _ = gate.decide(_side(), _side(waterfall_pages=900.0 / 1.30))
    assert ok


def test_slower_serve_ingest_fails(gate):
    # +40 % ms of serve ingest per window is past the 1/0.75 bound; +30 %
    # is within it.
    ok, lines = gate.decide(_side(), _side(ingest_ms=0.4 * 1.40))
    assert not ok
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "serve-flash-adaptive --trace 1 ingested_windows_per_ms" in failed[0]
    ok, _ = gate.decide(_side(), _side(ingest_ms=0.4 * 1.30))
    assert ok


def test_slower_fault_path_fails(gate):
    # +40 % ms of mem.access_batch per window is past the 1/0.75 bound,
    # on either gated run; +30 % is within it.
    for run, slower in (
        ("ycsb-waterfall --trace 1", {"waterfall_access_ms": 0.3 * 1.40}),
        ("xsbench-ckpt --trace 1", {"access_ms": 0.5 * 1.40}),
    ):
        ok, lines = gate.decide(_side(), _side(**slower))
        assert not ok
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert f"{run} accessed_windows_per_ms" in failed[0]
    ok, _ = gate.decide(
        _side(), _side(waterfall_access_ms=0.3 * 1.30, access_ms=0.5 * 1.30)
    )
    assert ok


def test_one_incorrect_run_fails(gate):
    ok, lines = gate.decide(_side(), _side(incorrect_run=2))
    assert not ok
    assert "FAIL change xsbench-ckpt --trace 1 run 2: correct is false" in lines
    # The remaining correct runs still feed the metric medians.
    assert sum(line.startswith("ok") for line in lines) == len(gate.GATES)


def test_bounds_match_the_gates_they_replace(gate):
    bounds = {(run, metric): bound for run, metric, _, bound in gate.GATES}
    assert bounds == {
        ("ycsb-waterfall --trace 0", "windows_per_s"): 0.10,
        ("ycsb-waterfall --trace 1", "profiled_windows_per_ms"): 0.25,
        ("ycsb-waterfall --trace 1", "migrated_pages_per_apply_ms"): 0.25,
        ("ycsb-waterfall --trace 1", "accessed_windows_per_ms"): 0.25,
        ("ycsb-amtco --trace 0", "windows_per_s"): 0.10,
        ("ycsb-amtco --trace 1", "recommends_per_ms"): 0.25,
        ("xsbench-ckpt --trace 0", "windows_per_s"): 0.10,
        ("xsbench-ckpt --trace 1", "migrated_pages_per_apply_ms"): 0.25,
        ("xsbench-ckpt --trace 1", "accessed_windows_per_ms"): 0.25,
        ("serve-flash-adaptive --trace 0", "windows_per_s"): 0.10,
        ("serve-flash-adaptive --trace 1", "ingested_windows_per_ms"): 0.25,
    }
    assert {run for run, *_ in gate.GATES} == {
        gate.run_name(*run) for run in gate.RUNS
    }
