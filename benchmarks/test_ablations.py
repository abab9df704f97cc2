"""Ablation benches for the design choices DESIGN.md §5 calls out:
the migration filter, hotness cooling, tier count, and solver backend.
"""

from conftest import run_once

from repro.bench.experiments import (
    ablation_cooling,
    ablation_filter,
    ablation_solver,
    ablation_telemetry,
    ablation_tier_count,
)
from repro.bench.reporting import format_table


def test_ablation_filter(benchmark):
    rows = run_once(benchmark, ablation_filter, windows=10, seed=0)
    print()
    print(format_table(rows, title="Ablation: migration filter on/off"))
    by_config = {r["config"]: r for r in rows}
    # Without the filter the daemon performs at least as much migration
    # work (no capacity/pressure drops).
    assert (
        by_config["filter-off"]["migration_ms"]
        >= by_config["filter-on"]["migration_ms"] * 0.5
    )


def test_ablation_cooling(benchmark):
    rows = run_once(benchmark, ablation_cooling, windows=10, seed=0)
    print()
    print(format_table(rows, title="Ablation: hotness EWMA cooling"))
    assert len(rows) == 5
    # Every setting still produces a functional system (positive savings).
    for row in rows:
        assert row["tco_savings_pct"] > 0


def test_ablation_tier_count(benchmark):
    rows = run_once(benchmark, ablation_tier_count, windows=10, seed=0)
    print()
    print(format_table(rows, title="Ablation: 1 vs 2 vs 5 compressed tiers"))
    by_config = {r["config"]: r for r in rows}
    # §8.3.2: more compressed tiers unlock more achievable TCO savings.
    assert (
        by_config["5-CT"]["tco_savings_pct"]
        > by_config["1-CT"]["tco_savings_pct"]
    )


def test_ablation_telemetry(benchmark):
    rows = run_once(benchmark, ablation_telemetry, windows=10, seed=0)
    print()
    print(format_table(rows, title="Ablation: telemetry backends"))
    by_kind = {r["telemetry"]: r for r in rows}
    # All three backends find enough cold data to save double-digit TCO.
    for kind, row in by_kind.items():
        assert row["tco_savings_pct"] > 10.0, kind
    # DAMON's probing cost is the cheapest per window (O(samples), not
    # O(accesses) or O(pages)).
    assert (
        by_kind["damon"]["profiling_ms"]
        <= min(by_kind["pebs"]["profiling_ms"], by_kind["idlebit"]["profiling_ms"])
        + 0.1
    )


def test_ablation_solver(benchmark):
    rows = run_once(benchmark, ablation_solver, windows=6, seed=0)
    print()
    print(format_table(rows, title="Ablation: ILP solver backend"))
    by_backend = {r["backend"]: r for r in rows}
    # The greedy heuristic lands within a few points of the exact solver
    # on both axes.
    assert abs(
        by_backend["greedy"]["tco_savings_pct"]
        - by_backend["scipy"]["tco_savings_pct"]
    ) < 10.0
    # And solves faster.
    assert by_backend["greedy"]["solver_ms"] <= by_backend["scipy"]["solver_ms"]
    # The exact frontier DP matches HiGHS's savings (they differ only in
    # how ties resolve) and solves no slower.
    assert abs(
        by_backend["frontier"]["tco_savings_pct"]
        - by_backend["scipy"]["tco_savings_pct"]
    ) < 0.5
    assert by_backend["frontier"]["solver_ms"] <= by_backend["scipy"]["solver_ms"]
