"""Fleet-scale solve-cache benchmark (``python -m repro fleetbench``).

Two benches quantify what :mod:`repro.fleet.solvecache` buys a fleet
operator:

* **fleet_scale** -- a homogeneous ILP fleet (the ``ilp`` profile:
  24-region masim instances solved by scipy/HiGHS, the OR-Tools
  stand-in) run twice, cache off vs cache on.  Off, every node pays an
  exact solve per window; on, quantized signatures collide across nodes
  and windows so the fleet's ILP load collapses to a handful of
  canonical solves.  The headline number is the fleet wall-clock ratio;
  with a ~7 ms exact solve the cache's own bookkeeping costs more host
  time than it saves, so the ratio sits below 1 (the modeled solver-tax
  saving is reported beside it).
* **hyperscale** -- a 1000-node micro fleet with the cache on,
  demonstrating that a four-digit fleet completes end to end and that
  the merged registry carries the modeled shared-cache hit rate
  (``repro_solver_cache_hits_total`` / ``repro_solver_cache_hit_rate``).

Results are written as ``BENCH_fleet.json`` with the same shape as the
hot-path report: a committed ``reference`` section plus ``current`` and
per-bench speedups.  CI runs the smoke preset (small fleets) and only
asserts the benches finish and the cache actually hits.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

#: Benchmark names in report order.
FLEET_BENCH_NAMES = ("fleet_scale", "hyperscale")

#: Units each benchmark's rate is quoted in.
FLEET_BENCH_UNITS = {
    "fleet_scale": "node-windows/s",
    "hyperscale": "node-windows/s",
}


def _replay_dict(replay) -> dict:
    return {
        "requests": replay.requests,
        "hits": replay.hits,
        "misses": replay.misses,
        "batched": replay.batched,
        "evictions": replay.evictions,
        "hit_rate": replay.hit_rate,
        "modeled_saving_pct": 100.0 * replay.modeled_saving,
    }


def bench_fleet_scale(
    nodes: int = 8,
    windows: int = 8,
    quantum: float = 0.5,
    jobs: int = 1,
    seed: int = 7,
) -> dict:
    """Fleet wall-clock, cache off vs on, on a homogeneous ILP fleet.

    The service backend is pinned to ``scipy`` (HiGHS, the paper's
    OR-Tools stand-in) rather than ``auto``, so the measured solve is
    the exact MILP a fleet operator would run.  Both runs share one
    spec; the only difference is the cache.
    """
    from repro.fleet import (
        FleetRunner,
        FleetSpec,
        SolveCacheConfig,
        SolverServiceConfig,
    )
    from repro.fleet.solvecache import reset_worker_cache

    spec = FleetSpec(
        nodes=nodes,
        profile="ilp",
        windows=windows,
        seed=seed,
        scales=(1.0,),
        homogeneous=True,
    )
    service = SolverServiceConfig(
        deployment="remote",
        servers=4,
        timeout_ms=2000.0,
        backend="scipy",
    )

    def _run(cache):
        reset_worker_cache()
        runner = FleetRunner(spec, jobs=jobs, service=service, cache=cache)
        t0 = time.perf_counter()
        result = runner.run()
        return time.perf_counter() - t0, result

    wall_off, off = _run(None)
    wall_on, on = _run(SolveCacheConfig(quantum=quantum))
    node_windows = nodes * windows
    return {
        "nodes": nodes,
        "windows": windows,
        "quantum": quantum,
        "wall_s_cache_off": wall_off,
        "wall_s_cache_on": wall_on,
        "wall_s": wall_on,
        "cache_speedup": wall_off / wall_on if wall_on else 0.0,
        "solver_wall_s_cache_off": sum(
            n.stats.measured_wall_ns for n in off.nodes
        )
        / 1e9,
        "node_cache_hits": sum(n.stats.cache_hits for n in on.nodes),
        "replay": _replay_dict(on.cache_replay),
        "rate": node_windows / wall_on if wall_on else 0.0,
        "unit": FLEET_BENCH_UNITS["fleet_scale"],
    }


def bench_hyperscale(
    nodes: int = 1000,
    windows: int = 6,
    quantum: float = 0.5,
    jobs: int = 4,
    rack_size: int = 32,
    seed: int = 7,
) -> dict:
    """A 1000-node micro fleet, cache on, hit rate from merged metrics."""
    from repro.fleet import (
        FleetRunner,
        FleetSpec,
        ObsOptions,
        SolveCacheConfig,
        SolverServiceConfig,
    )
    from repro.fleet.solvecache import reset_worker_cache

    spec = FleetSpec(
        nodes=nodes,
        profile="micro",
        windows=windows,
        seed=seed,
        scales=(1.0,),
        homogeneous=True,
    )
    service = SolverServiceConfig(
        deployment="remote", servers=8, timeout_ms=500.0
    )
    reset_worker_cache()
    runner = FleetRunner(
        spec,
        jobs=jobs,
        service=service,
        cache=SolveCacheConfig(quantum=quantum),
        rack_size=rack_size,
        obs=ObsOptions(metrics=True),
    )
    t0 = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - t0
    snapshot = result.metrics.snapshot()

    def _metric(name: str) -> float:
        series = snapshot.get(name, {}).get("series", {})
        return float(sum(series.values()))

    node_windows = nodes * windows
    return {
        "nodes": nodes,
        "windows": windows,
        "jobs": jobs,
        "racks": len(result.rack_metrics),
        "wall_s": wall,
        "merged_cache_hits": _metric("repro_solver_cache_hits_total"),
        "merged_cache_hit_rate": _metric("repro_solver_cache_hit_rate"),
        "replay": _replay_dict(result.cache_replay),
        "rate": node_windows / wall if wall else 0.0,
        "unit": FLEET_BENCH_UNITS["hyperscale"],
    }


def run_fleet_benches(smoke: bool = False, jobs: int = 4, seed: int = 7) -> dict:
    """Run both fleet benches; the smoke preset shrinks the fleets."""
    if smoke:
        return {
            "fleet_scale": bench_fleet_scale(
                nodes=4, windows=4, jobs=1, seed=seed
            ),
            "hyperscale": bench_hyperscale(
                nodes=64, windows=5, jobs=min(jobs, 2), seed=seed
            ),
        }
    return {
        "fleet_scale": bench_fleet_scale(jobs=1, seed=seed),
        "hyperscale": bench_hyperscale(jobs=jobs, seed=seed),
    }


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def run_fleetbench(
    out: str | Path | None = None,
    baseline: str | Path | None = None,
    smoke: bool = False,
    rebaseline: bool = False,
    jobs: int = 4,
    seed: int = 7,
) -> dict:
    """Run the fleet benches, compare against the baseline, write JSON."""
    current = run_fleet_benches(smoke=smoke, jobs=jobs, seed=seed)

    reference = None
    ref_path = Path(baseline) if baseline else (Path(out) if out else None)
    if ref_path is not None and ref_path.exists():
        with open(ref_path) as fh:
            prior = json.load(fh)
        reference = prior.get("reference")
    if rebaseline or reference is None:
        reference = {
            name: {"rate": bench["rate"], "unit": bench["unit"]}
            for name, bench in current.items()
        }

    speedup = {}
    for name, bench in current.items():
        ref_rate = float(reference.get(name, {}).get("rate", 0.0))
        speedup[name] = bench["rate"] / ref_rate if ref_rate > 0 else None

    report = {
        "schema": 1,
        "preset": "smoke" if smoke else "full",
        "environment": _environment(),
        "reference": reference,
        "current": current,
        "speedup_vs_reference": speedup,
    }
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def fleet_report_rows(report: dict) -> list[dict]:
    """Flatten a fleet bench report for table printing."""
    rows = []
    for name in FLEET_BENCH_NAMES:
        bench = report["current"].get(name)
        if bench is None:
            continue
        rows.append(
            {
                "benchmark": name,
                "nodes": bench["nodes"],
                "windows": bench["windows"],
                "wall_s": bench["wall_s"],
                "rate": bench["rate"],
                "unit": bench["unit"],
                "cache_speedup": bench.get("cache_speedup", float("nan")),
                "hit_rate": bench["replay"]["hit_rate"],
            }
        )
    return rows
