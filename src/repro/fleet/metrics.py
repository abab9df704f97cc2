"""Fleet rollup: aggregate dollars, distributions and event export.

One node's :class:`~repro.core.metrics.RunSummary` answers "how did this
policy do"; a fleet operator asks "what does the fleet bill look like and
who is hurting".  This module folds per-node results into

* a per-node table (:func:`node_rows`),
* cross-node distributions of the headline metrics
  (:func:`slowdown_distribution`, :func:`latency_distribution`),
* one aggregate rollup row (:func:`fleet_rollup`) with memory-weighted
  TCO savings converted to dollars via
  :func:`repro.core.dollars.project_fleet_nodes`, and
* a per-window JSONL event stream (:func:`export_fleet_events`) for
  archival / downstream analysis, mirroring the artifact's perflog dirs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.bench.export import export
from repro.core.dollars import DEFAULT_DRAM_PRICE, project_fleet_nodes
from repro.fleet.runner import FleetResult


def _distribution(values) -> dict:
    """min / p50 / mean / p95 / max of a cross-node metric."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one node")
    return {
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "mean": float(arr.mean()),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }


def slowdown_distribution(result: FleetResult) -> dict:
    """Fleet-wide slowdown distribution, in percent."""
    return _distribution(100.0 * n.summary.slowdown for n in result.nodes)


def latency_distribution(result: FleetResult, which: str = "p999") -> dict:
    """Distribution of per-node tail latency (``p95`` or ``p999``), ns."""
    if which not in ("p95", "p999"):
        raise ValueError("which must be 'p95' or 'p999'")
    key = f"{which}_latency_ns"
    return _distribution(getattr(n.summary, key) for n in result.nodes)


def node_rows(result: FleetResult) -> list[dict]:
    """One table row per node: placement outcome plus solver-service tax."""
    rows = []
    for node in result.nodes:
        summary, stats = node.summary, node.stats
        rows.append(
            {
                "node": node.spec.node_id,
                "workload": summary.workload,
                "policy": summary.policy,
                "mem_gb": node.spec.memory_gb,
                "slowdown_pct": 100.0 * summary.slowdown,
                "tco_savings_pct": 100.0 * summary.tco_savings,
                "p999_ns": summary.p999_latency_ns,
                "faults": summary.total_faults,
                "solver_tax_ms": stats.service_ns / 1e6,
                "queue_ms": stats.queue_ns / 1e6,
                "fallbacks": stats.fallbacks,
            }
        )
    return rows


def rack_rows(result: FleetResult) -> list[dict]:
    """One row per rack of the hierarchical metrics rollup.

    Racks are contiguous ``rack_size`` slices of the node-id order (the
    fold is associative and order-preserving, so the cluster-level merge
    of these racks is bit-identical to the flat per-node fold).
    """
    rows = []
    for rack_id, registry in enumerate(result.rack_metrics):
        start = rack_id * result.rack_size
        nodes = result.nodes[start : start + result.rack_size]
        rows.append(
            {
                "rack": rack_id,
                "nodes": len(nodes),
                "mem_gb": sum(n.spec.memory_gb for n in nodes),
                "solver_tax_ms": sum(n.stats.service_ns for n in nodes)
                / 1e6,
            }
        )
    return rows


def fleet_rollup(
    result: FleetResult,
    dram_price_per_gb_month: float = DEFAULT_DRAM_PRICE,
) -> dict:
    """The fleet's aggregate outcome as one flat row.

    Memory-weighted TCO savings become dollars (big nodes dominate the
    bill); solver-service tax sums over nodes and splits into queue vs
    solve so a congested shared solver is visible at a glance.
    """
    projection = project_fleet_nodes(
        (
            (n.spec.memory_gb, n.summary.tco_savings, n.summary.slowdown)
            for n in result.nodes
        ),
        dram_price_per_gb_month,
    )
    total_queue_ns = sum(n.stats.queue_ns for n in result.nodes)
    total_solve_ns = sum(n.stats.solve_ns for n in result.nodes)
    return {
        "nodes": len(result.nodes),
        "jobs": result.jobs,
        "fleet_mem_gb": projection.fleet_memory_gb,
        "tco_savings_pct": 100.0
        * projection.saved_dollars_month
        / projection.baseline_dollars_month,
        "saved_per_month": projection.saved_dollars_month,
        "saved_per_year": projection.saved_dollars_year,
        "slowdown_pct": 100.0 * projection.performance_cost,
        "solver_queue_ms": total_queue_ns / 1e6,
        "solver_solve_ms": total_solve_ns / 1e6,
        "fallbacks": sum(n.stats.fallbacks for n in result.nodes),
        "wall_s": result.wall_s,
    }


def fleet_event_rows(result: FleetResult) -> list[dict]:
    """All nodes' per-window rows, ordered (node, window)."""
    rows = []
    for node in result.nodes:
        rows.extend(node.window_rows)
    return rows


def export_fleet_events(result: FleetResult, path) -> Path:
    """Persist the per-window event stream (JSONL/JSON/CSV by suffix)."""
    return export(fleet_event_rows(result), path)


def solver_tax_rows(result: FleetResult) -> list[dict]:
    """Per-node solver-service tax (the Figure 14 view, fleet-wide).

    Reports both the modeled virtual-time tax the summaries charge and
    the measured solver wall time (real nanoseconds spent in backends).
    """
    rows = []
    for node in result.nodes:
        stats = node.stats
        app_ns = max(1.0, node.summary.extras.get("app_ns", 1.0))
        rows.append(
            {
                "node": node.spec.node_id,
                "workload": node.summary.workload,
                "queue_ms": stats.queue_ns / 1e6,
                "solve_ms": stats.solve_ns / 1e6,
                "rtt_ms": stats.rtt_ns / 1e6,
                "tax_pct_of_app": 100.0 * stats.service_ns / app_ns,
                "measured_solver_ms": stats.measured_wall_ns / 1e6,
                "fallbacks": stats.fallbacks,
            }
        )
    return rows
