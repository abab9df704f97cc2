#!/usr/bin/env python3
"""Paired benchmark gate: this tree against a parent tree.

Runs each tree's own ``repobench/run.py`` for ``PAIRS`` pairs with a
fixed seed and run length, alternating which side goes first so a host
that speeds up or slows down during the job hits both sides alike.  One
side of a pair is the eight runs in ``RUNS``: ``ycsb-waterfall`` (the
paper's Fig. 8 scenario), ``ycsb-amtco`` (the same stream under the
am-tco ILP: the solve layer), ``xsbench-ckpt`` (migration waves and
checkpoints) and ``serve-flash-adaptive`` (the serving path: trace
replay, ingest and its id -> count conversion) end to end, plus all
four with ``--trace 1`` for their per-layer telemetry, policy,
migration, fault path and serve ingest times (ycsb-waterfall's run
gates its telemetry, migration and fault path layers, xsbench-ckpt's
its migration and fault path layers).
Both trees run on the same host in the same job, so no committed
baseline is needed.

The gate fails (exit 1) when any of these holds:

* a gated metric's median over this tree's runs is more than its bound
  below the parent's median (see ``GATES``; every score is a rate, so
  higher is better);
* any run of either tree reports ``correct: false`` or prints no result.

Usage, from anywhere::

    python tools/bench_gate.py PARENT_DIR

where ``PARENT_DIR`` is a checkout of the parent commit, for example
one added with ``git worktree add ../parent <sha>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 5
SEED = 1
SECONDS = 8.0

#: ``(workload, --trace)`` runs that make up one side of a pair.
RUNS = (
    ("ycsb-waterfall", 0),
    ("ycsb-waterfall", 1),
    ("ycsb-amtco", 0),
    ("ycsb-amtco", 1),
    ("xsbench-ckpt", 0),
    ("xsbench-ckpt", 1),
    ("serve-flash-adaptive", 0),
    ("serve-flash-adaptive", 1),
)


def run_name(workload: str, trace: int) -> str:
    return f"{workload} --trace {trace}"


def _metric(name: str):
    return lambda metrics: metrics[name]["value"]


def _recommends_per_ms(metrics: dict) -> float:
    return 1.0 / metrics["policy.recommend_ms"]["value"]


def _profiled_windows_per_ms(metrics: dict) -> float:
    record_ms = metrics["telemetry.record_ms"]["value"]
    return 1.0 / (record_ms + metrics["telemetry.end_window_ms"]["value"])


def _migrated_pages_per_ms(metrics: dict) -> float:
    pages = metrics["migration.pages_per_window"]["value"]
    return pages / metrics["migration.apply_ms"]["value"]


def _accessed_windows_per_ms(metrics: dict) -> float:
    return 1.0 / metrics["mem.access_batch_ms"]["value"]


def _ingested_windows_per_ms(metrics: dict) -> float:
    return 1.0 / metrics["serve.ingest_ms"]["value"]


#: ``(run, metric, score, bound)``: the gate fails when the median score
#: of this tree is below ``(1 - bound)`` times the parent's.  The
#: end-to-end ``windows_per_s`` is rescaled by repobench's reference
#: kernel; the ``--trace 1`` rates are raw host time, whose run-to-run
#: spread on a shared VM is too wide for a 10 % bound.
GATES = (
    # Fig. 8 end to end: windows/s may drop at most 10 %.
    (
        run_name("ycsb-waterfall", 0),
        "windows_per_s",
        _metric("windows_per_s"),
        0.10,
    ),
    # The solve layer: the placement ILP every window.
    (
        run_name("ycsb-amtco", 0),
        "windows_per_s",
        _metric("windows_per_s"),
        0.10,
    ),
    (
        run_name("xsbench-ckpt", 0),
        "windows_per_s",
        _metric("windows_per_s"),
        0.10,
    ),
    # The serving path end to end.
    (
        run_name("serve-flash-adaptive", 0),
        "windows_per_s",
        _metric("windows_per_s"),
        0.10,
    ),
    # The policy layer: recommend calls per ms of policy.recommend may
    # drop at most 25 %, i.e. ms per window may rise at most 1/0.75.
    (
        run_name("ycsb-amtco", 1),
        "recommends_per_ms",
        _recommends_per_ms,
        0.25,
    ),
    # The telemetry layer: windows sampled and folded per ms of
    # telemetry.record + telemetry.end_window may drop at most 25 %.
    (
        run_name("ycsb-waterfall", 1),
        "profiled_windows_per_ms",
        _profiled_windows_per_ms,
        0.25,
    ),
    # Migration wave: pages moved per ms of migration.apply may drop at
    # most 25 %, i.e. ms per migrated page may rise at most 1/0.75, on
    # the Fig. 8 stream and on the largest address space.
    (
        run_name("ycsb-waterfall", 1),
        "migrated_pages_per_apply_ms",
        _migrated_pages_per_ms,
        0.25,
    ),
    (
        run_name("xsbench-ckpt", 1),
        "migrated_pages_per_apply_ms",
        _migrated_pages_per_ms,
        0.25,
    ),
    # The fault path: windows served by access_batch per ms of it may
    # drop at most 25 %, on the Fig. 8 stream and on the largest address
    # space.  Per window, not per fault: the traced fault count averages
    # over however many windows the run fits.
    (
        run_name("ycsb-waterfall", 1),
        "accessed_windows_per_ms",
        _accessed_windows_per_ms,
        0.25,
    ),
    (
        run_name("xsbench-ckpt", 1),
        "accessed_windows_per_ms",
        _accessed_windows_per_ms,
        0.25,
    ),
    # Serve ingest: windows taken from the stream, validated and counted
    # per ms of the daemon's own time may drop at most 25 %.
    (
        run_name("serve-flash-adaptive", 1),
        "ingested_windows_per_ms",
        _ingested_windows_per_ms,
        0.25,
    ),
)


def decide(parent: dict, change: dict) -> tuple[bool, list[str]]:
    """The gate's verdict over parsed run results.

    Args:
        parent, change: run name (``run_name``) -> list of the JSON
            result objects that ``repobench/run.py`` printed, one per
            run.

    Returns:
        ``(ok, lines)``: whether the change passes, and one report line
        per correctness failure and per gated metric.
    """
    ok = True
    lines = []
    for side, runs in (("parent", parent), ("change", change)):
        for name, results in runs.items():
            for i, result in enumerate(results):
                if not result.get("correct"):
                    ok = False
                    lines.append(f"FAIL {side} {name} run {i}: correct is false")
    for name, metric, score, bound in GATES:
        label = f"{name} {metric}"
        medians = []
        for runs in (parent, change):
            values = [
                score(r["metrics"]) for r in runs.get(name, ()) if r.get("correct")
            ]
            medians.append(statistics.median(values) if values else None)
        before, after = medians
        if before is None or after is None:
            ok = False
            lines.append(f"FAIL {label}: no correct run on one side")
            continue
        change_pct = 100.0 * (after / before - 1.0)
        passed = after >= (1.0 - bound) * before
        ok &= passed
        lines.append(
            f"{'ok  ' if passed else 'FAIL'} {label}: median {after:.4g} vs "
            f"parent {before:.4g} ({change_pct:+.1f}%, bound "
            f"-{100 * bound:.0f}%)"
        )
    return ok, lines


def run_once(tree: Path, workload: str, trace: int) -> dict:
    """One ``repobench/run.py`` run in ``tree``; its parsed JSON result.

    A run that prints no JSON result counts as incorrect.
    """
    proc = subprocess.run(
        [
            sys.executable,
            str(tree / "repobench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", str(trace),
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "metrics": {}}


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("parent", type=Path, help="checkout of the parent tree")
    args = cli.parse_args(argv)
    parent_tree = args.parent.resolve()
    if not (parent_tree / "repobench" / "run.py").is_file():
        cli.error(f"{parent_tree} has no repobench/run.py")

    trees = {"parent": parent_tree, "change": ROOT}
    results = {side: {run_name(*run): [] for run in RUNS} for side in trees}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            for run in RUNS:
                name = run_name(*run)
                result = run_once(trees[side], *run)
                results[side][name].append(result)
                scores = [
                    f"{metric}={score(result['metrics']):.4g}"
                    for gated, metric, score, _ in GATES
                    if gated == name and result.get("correct")
                ]
                print(
                    f"pair {pair} {side:6s} {name:24s} "
                    f"correct={result.get('correct')}",
                    *scores,
                    flush=True,
                )
    ok, lines = decide(results["parent"], results["change"])
    print("\n".join(lines))
    print("bench gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
