"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 repobench/run.py --workload ycsb-waterfall --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it splits the time between an untraced and a traced phase
and reports the per-layer metrics instead (and writes every span to
``.repobench/spans-<workload>.json``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Attempted and
failed count windows: an episode that fails an output check counts all
its windows as failed (error rate = failed / attempted) and contributes
no timing.  Exits 2 without a result when the program under test
(``src/repro``) is not present.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "windows_per_s": "1/s",
    "window_ms_p50": "ms",
    "window_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tco_savings_pct": "%",
    "slowdown_pct": "%",
    "sim_mean_access_ns": "ns",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workloads.next_window_ms": "ms",
    "mem.access_batch_ms": "ms",
    "mem.faults_per_window": "count",
    "telemetry.record_ms": "ms",
    "telemetry.end_window_ms": "ms",
    "policy.recommend_ms": "ms",
    "filter.apply_ms": "ms",
    "filter.kept_ratio": "ratio",
    "migration.apply_ms": "ms",
    "migration.pages_per_window": "count",
    "migration.failed_stores": "count",
    "adaptive.observe_window_ms": "ms",
    "adaptive.steps": "count",
    "checkpoint.capture_ms": "ms",
    "checkpoint.restore_ms": "ms",
    "checkpoint.bytes": "bytes",
    "serve.ingest_ms": "ms",
    "engine.residual_ms": "ms",
    **{
        f"{layer}.share": "ratio"
        for layer in (
            "workloads",
            "mem",
            "telemetry",
            "policy",
            "filter",
            "migration",
            "adaptive",
            "checkpoint",
            "serve",
            "engine",
        )
    },
    "trace.untraced_windows_per_s": "1/s",
    "trace.traced_windows_per_s": "1/s",
    "trace.overhead_pct": "%",
}

#: Run-time files (trace cache, drain checkpoint, spans), git-ignored.
WORK_DIR = ROOT / ".repobench"


def _percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _host_stats(episodes, reference_s: float | None = None) -> dict:
    """Host-time statistics over the passing episodes.

    With ``reference_s``, each episode's times are rescaled to a host on
    which the reference kernel takes ``reference_s``, using the median
    kernel time of the episode and its two neighbours on each side: close
    enough in time to follow the host's speed through a run, and a median
    of five, so one noisy kernel sample does not move the episode.
    """
    passing = [e for e in episodes if e.ok]
    refs = [e.reference_s for e in passing]
    scales = [
        reference_s / statistics.median(refs[max(0, i - 2) : i + 3])
        if reference_s is not None
        else 1.0
        for i in range(len(passing))
    ]
    times = [t * s for e, s in zip(passing, scales) for t in e.window_s]
    return {
        "windows": len(times),
        "episodes": len(passing),
        "windows_per_s": len(times) / sum(times),
        "window_ms_p50": 1e3 * _percentile(times, 50.0),
        "window_ms_p90": 1e3 * _percentile(times, 90.0),
        "setup_s": statistics.median(
            e.setup_s * s for e, s in zip(passing, scales)
        ),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def run(bench, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Run ``bench`` and return ``(result, table)``: the JSON result
    object and the human-readable ``(name, value, unit, samples)`` rows."""
    from repobench.episodes import REFERENCE_S, EpisodeRunner
    from repobench.tracing import SpanRecorder, layer_metrics
    from repobench.workloads import prepare_traces

    work_dir.mkdir(parents=True, exist_ok=True)
    traces = (
        prepare_traces(bench, seed, work_dir / "traces") if bench.serve else ()
    )
    runner = EpisodeRunner(bench, seed, traces, work_dir)
    recorder = SpanRecorder() if trace else None
    traced = []
    try:
        # One untimed episode first: the process's first large allocations
        # page-fault fresh memory, which later episodes reuse.  It runs
        # sub-seed 0, which the timed phase repeats (determinism check).
        warmup = runner.run_episode(0)
        # A traced run splits its time between the untraced phase (the
        # baseline for the tracing overhead) and the traced phase.
        phase_s = seconds / 2 if trace else seconds
        untraced = runner.run_phase(phase_s, bench.sub_seeds)
        if recorder is not None:
            try:
                traced = runner.run_phase(phase_s, 1, recorder)
            finally:
                recorder.uninstall()
    finally:
        runner.close()

    episodes = [warmup] + untraced + traced
    attempted = sum(len(e.window_s) for e in episodes)
    failed = sum(len(e.window_s) for e in episodes if not e.ok)
    for e in episodes:
        for problem in e.problems:
            print(f"check failed (episode {e.index}): {problem}", file=sys.stderr)
    table = [("error_rate", failed / max(1, attempted), "1", attempted)]
    metrics: dict[str, float] = {}
    passing = [e for e in untraced if e.ok]
    if passing:
        raw = _host_stats(untraced)
        host = _host_stats(untraced, REFERENCE_S)
        n, episodes_passed = host["windows"], host["episodes"]
        sims = [runner.fingerprints[k] for k in range(bench.sub_seeds)]

        def sim_mean(field: str, scale: float = 1.0) -> float:
            return scale * statistics.fmean(s[field] for s in sims)

        end_to_end = {
            "windows_per_s": (host["windows_per_s"], n),
            "window_ms_p50": (host["window_ms_p50"], n),
            "window_ms_p90": (host["window_ms_p90"], n),
            "setup_s": (host["setup_s"], episodes_passed),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                1,
            ),
            "tco_savings_pct": (sim_mean("tco_savings", 100.0), len(sims)),
            "slowdown_pct": (sim_mean("slowdown", 100.0), len(sims)),
            "sim_mean_access_ns": (sim_mean("avg_latency_ns"), len(sims)),
        }
        table += [
            (name, value, END_TO_END[name], count)
            for name, (value, count) in end_to_end.items()
        ]
        speed = REFERENCE_S / statistics.median(e.reference_s for e in passing)
        table.append(
            ("host_speed_vs_reference", speed, "ratio", episodes_passed)
        )
        table += [
            (f"{name}_raw", raw[name], END_TO_END[name], count)
            for name, (_, count) in end_to_end.items()
            if name in raw
        ]
        # Reported, not gated: the simulator's latencies are a few
        # discrete tier values, so this tail reads the same on most seeds.
        table.append(
            ("sim_p999_access_ns", sim_mean("p999_latency_ns"), "ns", len(sims))
        )
        if not trace:
            metrics = {name: value for name, (value, _) in end_to_end.items()}
        elif traced and all(e.ok for e in traced):
            traced_raw = _host_stats(traced)
            traced_n = traced_raw["windows"]
            wps, traced_wps = raw["windows_per_s"], traced_raw["windows_per_s"]
            metrics = layer_metrics(recorder.spans, serve=bench.serve)
            metrics["adaptive.steps"] = statistics.fmean(
                e.adaptive_steps for e in traced
            )
            metrics["trace.untraced_windows_per_s"] = wps
            metrics["trace.traced_windows_per_s"] = traced_wps
            metrics["trace.overhead_pct"] = 100.0 * (wps / traced_wps - 1.0)
            table += [
                (name, metrics[name], PER_LAYER[name], traced_n)
                for name in PER_LAYER
            ]
            recorder.write(
                work_dir / f"spans-{bench.name}.json",
                workload=bench.name,
                seed=seed,
                environment=environment(),
                layers=metrics,
            )
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    return result, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: the program under test is missing ({ROOT / 'src'})",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repobench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"available: {', '.join(WORKLOADS)}"
        )
    started = time.perf_counter()
    result, table = run(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        WORK_DIR,
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit, samples in table:
        print(f"{name:32s} {value:14.6g} {unit:6s} n={samples}")
    print(f"# run wall time {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
