"""Command-line interface: run any experiment, scenario or policy.

Examples::

    python -m repro list                          # available experiments
    python -m repro run fig01 --windows 8         # regenerate Figure 1
    python -m repro run fig13 --seed 3
    python -m repro run scenario.json             # run a scenario file
    python -m repro run scenario.json --trace t.json --metrics m.prom
    python -m repro report run_events.jsonl       # digest an event export
    python -m repro policy memcached-ycsb am-tco  # one policy run
    python -m repro workloads                     # Table 2
    python -m repro tiers --profile nci --k 5     # auto tier selection

``run`` accepts either a named experiment driver or a path to a
:class:`~repro.engine.spec.ScenarioSpec` file (``.json`` / ``.toml``);
unknown experiment, workload, policy or telemetry names exit with
status 2.  ``--trace`` writes a ``chrome://tracing`` span trace and
``--metrics`` a Prometheus textfile (scenario and fleet runs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.bench import experiments
from repro.bench.reporting import format_table
from repro.obs import LOG_LEVELS, configure_logging, get_logger

_log = get_logger("cli")

#: Experiment name -> (driver, description).  Drivers return row lists or
#: trace dicts; trace dicts are flattened for printing.
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig01": (experiments.fig01_motivation, "Figure 1: single-tier aggressiveness"),
    "fig02": (experiments.fig02_characterization, "Figure 2: 12-tier characterization"),
    "fig07": (experiments.fig07_standard_mix, "Figure 7: standard-mix comparison"),
    "fig08": (experiments.fig08_waterfall_trace, "Figure 8: Waterfall trace"),
    "fig09": (experiments.fig09_analytical_trace, "Figure 9: AM-TCO trace"),
    "fig10": (experiments.fig10_knob_sweep, "Figure 10: knob sweep"),
    "fig11": (experiments.fig11_tail_latency, "Figure 11: Redis tail latency"),
    "fig12": (experiments.fig12_spectrum_placement, "Figure 12: spectrum placement"),
    "fig13": (experiments.fig13_spectrum, "Figure 13: six-tier spectrum"),
    "fig14": (experiments.fig14_tax, "Figure 14: TierScape tax"),
    "tab01": (experiments.tab01_option_space, "Table 1: tier option space"),
    "tab02": (experiments.tab02_workloads, "Table 2: workloads"),
    "colocation": (experiments.exp_colocation, "Co-located tenants (§9v)"),
    "ablation-filter": (experiments.ablation_filter, "Migration filter on/off"),
    "ablation-cooling": (experiments.ablation_cooling, "Hotness cooling sweep"),
    "ablation-tiers": (experiments.ablation_tier_count, "1/2/5 compressed tiers"),
    "ablation-solver": (experiments.ablation_solver, "Solver backends"),
    "ablation-prefetch": (experiments.ablation_prefetch, "Spatial prefetcher"),
    "ablation-fastmig": (
        experiments.ablation_fast_migration,
        "Same-algorithm fast migration",
    ),
    "ablation-select": (
        experiments.ablation_tier_selection,
        "Automatic tier selection",
    ),
    "ablation-telemetry": (
        experiments.ablation_telemetry,
        "PEBS vs idle-bit vs DAMON telemetry",
    ),
    "sla": (experiments.exp_sla, "SLA-aware knob auto-tuning"),
    "ablation-granularity": (
        experiments.ablation_granularity,
        "2MB regions vs 4KB LRU reclaim",
    ),
    "iaa": (experiments.exp_iaa_tier, "Hardware (IAA) compression tier"),
    "baselines": (
        experiments.exp_extended_baselines,
        "Extended baselines: TPP*, MEMTIS*",
    ),
}

_NO_WINDOWS_ARG = {"tab01", "tab02", "fig02"}


def _print_result(name: str, result) -> None:
    if isinstance(result, list):
        print(format_table(result, title=name))
        # A quick visual for the headline metric, when present.
        if result and "tco_savings_pct" in result[0]:
            from repro.bench.reporting import format_bars

            label_key = next(
                (
                    k
                    for k in ("config", "policy", "tier", "workload", "tenant")
                    if k in result[0]
                ),
                None,
            )
            if label_key:
                print(
                    format_bars(
                        result,
                        label_key,
                        "tco_savings_pct",
                        title="tco_savings_pct",
                    )
                )
        return
    # Trace dicts (fig08/fig09): print the per-window series.
    tiers = result.get("tiers", [])
    key = (
        "placement_per_window"
        if "placement_per_window" in result
        else "actual_pages_per_window"
    )
    rows = []
    for w, placement in enumerate(result[key]):
        row = {"window": w}
        row.update(dict(zip(tiers, placement)))
        row["tco_savings_pct"] = 100 * result["tco_savings_per_window"][w]
        rows.append(row)
    print(format_table(rows, title=name))


def cmd_list(_args) -> int:
    rows = [
        {"experiment": name, "description": desc}
        for name, (_, desc) in EXPERIMENTS.items()
    ]
    rows.append(
        {
            "experiment": "fleet",
            "description": (
                "Multi-node fleet simulation (subcommand: repro fleet)"
            ),
        }
    )
    rows.append(
        {
            "experiment": "serve",
            "description": (
                "Live streaming-ingestion daemon (subcommand: repro serve)"
            ),
        }
    )
    rows.append(
        {
            "experiment": "arena",
            "description": (
                "Policy arena: race every policy x workload x alpha cell "
                "(subcommand: repro arena)"
            ),
        }
    )
    print(format_table(rows, title="Available experiments"))
    from repro.policies import policy_rows

    print(format_table(policy_rows(), title="Policy backends"))
    return 0


def _run_scenario_file(path: str, args) -> int:
    """Execute one engine scenario from a .json/.toml file.

    ``--out file.jsonl`` streams events straight to disk (bounded ring in
    memory) instead of buffering the run and exporting at the end;
    ``--trace`` / ``--metrics`` enable the obs bundle and write a Chrome
    trace / Prometheus textfile after the run.
    """
    from repro.engine import ScenarioSpec, Session, export_events
    from repro.obs import (
        Observability,
        StreamSink,
        write_chrome_trace,
        write_prometheus,
    )

    try:
        spec = ScenarioSpec.load(path)
    except FileNotFoundError:
        print(f"scenario file not found: {path}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"invalid scenario {path!r}: {message}", file=sys.stderr)
        return 2
    obs = Observability(
        metrics=bool(args.metrics), tracing=bool(args.trace)
    )
    # Streaming export: spill each event as it is emitted, keep a ring.
    stream_out = bool(args.out) and str(args.out).endswith(".jsonl")
    sink = StreamSink(spill_path=args.out) if stream_out else None
    window_events = []
    burst_windows = []

    def _collect(event) -> None:
        if event.kind == "window_end":
            window_events.append({"window": event.window, **event.data})
        elif event.kind == "fault_burst":
            burst_windows.append(event.window)

    try:
        session = Session(spec, hooks=(_collect,), obs=obs, sink=sink)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"cannot build scenario {spec.label!r}: {message}", file=sys.stderr)
        return 2
    summary = session.run()
    print(format_table([summary.row()], title=spec.label))
    print(format_table(window_events, title="per-window events"))
    if burst_windows:
        print(
            "fault bursts in windows: "
            + ", ".join(str(w) for w in burst_windows)
        )
    _print_chaos_summary(session)
    _maybe_write_adaptive_trace(args, session.policy)
    if args.out:
        if stream_out:
            print(f"event stream written to {args.out}")
        else:
            path_out = export_events(session.events, args.out)
            print(f"event stream written to {path_out}")
    if args.metrics:
        print(f"metrics written to {write_prometheus(obs.registry, args.metrics)}")
    if args.trace:
        print(f"trace written to {write_chrome_trace(obs.span_dicts(), args.trace)}")
    return 0


def _write_adaptive_trace(policy, path) -> bool:
    """Dump a self-tuning policy's decision trace as JSON.

    Returns whether the policy had a trace to write (looks through a
    resilient wrapper, like the session's observe hook does).
    """
    import json

    inner = getattr(policy, "primary", policy)
    trace_fn = getattr(inner, "decision_trace", None)
    if trace_fn is None:
        return False
    controller = getattr(inner, "controller", None)
    doc = {
        "policy": getattr(inner, "name", "?"),
        "alpha": getattr(controller, "alpha", None),
        "demotion_percentile": getattr(
            controller, "demotion_percentile", None
        ),
        "steps": getattr(controller, "steps_total", 0),
        "seed": getattr(controller, "seed", None),
        "trace": trace_fn(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return True


def _maybe_write_adaptive_trace(args, policy) -> None:
    path = getattr(args, "adaptive_trace", None)
    if not path:
        return
    if _write_adaptive_trace(policy, path):
        print(f"adaptive decision trace written to {path}")
    else:
        print(
            "--adaptive-trace ignored: the policy keeps no decision trace "
            "(use policy = \"adaptive\")",
            file=sys.stderr,
        )


def _print_chaos_summary(session) -> None:
    """Print the injector's fault/recovery accounting after a chaos run."""
    injector = session.injector
    if injector is None:
        return
    rows = [
        {"kind": kind, "count": count}
        for kind, count in sorted(injector.counts.items())
    ]
    if rows:
        print(format_table(rows, title="chaos: faults and recoveries"))
    stats = session.daemon.engine.stats
    extras = []
    if stats.rollbacks:
        extras.append(f"{stats.rollbacks} wave rollback(s)")
    if stats.moves_dropped:
        extras.append(f"{stats.moves_dropped} move(s) dropped")
    if session.system.failed_stores:
        extras.append(f"{session.system.failed_stores} failed store(s) undone")
    if extras:
        print("chaos: " + ", ".join(extras))
    transitions = getattr(
        getattr(session.policy, "controller", None), "transitions", ()
    )
    if transitions:
        print(
            "degradation transitions: "
            + ", ".join(f"{a}->{b}" for a, b in transitions)
        )


def cmd_run(args) -> int:
    target = args.experiment
    if target not in EXPERIMENTS and (
        target.endswith((".json", ".toml")) or Path(target).is_file()
    ):
        return _run_scenario_file(target, args)
    if args.trace or args.metrics:
        _log.warning(
            "--trace/--metrics apply to scenario files and fleet runs; "
            "ignored for named experiment %r",
            target,
        )
    try:
        driver, _ = EXPERIMENTS[target]
    except KeyError:
        valid = ", ".join(sorted(EXPERIMENTS))
        print(
            f"unknown experiment {args.experiment!r}; valid names: {valid}\n"
            f"(or pass a scenario file: python -m repro run scenario.json; "
            f"fleet simulation is its own subcommand: python -m repro fleet)",
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.experiment not in _NO_WINDOWS_ARG:
        kwargs["windows"] = args.windows
    if args.experiment not in ("tab01", "tab02"):
        kwargs["seed"] = args.seed
    result = driver(**kwargs)
    _print_result(args.experiment, result)
    if args.out:
        from repro.bench.export import export

        rows = result if isinstance(result, list) else [result.get("summary").row()]
        path = export(rows, args.out)
        print(f"results written to {path}")
    return 0


def cmd_arena(args) -> int:
    from repro.arena import ArenaSpec, leaderboard_rows, run_arena

    try:
        kwargs = {}
        if args.policies:
            kwargs["policies"] = tuple(
                p.strip() for p in args.policies.split(",") if p.strip()
            )
        if args.workloads:
            kwargs["workloads"] = tuple(
                w.strip() for w in args.workloads.split(",") if w.strip()
            )
        if args.alphas:
            kwargs["alphas"] = tuple(
                float(a) for a in args.alphas.split(",") if a.strip()
            )
        spec = ArenaSpec(
            mix=args.mix,
            windows=args.windows,
            scale=args.scale,
            percentile=args.percentile,
            seed=args.seed,
            node_memory_gb=args.node_memory_gb,
            target_slowdown=args.target_slowdown,
            **kwargs,
        )
    except ValueError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"invalid arena configuration: {message}", file=sys.stderr)
        return 2
    cells = spec.cells()
    print(
        f"arena: {len(spec.policies)} policies x "
        f"{len(spec.workloads)} workloads -> {len(cells)} cells "
        f"({args.jobs} job(s))"
    )
    result = run_arena(spec, out_dir=args.out, jobs=args.jobs, log=print)
    rows = leaderboard_rows(result.cells)
    display = [
        {
            "rank": row["rank"],
            "cell": row["cell_id"],
            "tco_pct": round(row["tco_savings_pct"], 2),
            "saved_$_mo": round(row["saved_dollars_month"], 2),
            "slowdown_pct": round(row["slowdown_pct"], 2),
            "p99_ns": round(row["p99_latency_ns"], 1),
            "migrated": row["pages_migrated"],
            "thrash": row["thrash"],
            "solver_ms": round(row["solver_ms"], 3),
        }
        for row in rows
    ]
    print(format_table(display, title="Policy arena leaderboard"))
    counts = result.counts()
    print(
        f"cells: {counts['ok']} ok, {counts['failed']} failed, "
        f"{counts['skipped']} skipped ({result.wall_s:.1f}s)"
    )
    if args.out:
        print(f"artifacts written to {args.out}/")
    return 0 if result.all_ok else 1


def cmd_policy(args) -> int:
    from repro.engine import ScenarioSpec, Session

    try:
        spec = ScenarioSpec(
            workload=args.workload,
            policy=args.policy,
            mix=args.mix,
            windows=args.windows,
            percentile=args.percentile,
            alpha=args.alpha,
            seed=args.seed,
        )
        summary = Session(spec).run()
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"invalid policy run: {message}", file=sys.stderr)
        return 2
    print(format_table([summary.row()], title=f"{args.workload} / {args.policy}"))
    print(f"p99.9 latency : {summary.p999_latency_ns:.0f} ns")
    print(f"migration     : {summary.migration_ns / 1e6:.1f} ms (daemon)")
    print(f"solver        : {summary.solver_ns / 1e6:.1f} ms")
    return 0


def cmd_validate(args) -> int:
    from repro.bench.validate import validate

    results = validate(windows=args.windows, seed=args.seed)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.claim} [{status}] {result.description} "
              f"({result.wall_s:.1f}s)")
        for line in result.details:
            print(f"  {line}")
        all_passed &= result.passed
    print("\nartifact claims:", "ALL PASS" if all_passed else "FAILURES")
    return 0 if all_passed else 1


def cmd_fleet(args) -> int:
    from repro.fleet import (
        FleetRunner,
        FleetScheduler,
        FleetSpec,
        SolveCacheConfig,
        SolverServiceConfig,
        fleet_rollup,
        node_rows,
        rack_rows,
        slowdown_distribution,
    )
    from repro.fleet.metrics import export_fleet_events, solver_tax_rows

    try:
        policies = None
        if args.policies:
            policies = tuple(
                p.strip() for p in args.policies.split(",") if p.strip()
            )
        spec = FleetSpec(
            nodes=args.nodes,
            profile=args.profile,
            mix=args.mix,
            policy=args.policy,
            policies=policies,
            windows=args.windows,
            seed=args.seed,
            homogeneous=args.homogeneous,
        )
        service = SolverServiceConfig(
            deployment=args.solver,
            servers=args.servers,
            timeout_ms=args.timeout_ms,
        )
        scheduler = (
            FleetScheduler(budget_alpha=args.dram_budget)
            if args.dram_budget is not None
            else None
        )
        cache = (
            SolveCacheConfig(quantum=args.cache_quantum)
            if args.solve_cache
            else None
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"invalid fleet configuration: {message}", file=sys.stderr)
        return 2
    from repro.fleet.runner import ChaosOptions, ObsOptions

    chaos = None
    if args.faults:
        import json as _json

        try:
            plan = _json.loads(Path(args.faults).read_text())
            chaos = ChaosOptions(
                plan=plan,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
            )
        except FileNotFoundError:
            print(f"fault plan not found: {args.faults}", file=sys.stderr)
            return 2
        except (ValueError, TypeError) as exc:
            print(f"invalid fault plan {args.faults!r}: {exc}", file=sys.stderr)
            return 2
    try:
        runner = FleetRunner(
            spec,
            jobs=args.jobs,
            service=service,
            scheduler=scheduler,
            obs=ObsOptions(metrics=True, tracing=bool(args.trace)),
            chaos=chaos,
            cache=cache,
            rack_size=args.rack_size,
        )
    except ValueError as exc:
        print(f"invalid fleet configuration: {exc}", file=sys.stderr)
        return 2
    result = runner.run()

    print(format_table(node_rows(result), title=f"Fleet nodes ({args.nodes})"))
    rollup = fleet_rollup(result)
    print(format_table([rollup], title="Fleet rollup"))
    dist = slowdown_distribution(result)
    print(format_table([dist], title="Slowdown distribution (pct)"))
    if args.solver == "remote" or any(n.stats.requests for n in result.nodes):
        print(
            format_table(
                solver_tax_rows(result), title="Solver-service tax per node"
            )
        )
    if len(result.rack_metrics) > 1:
        print(
            format_table(
                rack_rows(result),
                title=f"Racks ({args.rack_size} nodes each)",
            )
        )
    replay = result.cache_replay
    if replay is not None:
        print(
            f"solve cache: {replay.requests} requests, {replay.hits} hits "
            f"({100.0 * replay.hit_rate:.1f} %), {replay.misses} misses, "
            f"{replay.batched} batched, {replay.evictions} evictions; "
            f"modeled solve time cut {100.0 * replay.modeled_saving:.1f} %"
        )
    print(
        f"aggregate: {rollup['tco_savings_pct']:.1f} % TCO saved "
        f"(${rollup['saved_per_month']:,.0f}/month on "
        f"{rollup['fleet_mem_gb']:,.0f} GB), "
        f"{result.jobs} job(s), {result.wall_s:.1f} s wall"
    )
    chaos_counts = result.chaos_counts
    if chaos_counts:
        rows = [
            {"kind": kind, "count": count}
            for kind, count in sorted(chaos_counts.items())
        ]
        print(format_table(rows, title="chaos: faults and recoveries"))
        if result.resumes:
            print(
                f"chaos: {result.resumes} node crash/resume cycle(s) "
                "recovered from checkpoints"
            )
    path = export_fleet_events(result, args.out)
    print(f"per-window events written to {path}")
    if args.metrics:
        from repro.obs import write_prometheus

        print(
            "fleet metrics written to "
            f"{write_prometheus(result.metrics, args.metrics)}"
        )
    if args.trace:
        from repro.obs import write_chrome_trace

        print(
            "fleet trace written to "
            f"{write_chrome_trace(result.spans, args.trace)}"
        )
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.engine import ScenarioSpec
    from repro.serve import ServeDaemon, ServeOptions, StreamSpec, WindowRule

    if not args.resume and not args.scenario:
        print("serve needs a scenario file (or --resume CHECKPOINT)",
              file=sys.stderr)
        return 2
    try:
        stream = StreamSpec.parse(args.stream)
    except ValueError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"invalid stream spec {args.stream!r}: {message}", file=sys.stderr)
        return 2
    try:
        window = WindowRule.parse(args.window)
    except ValueError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"invalid window rule {args.window!r}: {message}", file=sys.stderr)
        return 2
    host, _, port = args.http.rpartition(":")
    try:
        port_num = int(port)
    except ValueError:
        print(f"invalid --http address {args.http!r}: need HOST:PORT",
              file=sys.stderr)
        return 2

    def _on_ready(addresses: dict) -> None:
        http_addr = addresses.get("http")
        if http_addr:
            print(f"serving http on {http_addr[0]}:{http_addr[1]}", flush=True)
        stream_addr = addresses.get("stream")
        if stream_addr is not None:
            if isinstance(stream_addr, tuple):
                stream_addr = f"{stream_addr[0]}:{stream_addr[1]}"
            print(f"stream listening on {stream_addr}", flush=True)

    options = ServeOptions(
        stream=stream,
        window=window,
        rate=args.rate,
        virtual_clock=args.virtual_clock,
        max_windows=args.max_windows,
        http=not args.no_http,
        http_host=host or "127.0.0.1",
        http_port=port_num,
        checkpoint=args.checkpoint,
        metrics_out=args.metrics,
        on_ready=_on_ready,
    )
    try:
        if args.resume:
            daemon = ServeDaemon.from_checkpoint(args.resume, options)
        else:
            try:
                spec = ScenarioSpec.load(args.scenario)
            except FileNotFoundError:
                print(f"scenario file not found: {args.scenario}",
                      file=sys.stderr)
                return 2
            except (ValueError, KeyError) as exc:
                message = exc.args[0] if exc.args else exc
                print(f"invalid scenario {args.scenario!r}: {message}",
                      file=sys.stderr)
                return 2
            daemon = ServeDaemon(spec, options)
    except FileNotFoundError as exc:
        print(f"checkpoint not found: {exc.filename or args.resume}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"cannot build serving session: {message}", file=sys.stderr)
        return 2
    report = asyncio.run(daemon.run())
    print(
        f"drained ({report.reason}): {report.windows} window(s), "
        f"{daemon.events_ingested} event(s) ingested, "
        f"{report.flushed_events} flushed at drain"
    )
    summary = daemon.session.summary()
    print(format_table([summary.row()], title=daemon.session.spec.label))
    _print_chaos_summary(daemon.session)
    _maybe_write_adaptive_trace(args, daemon.session.policy)
    if daemon.rejected_events:
        print(f"rejected {daemon.rejected_events} out-of-range event(s)")
    if report.checkpoint:
        print(f"drain checkpoint written to {report.checkpoint}")
    if report.metrics_path:
        print(f"metrics written to {report.metrics_path}")
    return 0


def cmd_report(args) -> int:
    from repro.obs.report import load_rows, run_totals, window_summary

    try:
        rows = load_rows(args.path)
    except FileNotFoundError:
        print(f"event file not found: {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot parse {args.path!r}: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(f"no rows in {args.path}", file=sys.stderr)
        return 2
    print(
        format_table(
            window_summary(rows), title=f"per-window summary ({args.path})"
        )
    )
    print(format_table([run_totals(rows)], title="run totals"))
    return 0


def cmd_perfbench(args) -> int:
    from repro.bench.perfbench import report_rows, run_perfbench

    if args.out is None:
        # A smoke run's rates are not comparable with full runs: never
        # let the preset clobber the default report path unless the user
        # pointed --out somewhere explicitly.
        out = None if args.smoke else "BENCH_hotpath.json"
    else:
        out = None if args.out == "-" else args.out
    report = run_perfbench(
        out=out,
        baseline=args.baseline,
        smoke=args.smoke,
        rebaseline=args.rebaseline,
        seed=args.seed,
    )
    print(format_table(report_rows(report), title="Hot-path benchmarks"))
    speedups = [
        s for s in report["speedup_vs_reference"].values() if s is not None
    ]
    if speedups:
        e2e = report["speedup_vs_reference"].get("fig08_e2e")
        if e2e is not None:
            print(f"end-to-end fig08 windows/sec: {e2e:.2f}x vs reference")
    obs_overhead = report.get("obs_overhead")
    if obs_overhead:
        print(
            f"obs overhead on fig08: {obs_overhead['overhead_pct']:.2f}% "
            f"({obs_overhead['windows_per_s_disabled']:.1f} disabled vs "
            f"{obs_overhead['windows_per_s_enabled']:.1f} enabled windows/s; "
            f"gate < 3%)"
        )
    if out:
        print(f"report written to {out}")
    return 0


def cmd_fleetbench(args) -> int:
    from repro.bench.fleetbench import fleet_report_rows, run_fleetbench

    if args.out is None:
        out = None if args.smoke else "BENCH_fleet.json"
    else:
        out = None if args.out == "-" else args.out
    report = run_fleetbench(
        out=out,
        baseline=args.baseline,
        smoke=args.smoke,
        rebaseline=args.rebaseline,
        jobs=args.jobs,
        seed=args.seed,
    )
    print(format_table(fleet_report_rows(report), title="Fleet-scale benchmarks"))
    scale = report["current"]["fleet_scale"]
    print(
        f"solve cache: {scale['cache_speedup']:.2f}x fleet wall-clock "
        f"({scale['wall_s_cache_off']:.2f}s off vs "
        f"{scale['wall_s_cache_on']:.2f}s on, "
        f"{100.0 * scale['replay']['hit_rate']:.1f}% shared-cache hit rate)"
    )
    hyper = report["current"]["hyperscale"]
    print(
        f"hyperscale: {hyper['nodes']} nodes in {hyper['wall_s']:.1f}s "
        f"({hyper['racks']} racks, merged hit rate "
        f"{100.0 * hyper['merged_cache_hit_rate']:.1f}%)"
    )
    # The tiny fleet_scale smoke run only batches (too few windows for
    # cross-window repeats); the hyperscale smoke fleet must truly hit.
    if args.smoke and hyper["replay"]["hits"] <= 0:
        print("FAIL: the smoke preset expects shared-cache hits")
        return 1
    if out:
        print(f"report written to {out}")
    return 0


def cmd_workloads(_args) -> int:
    print(format_table(experiments.tab02_workloads(), title="Workloads (Table 2)"))
    return 0


def cmd_tiers(args) -> int:
    from repro.core.tier_select import select_tiers
    from repro.mem.media import DRAM

    picks = select_tiers(args.profile, k=args.k)
    rows = [
        {
            "tier": f"S{i + 1}",
            "algorithm": s.algorithm,
            "allocator": s.allocator,
            "backing": s.backing,
            "latency_us": s.latency_ns / 1000.0,
            "cost_vs_dram": s.page_cost / DRAM.cost_per_page,
        }
        for i, s in enumerate(picks)
    ]
    print(
        format_table(
            rows, title=f"Auto-selected tiers (profile={args.profile}, k={args.k})"
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TierScape reproduction: experiments and policy runs",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=LOG_LEVELS,
        help="driver progress verbosity (default: warning, i.e. quiet)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser(
        "run", help="run an experiment driver or a scenario file"
    )
    run.add_argument(
        "experiment",
        help="experiment name (see 'list') or a scenario .json/.toml path",
    )
    run.add_argument("--windows", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--out",
        default=None,
        help="export rows/events (.json/.csv; .jsonl streams scenario "
        "events to disk as they are emitted)",
    )
    run.add_argument(
        "--trace",
        default=None,
        help="write a chrome://tracing span trace (scenario runs)",
    )
    run.add_argument(
        "--metrics",
        default=None,
        help="write a Prometheus textfile (scenario runs)",
    )
    run.add_argument(
        "--adaptive-trace",
        default=None,
        help="write the adaptive controller's decision trace as JSON "
        "(scenario runs with policy = adaptive)",
    )
    run.set_defaults(func=cmd_run)

    arena = sub.add_parser(
        "arena",
        help="race every policy x workload x alpha cell; leaderboard + "
        "manifest + regenerable figures",
    )
    arena.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy names (default: "
        "waterfall,am-tco,tpp,jenga,obase; see 'repro list')",
    )
    arena.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names "
        "(default: masim,memcached-ycsb,pingpong)",
    )
    arena.add_argument(
        "--alphas",
        default=None,
        help="comma-separated alpha knobs for alpha-requiring policies "
        "(default: 0.3,0.7)",
    )
    arena.add_argument("--mix", default="standard")
    arena.add_argument("--windows", type=int, default=8)
    arena.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload size factor per cell (default 0.25)",
    )
    arena.add_argument("--percentile", type=float, default=25.0)
    arena.add_argument("--seed", type=int, default=0)
    arena.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = inline)"
    )
    arena.add_argument(
        "--node-memory-gb",
        type=float,
        default=256.0,
        help="modeled per-node memory for the dollar column",
    )
    arena.add_argument(
        "--target-slowdown",
        type=float,
        default=None,
        help="p99 SLA budget handed to adaptive cells (fractional "
        "slowdown vs all-DRAM; default: controller default)",
    )
    arena.add_argument(
        "--out",
        default=None,
        help="artifact directory (leaderboard.{md,csv,json}, "
        "manifest.json, figures/)",
    )
    arena.set_defaults(func=cmd_arena)

    policy = sub.add_parser("policy", help="run one (workload, policy) pair")
    policy.add_argument("workload", help="registry name, e.g. memcached-ycsb")
    policy.add_argument(
        "policy", help="registry policy name (see 'repro list')"
    )
    policy.add_argument("--mix", default="standard", help="standard|spectrum|single")
    policy.add_argument("--windows", type=int, default=10)
    policy.add_argument("--percentile", type=float, default=25.0)
    policy.add_argument("--alpha", type=float, default=None)
    policy.add_argument("--seed", type=int, default=0)
    policy.set_defaults(func=cmd_policy)

    fleet = sub.add_parser(
        "fleet", help="simulate a fleet of tiered-memory nodes in parallel"
    )
    fleet.add_argument("--nodes", type=int, default=4, help="fleet size")
    fleet.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = inline)"
    )
    fleet.add_argument(
        "--mix", default="standard", help="tier mix: standard|spectrum|single"
    )
    fleet.add_argument(
        "--profile",
        default="standard",
        help="workload profile: standard|kv|analytics|micro",
    )
    fleet.add_argument(
        "--policy", default="am-tco", help="placement policy for every node"
    )
    fleet.add_argument("--windows", type=int, default=6)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--solver",
        default="local",
        choices=("local", "remote"),
        help="solver service deployment (remote = shared, queued)",
    )
    fleet.add_argument(
        "--servers", type=int, default=1, help="shared-solver parallelism"
    )
    fleet.add_argument(
        "--timeout-ms",
        type=float,
        default=50.0,
        help="service deadline before falling back to on-box greedy",
    )
    fleet.add_argument(
        "--dram-budget",
        type=float,
        default=None,
        help="global alpha budget; allocates per-node knobs when set",
    )
    fleet.add_argument(
        "--solve-cache",
        action="store_true",
        help="memoize ILP solves on quantized problem signatures",
    )
    fleet.add_argument(
        "--cache-quantum",
        type=float,
        default=0.25,
        help="signature quantization step (0 = exact-value signatures)",
    )
    fleet.add_argument(
        "--rack-size",
        type=int,
        default=32,
        help="nodes per rack in the hierarchical metrics rollup",
    )
    fleet.add_argument(
        "--policies",
        default=None,
        help="comma-separated per-node policy cycle (overrides --policy)",
    )
    fleet.add_argument(
        "--homogeneous",
        action="store_true",
        help="give every node the same seed (a fleet of identical replicas)",
    )
    fleet.add_argument(
        "--out",
        default="fleet_events.jsonl",
        help="per-window event export path (.jsonl/.json/.csv)",
    )
    fleet.add_argument(
        "--trace",
        default=None,
        help="write a chrome://tracing trace (one lane per node)",
    )
    fleet.add_argument(
        "--metrics",
        default=None,
        help="write the merged fleet metrics as a Prometheus textfile",
    )
    fleet.add_argument(
        "--faults",
        default=None,
        help="fault-plan JSON file: inject chaos on every node",
    )
    fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=2,
        help="windows between node checkpoints on crash-prone chaos runs",
    )
    fleet.add_argument(
        "--checkpoint-dir",
        default=None,
        help="also persist each node's latest checkpoint in this directory",
    )
    fleet.set_defaults(func=cmd_fleet)

    serve = sub.add_parser(
        "serve", help="serve a scenario live from a streaming event source"
    )
    serve.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario .json/.toml file (omit with --resume)",
    )
    serve.add_argument(
        "--stream",
        default="generator",
        help="event source: generator | replay:PATH | tcp:HOST:PORT | "
        "unix:PATH",
    )
    serve.add_argument(
        "--window",
        default="source",
        help="window-closing rule: source | events:N | seconds:S",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="replay pacing in events/second (replay streams; default "
        "unpaced)",
    )
    serve.add_argument(
        "--virtual-clock",
        action="store_true",
        help="deterministic virtual time: paced sleeps return instantly",
    )
    serve.add_argument(
        "--max-windows",
        type=int,
        default=None,
        help="drain after this many windows (default: until the source "
        "ends or SIGTERM)",
    )
    serve.add_argument(
        "--http",
        default="127.0.0.1:0",
        help="bind /metrics + /healthz + /status here (port 0 = ephemeral; "
        "the bound port is printed on startup)",
    )
    serve.add_argument(
        "--no-http", action="store_true", help="disable the HTTP endpoint"
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        help="write the drain checkpoint here on shutdown",
    )
    serve.add_argument(
        "--resume",
        default=None,
        help="resume from a drain checkpoint instead of a fresh scenario",
    )
    serve.add_argument(
        "--metrics",
        default=None,
        help="write a Prometheus textfile at drain",
    )
    serve.add_argument(
        "--adaptive-trace",
        default=None,
        help="write the adaptive controller's decision trace as JSON "
        "at drain",
    )
    serve.set_defaults(func=cmd_serve)

    report = sub.add_parser(
        "report", help="summarize an exported event stream (.jsonl/.json)"
    )
    report.add_argument("path", help="event export from run --out / fleet --out")
    report.set_defaults(func=cmd_report)

    perfbench = sub.add_parser(
        "perfbench", help="run the hot-path performance benchmarks"
    )
    perfbench.add_argument(
        "--out",
        default=None,
        help="report path (default BENCH_hotpath.json, or unwritten with "
        "--smoke); '-' skips writing",
    )
    perfbench.add_argument(
        "--baseline",
        default=None,
        help="baseline report to compare against (default: --out if present)",
    )
    perfbench.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke preset: tiny sizes, asserts the benches finish",
    )
    perfbench.add_argument(
        "--rebaseline",
        action="store_true",
        help="store this run as the new reference",
    )
    perfbench.add_argument("--seed", type=int, default=0)
    perfbench.set_defaults(func=cmd_perfbench)

    fleetbench = sub.add_parser(
        "fleetbench", help="run the fleet-scale solve-cache benchmarks"
    )
    fleetbench.add_argument(
        "--out",
        default=None,
        help="report path (default BENCH_fleet.json, or unwritten with "
        "--smoke); '-' skips writing",
    )
    fleetbench.add_argument(
        "--baseline",
        default=None,
        help="baseline report to compare against (default: --out if present)",
    )
    fleetbench.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke preset: small fleets, asserts the cache hits",
    )
    fleetbench.add_argument(
        "--rebaseline",
        action="store_true",
        help="store this run as the new reference",
    )
    fleetbench.add_argument(
        "--jobs", type=int, default=4, help="worker processes for hyperscale"
    )
    fleetbench.add_argument("--seed", type=int, default=7)
    fleetbench.set_defaults(func=cmd_fleetbench)

    sub.add_parser("workloads", help="print the workload registry").set_defaults(
        func=cmd_workloads
    )

    validate = sub.add_parser(
        "validate", help="check the paper's artifact claims (C1, C2)"
    )
    validate.add_argument("--windows", type=int, default=8)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=cmd_validate)

    tiers = sub.add_parser("tiers", help="auto-select a compressed-tier set")
    tiers.add_argument("--profile", default="mixed")
    tiers.add_argument("--k", type=int, default=5)
    tiers.set_defaults(func=cmd_tiers)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
