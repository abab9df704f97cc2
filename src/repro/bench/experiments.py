"""One driver per paper table/figure (see DESIGN.md's experiment index).

Every simulator-driven experiment is a
:class:`~repro.engine.spec.ScenarioSpec` (or a small list of specs) run
through :class:`~repro.engine.session.Session`, plus a short
post-processing step that shapes rows the way the figure needs them.
Drivers return structured results (lists of dict rows or per-window
series) and are deterministic for a given seed.  The ``benchmarks/``
suite wraps these in pytest-benchmark targets and prints the
paper-shaped output; ``EXPERIMENTS.md`` records paper-vs-measured.

Two drivers do not spin the window loop at all and therefore bypass the
engine: ``fig02_characterization`` measures codecs directly (it lives in
:mod:`repro.bench.characterization` and is re-exported here), and the
table drivers just print registries.

Defaults are sized to finish in seconds per driver; every driver takes
scale parameters for larger runs.
"""

from __future__ import annotations

import numpy as np

from repro.bench import configs
from repro.bench.characterization import fig02_characterization  # noqa: F401
from repro.core.metrics import RunSummary
from repro.engine import NullModel, ScenarioSpec, Session, make_policy
from repro.workloads.registry import workload_table

#: The six policies of the standard-mix comparison (Figure 7 legend).
STANDARD_POLICIES = ("hemem", "gswap", "tmo", "waterfall", "am-tco", "am-perf")

#: Workloads in the Figure 7 / Figure 13 sweeps (registry names).
EVAL_WORKLOADS = (
    "memcached-ycsb",
    "memcached-memtier",
    "redis-ycsb",
    "bfs",
    "pagerank",
    "xsbench",
    "graphsage",
)

#: Aggressiveness settings (§8.3): percentile for threshold policies,
#: alpha for the analytical model.
AGGRESSIVENESS = {
    "C": {"percentile": 25.0, "alpha": 0.9},
    "M": {"percentile": 50.0, "alpha": 0.5},
    "A": {"percentile": 75.0, "alpha": 0.1},
}


def _run(spec: ScenarioSpec, **overrides) -> tuple[RunSummary, Session]:
    """Run one scenario; returns ``(summary, session)``."""
    session = Session(spec, **overrides)
    return session.run(), session


def _pct_row(summary: RunSummary, **extra) -> dict:
    """The slowdown/TCO row most figures share."""
    return {
        **extra,
        "slowdown_pct": 100 * summary.slowdown,
        "tco_savings_pct": 100 * summary.tco_savings,
    }


def fig01_motivation(
    fractions=(20, 50, 80), windows: int = 10, seed: int = 0
) -> list[dict]:
    """TCO savings vs slowdown when placing 20/50/80 % of Memcached data
    into a single compressed tier (paper Figure 1)."""
    rows = []
    for fraction in fractions:
        summary, _ = _run(ScenarioSpec(
            policy="gswap", mix="single", windows=windows,
            percentile=float(fraction), seed=seed,
        ))
        rows.append({
            "placed_pct": fraction,
            "tco_savings_pct": 100 * summary.tco_savings,
            "slowdown_pct": 100 * summary.slowdown,
        })
    return rows


def fig07_standard_mix(
    workloads=EVAL_WORKLOADS,
    policies=STANDARD_POLICIES,
    windows: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Performance slowdown and TCO savings per workload and policy with
    the DRAM+NVMM+CT-1+CT-2 mix (paper Figure 7)."""
    rows = []
    for workload in workloads:
        for policy in policies:
            summary, _ = _run(ScenarioSpec(
                workload=workload, policy=policy, windows=windows, seed=seed))
            summary.workload = workload  # registry name, not instance name
            rows.append(summary.row())
    return rows


def fig08_waterfall_trace(windows: int = 15, seed: int = 0) -> dict:
    """Waterfall placement recommendations per window plus the TCO trend
    (paper Figure 8)."""
    summary, session = _run(ScenarioSpec(
        policy="waterfall", windows=windows, seed=seed,
    ))
    return {
        "tiers": [t.name for t in session.system.tiers],
        "placement_per_window": [r.placement.tolist() for r in session.records],
        "tco_savings_per_window": [r.tco_savings for r in session.records],
        "summary": summary,
    }


def fig09_analytical_trace(
    windows: int = 15, alpha: float = 0.25, seed: int = 0
) -> dict:
    """AM-TCO recommendations vs actual placement, compressed-tier faults
    and the TCO trend for Memcached/YCSB (paper Figure 9).

    Uses a TCO-leaning knob (tighter than the AM-TCO default) so the
    recommendation keeps only a small DRAM share, matching the paper's
    "less than 5 % of data in DRAM" trace.
    """
    summary, session = _run(ScenarioSpec(
        policy="am", alpha=alpha, windows=windows, seed=seed,
    ))
    space = session.system.space
    pages_per_region = space.num_pages // space.num_regions
    records = session.records
    cumulative_faults = np.cumsum([r.faults.tolist() for r in records], axis=0)
    return {
        "tiers": [t.name for t in session.system.tiers],
        "recommended_regions_per_window": [
            r.recommended.tolist() for r in records
        ],
        "recommended_pages_per_window": [
            (r.recommended * pages_per_region).tolist() for r in records
        ],
        "actual_pages_per_window": [r.placement.tolist() for r in records],
        "cumulative_faults": cumulative_faults.tolist(),
        "tco_savings_per_window": [r.tco_savings for r in records],
        "summary": summary,
    }


def fig10_knob_sweep(
    alphas=(0.1, 0.3, 0.5, 0.7, 0.9),
    thresholds=(25.0, 75.0),
    windows: int = 10,
    seed: int = 0,
) -> list[dict]:
    """AM at five knob values vs baselines at two hotness thresholds, for
    Memcached/YCSB (paper Figure 10)."""
    rows = []
    for alpha in alphas:
        summary, _ = _run(ScenarioSpec(
            policy="am", alpha=alpha, windows=windows, seed=seed,
        ))
        rows.append({"config": f"AM(a={alpha:g})", **summary.row()})
    for policy in ("hemem", "gswap", "tmo", "waterfall"):
        for pct in thresholds:
            summary, _ = _run(ScenarioSpec(
                policy=policy, percentile=pct, windows=windows, seed=seed,
            ))
            rows.append({"config": f"{summary.policy}@{pct:g}", **summary.row()})
    return rows


def fig11_tail_latency(
    policies=STANDARD_POLICIES,
    windows: int = 10,
    percentile: float = 75.0,
    seed: int = 0,
) -> list[dict]:
    """Average / p95 / p99.9 Redis access latency, normalized to DRAM
    (paper Figure 11).

    Runs the threshold policies at the aggressive (75th percentile)
    setting: tail latency only differentiates once the baselines place
    enough data in their single slow tier to fault on it, which is the
    SLA-pressure regime the paper's figure captures.
    """
    from repro.mem.media import DRAM

    rows = []
    for policy in policies:
        summary, _ = _run(ScenarioSpec(
            workload="redis-ycsb", policy=policy, windows=windows,
            percentile=percentile, seed=seed,
        ))
        rows.append({
            "policy": summary.policy,
            "avg_norm": summary.avg_latency_ns / DRAM.read_ns,
            "p95_norm": summary.p95_latency_ns / DRAM.read_ns,
            "p999_norm": summary.p999_latency_ns / DRAM.read_ns,
        })
    return rows


def fig12_spectrum_placement(windows: int = 12, seed: int = 0) -> list[dict]:
    """Final placement distribution for Waterfall and AM at the three
    aggressiveness levels, 6-tier spectrum mix (paper Figure 12)."""
    rows = []
    for model_kind in ("waterfall", "am"):
        for level, params in AGGRESSIVENESS.items():
            summary, session = _run(ScenarioSpec(
                policy=model_kind, mix="spectrum", windows=windows,
                percentile=params["percentile"], alpha=params["alpha"],
                seed=seed,
            ))
            last = session.records[-1]
            short = "WF" if model_kind == "waterfall" else "AM"
            row = {"config": f"{short}-{level}"}
            for name, pages in zip(
                [t.name for t in session.system.tiers], last.placement
            ):
                row[name] = int(pages)
            row["tco_savings_pct"] = 100 * summary.final_tco_savings
            rows.append(row)
    return rows


def fig13_spectrum(
    workloads=EVAL_WORKLOADS, windows: int = 10, seed: int = 0
) -> list[dict]:
    """Slowdown and TCO savings with six tiers: GSwap* vs Waterfall vs AM
    at three aggressiveness levels (paper Figure 13)."""
    rows = []
    for workload in workloads:
        for policy, short in (("gswap", "GS"), ("waterfall", "WF"), ("am", "AM")):
            for level, params in AGGRESSIVENESS.items():
                summary, _ = _run(ScenarioSpec(
                    workload=workload, policy=policy, mix="spectrum",
                    windows=windows, percentile=params["percentile"],
                    alpha=params["alpha"], seed=seed,
                ))
                rows.append(_pct_row(
                    summary, workload=workload, config=f"{short}-{level}",
                ))
    return rows


def fig14_tax(windows: int = 10, seed: int = 0) -> list[dict]:
    """Daemon overhead (profiling + modeling + migration) for AM-TCO and
    AM-perf with local vs remote solver (paper Figure 14)."""
    rows = []
    configurations = [("baseline", None, False), ("only-profiling", None, False)]
    for preset in ("am-tco", "am-perf"):
        for remote in (False, True):
            configurations.append((preset, preset, remote))

    base = ScenarioSpec(workload="memcached-memtier", windows=windows, seed=seed)
    for label, preset, remote in configurations:
        if label == "baseline":
            # Effectively no profiling.
            summary, _ = _run(
                base.with_(sampling_rate=10**9), policy=NullModel()
            )
            tax_ns = 0.0
        elif label == "only-profiling":
            summary, _ = _run(base, policy=NullModel())
            tax_ns = summary.profiling_ns
        else:
            policy = make_policy(preset)
            policy.remote = remote
            summary, _ = _run(base, policy=policy)
            tax_ns = summary.profiling_ns + summary.migration_ns
            if not remote:
                tax_ns += summary.solver_ns
            label = f"{policy.name}-{'Remote' if remote else 'Local'}"
        app_ns = max(1.0, summary.extras.get("app_ns", 1.0))
        rows.append({
            "config": label,
            "tax_pct_of_app": 100 * tax_ns / app_ns,
            "profiling_ms": summary.profiling_ns / 1e6,
            "solver_ms": summary.solver_ns / 1e6,
            "migration_ms": summary.migration_ns / 1e6,
            "slowdown_pct": 100 * summary.slowdown,
        })
    return rows


def tab01_option_space() -> list[dict]:
    """Table 1: the 63-tier option space."""
    return [
        {"algorithm": algo, "allocator": alloc, "backing": med}
        for algo, alloc, med in configs.enumerate_tiers()
    ]


def tab02_workloads() -> list[dict]:
    """Table 2: workload descriptions and (paper vs simulated) RSS."""
    return workload_table()


def ablation_filter(windows: int = 10, seed: int = 0) -> list[dict]:
    """Migration filter on vs off (pressure avoidance ablation)."""
    from repro.core.placement.filter import MigrationFilter

    rows = []
    spec = ScenarioSpec(sampling_rate=1000, windows=windows, seed=seed)
    for label, mf in (
        ("filter-on", MigrationFilter()),
        ("filter-off", MigrationFilter(pressure_threshold=None, enforce_capacity=False)),
    ):
        summary, _ = _run(spec, migration_filter=mf)
        rows.append(_pct_row(
            summary, config=label,
            faults=summary.total_faults,
            migration_ms=summary.migration_ns / 1e6,
        ))
    return rows


def ablation_cooling(
    coolings=(0.0, 0.25, 0.5, 0.75, 1.0), windows: int = 10, seed: int = 0
) -> list[dict]:
    """Hotness EWMA cooling-factor sweep."""
    rows = []
    for cooling in coolings:
        spec = ScenarioSpec(sampling_rate=1000, cooling=cooling, windows=windows, seed=seed)
        summary, _ = _run(spec)
        rows.append(_pct_row(summary, cooling=cooling, faults=summary.total_faults))
    return rows


def ablation_tier_count(windows: int = 10, seed: int = 0) -> list[dict]:
    """1 vs 2 vs 5 compressed tiers at matched aggressiveness (the paper's
    §8.3.2 'why multiple compressed tiers?' argument)."""
    rows = []
    for mix, label in (("single", "1-CT"), ("standard", "2-CT"), ("spectrum", "5-CT")):
        policy = "gswap" if mix == "single" else "am"
        summary, _ = _run(ScenarioSpec(
            policy=policy, mix=mix,
            alpha=0.1 if policy == "am" else None,
            percentile=75.0, windows=windows, seed=seed,
        ))
        rows.append(_pct_row(summary, config=label))
    return rows


def ablation_prefetch(windows: int = 10, seed: int = 0) -> list[dict]:
    """Spatial prefetcher on/off for a fault-heavy configuration (the
    paper's §3.2 future-work extension)."""
    rows = []
    for label, degree in (("no-prefetch", None), ("prefetch-4", 4), ("prefetch-8", 8)):
        summary, session = _run(ScenarioSpec(
            policy="tmo", percentile=75.0, prefetch_degree=degree,
            windows=windows, seed=seed,
        ))
        stats = session.daemon.prefetcher.stats if session.daemon.prefetcher else None
        rows.append(_pct_row(
            summary, config=label,
            faults=summary.total_faults,
            prefetches=stats.issued if stats else 0,
            accuracy_pct=100 * stats.accuracy if stats else 0.0,
        ))
    return rows


def ablation_fast_migration(windows: int = 10, seed: int = 0) -> list[dict]:
    """§7.1's same-algorithm migration optimization on/off, measured on
    the spectrum mix where Waterfall migrates between lz4 tiers."""
    rows = []
    spec = ScenarioSpec(
        policy="waterfall", mix="spectrum", percentile=50.0,
        windows=windows, seed=seed,
    )
    for label, fast in (("naive-path", False), ("fast-same-algo", True)):
        summary = Session(spec.with_(fast_same_algo_migration=fast)).run()
        rows.append(_pct_row(
            summary, config=label, migration_ms=summary.migration_ns / 1e6,
        ))
    return rows


def ablation_tier_selection(windows: int = 10, seed: int = 0) -> list[dict]:
    """Hand-picked spectrum (C1/C2/C4/C7/C12) vs automatically selected
    tier set (the paper's §9 'selecting the optimal set' direction)."""
    from repro.core.tier_select import build_selected_tiers, select_tiers
    from repro.mem.address_space import AddressSpace
    from repro.mem.media import DRAM
    from repro.mem.system import TieredMemorySystem
    from repro.mem.tier import ByteAddressableTier
    from repro.workloads.registry import make_workload

    rows = []
    spec = ScenarioSpec(
        policy="am", alpha=0.5, mix="spectrum", windows=windows, seed=seed,
    )
    for label in ("hand-picked", "auto-selected"):
        if label == "hand-picked":
            session = Session(spec)
        else:
            workload = make_workload("memcached-ycsb", seed=seed)
            space = AddressSpace(workload.num_pages, "mixed", seed=seed)
            n = space.num_pages
            tiers = [ByteAddressableTier("DRAM", DRAM, capacity_pages=n)]
            tiers += build_selected_tiers(
                select_tiers("mixed", k=5, seed=seed), capacity_pages=n
            )
            system = TieredMemorySystem(tiers, space)
            session = Session(spec, workload=workload, system=system)
        summary = session.run()
        rows.append(_pct_row(
            summary, config=label,
            tiers=",".join(t.name for t in session.system.tiers[1:]),
        ))
    return rows


def exp_sla(
    targets=(0.02, 0.05, 0.15), windows: int = 15, seed: int = 0
) -> list[dict]:
    """SLA-aware knob auto-tuning: harvested TCO per slowdown budget."""
    from repro.adaptive import MIMD_CONFIG
    from repro.engine.build import build_system
    from repro.workloads.registry import make_workload

    rows = []
    for target in targets:
        workload = make_workload("memcached-ycsb", seed=seed)
        system = build_system(workload, mix="standard", seed=seed)
        session = Session(
            ScenarioSpec(
                policy="adaptive",
                adaptive=MIMD_CONFIG.with_(target_slowdown=target).to_dict(),
                windows=windows,
                seed=seed + 1,
                daemon_seed=seed + 1,
            ),
            workload=workload,
            system=system,
        )
        summary = session.run()
        controller = session.policy.controller
        rows.append({
            "sla_slowdown_pct": 100 * target,
            "achieved_slowdown_pct": 100 * summary.slowdown,
            "tco_savings_pct": 100 * summary.tco_savings,
            "final_alpha": controller.history[-1][0],
            "violations": controller.violations,
        })
    return rows


def exp_extended_baselines(windows: int = 10, seed: int = 0) -> list[dict]:
    """Related-work baselines beyond the paper's three: TPP* (watermark +
    hysteresis) and MEMTIS* (histogram-sized hot set) vs HeMem* and the
    analytical model, on Memcached/YCSB."""
    rows = []
    for policy in ("hemem", "tpp", "memtis", "am-tco"):
        summary, _ = _run(ScenarioSpec(policy=policy, percentile=50.0, windows=windows, seed=seed))
        rows.append(_pct_row(
            summary, policy=summary.policy,
            pages_migrated=summary.extras.get("pages_migrated", 0),
        ))
    return rows


def ablation_granularity(windows: int = 10, seed: int = 0) -> list[dict]:
    """2 MB region management (TS-Daemon, §7.2) vs the kernel's page
    granular LRU reclaim, on identical workloads: the region design pays
    far fewer management operations for comparable savings."""
    from repro.core.placement.lru import run_lru
    from repro.engine.build import build_system
    from repro.workloads.registry import make_workload

    rows = []

    summary, session = _run(ScenarioSpec(
        policy="tmo", percentile=50.0, windows=windows, seed=seed,
    ))
    rows.append(_pct_row(
        summary, granularity="2MB-regions",
        migration_ops=session.daemon.engine.stats.regions_moved,
        pages_moved=session.daemon.engine.stats.pages_moved,
        faults=summary.total_faults,
    ))

    workload = make_workload("memcached-ycsb", seed=seed)
    system = build_system(workload, mix="standard", seed=seed)
    lru_summary, stats = run_lru(
        system, workload, windows, slow_tier="CT-2", age_windows=2
    )
    rows.append({
        "granularity": "4KB-LRU",
        "slowdown_pct": 100 * lru_summary["slowdown"],
        "tco_savings_pct": 100 * lru_summary["tco_savings"],
        "migration_ops": lru_summary["migration_ops"],
        "pages_moved": stats.pages_reclaimed,
        "faults": lru_summary["faults"],
    })
    return rows


def exp_iaa_tier(windows: int = 10, seed: int = 0) -> list[dict]:
    """A hardware-compression (Intel IAA) tier vs the software spectrum:
    deflate-class density at lz4-class latency collapses the trade-off
    the software tiers span (the artifact kernel's IAA toggle)."""
    from repro.bench.configs import make_compressed_tier
    from repro.mem.address_space import AddressSpace
    from repro.mem.media import DRAM, NVMM
    from repro.mem.system import TieredMemorySystem
    from repro.mem.tier import ByteAddressableTier
    from repro.workloads.registry import make_workload

    rows = []
    spec = ScenarioSpec(policy="am", alpha=0.4, windows=windows, seed=seed)
    for label, algo in (("sw-zstd", "zstd"), ("hw-iaa-deflate", "iaa-deflate")):
        workload = make_workload("memcached-ycsb", seed=seed)
        space = AddressSpace(workload.num_pages, "mixed", seed=seed)
        n = space.num_pages
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
            make_compressed_tier("CT", algo, "zsmalloc", NVMM, capacity_pages=n),
        ]
        system = TieredMemorySystem(tiers, space)
        summary = Session(spec, workload=workload, system=system).run()
        rows.append(_pct_row(
            summary, tier=label, faults=summary.total_faults,
        ))
    return rows


def ablation_telemetry(windows: int = 10, seed: int = 0) -> list[dict]:
    """Telemetry backend comparison: PEBS sampling vs ACCESSED-bit
    scanning vs DAMON-style probing, driving the same AM policy."""
    rows = []
    for kind in ("pebs", "idlebit", "damon"):
        summary, _ = _run(ScenarioSpec(telemetry=kind, windows=windows, seed=seed))
        rows.append(_pct_row(
            summary, telemetry=kind, faults=summary.total_faults,
            profiling_ms=summary.profiling_ns / 1e6,
        ))
    return rows


def exp_colocation(windows: int = 10, seed: int = 0) -> list[dict]:
    """Co-located tenants with diverse compressibility (paper §3.4 and
    §9 direction v): a Memcached tenant (mixed data) shares the spectrum
    mix with a PageRank tenant (highly compressible graph data); the
    harness reports per-tenant placement and TCO."""
    from repro.bench.configs import spectrum_mix
    from repro.mem.address_space import AddressSpace
    from repro.mem.system import TieredMemorySystem
    from repro.workloads.colocate import (
        CompositeWorkload,
        composite_compressibility,
        tenant_placement_rows,
    )
    from repro.workloads.registry import make_workload

    tenants = [
        make_workload("memcached-ycsb", seed=seed, num_pages=8192),
        make_workload("pagerank", seed=seed),
    ]
    profiles = ["mixed", "nci"]
    workload = CompositeWorkload(tenants, seed=seed)
    space = AddressSpace(
        workload.num_pages,
        seed=seed,
        compressibility=composite_compressibility(tenants, profiles, seed),
    )
    system = TieredMemorySystem(spectrum_mix(space), space)
    summary = Session(
        ScenarioSpec(
            policy="am", alpha=0.5, mix="spectrum", windows=windows, seed=seed,
        ),
        workload=workload,
        system=system,
    ).run()

    rows = tenant_placement_rows(system, workload, profiles)
    rows.append({
        "tenant": "TOTAL",
        "profile": "-",
        **{t.name: int(c) for t, c in zip(system.tiers, system.placement_counts())},
        "tco_savings_pct": 100 * summary.tco_savings,
    })
    return rows


def ablation_solver(windows: int = 6, seed: int = 0) -> list[dict]:
    """Solver backend comparison on identical runs."""
    rows = []
    for backend in ("greedy", "scipy", "frontier"):
        summary, _ = _run(ScenarioSpec(solver_backend=backend, windows=windows, seed=seed))
        rows.append(_pct_row(summary, backend=backend, solver_ms=summary.solver_ns / 1e6))
    return rows
