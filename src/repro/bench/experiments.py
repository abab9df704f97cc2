"""One driver per paper table/figure (see DESIGN.md's experiment index).

Every simulator-driven experiment is a grid: a list of
:class:`~repro.engine.grid.GridCell` (a
:class:`~repro.engine.spec.ScenarioSpec`, any prebuilt
:class:`~repro.engine.session.Session` overrides and the labels of its
row) plus a module-level reducer that turns one finished session into
the row the figure needs.  :func:`~repro.engine.grid.grid_rows` runs the
cells and raises a failed cell's own exception.  Drivers return
structured results (lists of dict rows or per-window series) and are
deterministic for a given seed.  The ``benchmarks/`` suite wraps these
in pytest-benchmark targets and prints the paper-shaped output;
``EXPERIMENTS.md`` records paper-vs-measured.

Three drivers are not pure grids: ``fig02_characterization`` measures
codecs directly (it lives in :mod:`repro.bench.characterization` and is
re-exported here), the table drivers just print registries, and
``ablation_granularity`` adds one page-granular LRU run
(:func:`~repro.core.placement.lru.run_lru`) beside its grid cell.

Defaults are sized to finish in seconds per driver; every driver takes
scale parameters for larger runs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench import configs
from repro.bench.characterization import fig02_characterization  # noqa: F401
from repro.engine import NullModel, ScenarioSpec, make_policy
from repro.engine.grid import GridCell, grid_rows
from repro.mem.media import DRAM
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


#: Extra row columns, each read off a finished ``(summary, session)``.
_COLUMNS = {
    "policy": lambda s, session: s.policy,
    "faults": lambda s, session: s.total_faults,
    "migration_ms": lambda s, session: s.migration_ns / 1e6,
    "profiling_ms": lambda s, session: s.profiling_ns / 1e6,
    "solver_ms": lambda s, session: s.solver_ns / 1e6,
    "pages_migrated": lambda s, session: s.extras.get("pages_migrated", 0),
    "tiers": lambda s, session: ",".join(t.name for t in session.system.tiers[1:]),
    "migration_ops": lambda s, session: session.daemon.engine.stats.regions_moved,
    "pages_moved": lambda s, session: session.daemon.engine.stats.pages_moved,
    "prefetches": lambda s, session: _prefetch(session, "issued", 0),
    "accuracy_pct": lambda s, session: 100 * _prefetch(session, "accuracy", 0.0),
}


def _prefetch(session, stat: str, default):
    prefetcher = session.daemon.prefetcher
    return getattr(prefetcher.stats, stat) if prefetcher else default


def _pct_row(summary, session, cell, columns=()) -> dict:
    """The slowdown/TCO row most figures share: the cell's labels, the
    named :data:`_COLUMNS`, then the two percentages."""
    return {
        **cell.labels,
        **{name: _COLUMNS[name](summary, session) for name in columns},
        "slowdown_pct": 100 * summary.slowdown,
        "tco_savings_pct": 100 * summary.tco_savings,
    }


def _labelled(labels: dict, spec: ScenarioSpec, **overrides) -> GridCell:
    """A cell identified by its labels (the id joins their values)."""
    cell_id = "/".join(str(value) for value in labels.values())
    return GridCell(cell_id, spec, overrides, labels)


def _summary_row(summary, session, cell) -> dict:
    """``RunSummary.row()`` under the registry workload name."""
    summary.workload = cell.spec.workload
    return summary.row()


def _knob_row(summary, session, cell) -> dict:
    """Fig. 10: AM rows by knob value, baselines by name@threshold."""
    spec = cell.spec
    if spec.policy == "am":
        config = f"AM(a={spec.alpha:g})"
    else:
        config = f"{summary.policy}@{spec.percentile:g}"
    return {"config": config, **summary.row()}


def _latency_row(summary, session, cell) -> dict:
    """Fig. 11: mean and tail access latency normalized to DRAM."""
    return {
        "policy": summary.policy,
        "avg_norm": summary.avg_latency_ns / DRAM.read_ns,
        "p95_norm": summary.p95_latency_ns / DRAM.read_ns,
        "p999_norm": summary.p999_latency_ns / DRAM.read_ns,
    }


def _final_placement_row(summary, session, cell) -> dict:
    """Fig. 12: pages per tier after the last window."""
    row = dict(cell.labels)
    tiers = [t.name for t in session.system.tiers]
    for name, pages in zip(tiers, session.records[-1].placement):
        row[name] = int(pages)
    row["tco_savings_pct"] = 100 * summary.final_tco_savings
    return row


def _waterfall_trace(summary, session, cell) -> dict:
    """Fig. 8: per-window placement and TCO savings."""
    return {
        "tiers": [t.name for t in session.system.tiers],
        "placement_per_window": [r.placement.tolist() for r in session.records],
        "tco_savings_per_window": [r.tco_savings for r in session.records],
        "summary": summary,
    }


def _analytical_trace(summary, session, cell) -> dict:
    """Fig. 9: recommendation vs actual placement, faults, TCO trend."""
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


def _tax_row(summary, session, cell) -> dict:
    """Fig. 14: daemon tax as a share of application time."""
    if cell.cell_id == "baseline":
        tax_ns = 0.0
    elif cell.cell_id == "only-profiling":
        tax_ns = summary.profiling_ns
    else:
        tax_ns = summary.profiling_ns + summary.migration_ns
        if not session.policy.remote:
            tax_ns += summary.solver_ns
    app_ns = max(1.0, summary.extras.get("app_ns", 1.0))
    return {
        "config": cell.cell_id,
        "tax_pct_of_app": 100 * tax_ns / app_ns,
        "profiling_ms": summary.profiling_ns / 1e6,
        "solver_ms": summary.solver_ns / 1e6,
        "migration_ms": summary.migration_ns / 1e6,
        "slowdown_pct": 100 * summary.slowdown,
    }


def _sla_row(summary, session, cell) -> dict:
    """SLA tuning: what the controller harvested under its budget."""
    controller = session.policy.controller
    return {
        **cell.labels,
        "achieved_slowdown_pct": 100 * summary.slowdown,
        "tco_savings_pct": 100 * summary.tco_savings,
        "final_alpha": controller.history[-1][0],
        "violations": controller.violations,
    }


def _tenant_rows(summary, session, cell, profiles=()) -> list[dict]:
    """Co-location: one placement row per tenant plus the total."""
    from repro.workloads.colocate import tenant_placement_rows

    system = session.system
    rows = tenant_placement_rows(system, session.workload, list(profiles))
    rows.append({
        "tenant": "TOTAL",
        "profile": "-",
        **{t.name: int(c) for t, c in zip(system.tiers, system.placement_counts())},
        "tco_savings_pct": 100 * summary.tco_savings,
    })
    return rows


def _aggressiveness_cells(models, labels: dict, **fields) -> list[GridCell]:
    """One spectrum-mix cell per (policy, C/M/A level) (§8.3)."""
    return [
        _labelled({**labels, "config": f"{short}-{level}"}, ScenarioSpec(
            policy=policy, mix="spectrum", **params, **fields))
        for policy, short in models
        for level, params in AGGRESSIVENESS.items()
    ]


def fig01_motivation(
    fractions=(20, 50, 80), windows: int = 10, seed: int = 0
) -> list[dict]:
    """TCO savings vs slowdown when placing 20/50/80 % of Memcached data
    into a single compressed tier (paper Figure 1)."""
    return grid_rows([
        _labelled({"placed_pct": fraction}, ScenarioSpec(
            policy="gswap", mix="single", percentile=float(fraction),
            windows=windows, seed=seed,
        ))
        for fraction in fractions
    ], _pct_row)


def fig07_standard_mix(
    workloads=EVAL_WORKLOADS,
    policies=STANDARD_POLICIES,
    windows: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Performance slowdown and TCO savings per workload and policy with
    the DRAM+NVMM+CT-1+CT-2 mix (paper Figure 7)."""
    return grid_rows([
        GridCell(f"{policy}/{workload}", ScenarioSpec(
            workload=workload, policy=policy, windows=windows, seed=seed))
        for workload in workloads
        for policy in policies
    ], _summary_row)


def fig08_waterfall_trace(windows: int = 15, seed: int = 0) -> dict:
    """Waterfall placement recommendations per window plus the TCO trend
    (paper Figure 8)."""
    spec = ScenarioSpec(policy="waterfall", windows=windows, seed=seed)
    return grid_rows([GridCell("waterfall", spec)], _waterfall_trace)[0]


def fig09_analytical_trace(
    windows: int = 15, alpha: float = 0.25, seed: int = 0
) -> dict:
    """AM-TCO recommendations vs actual placement, compressed-tier faults
    and the TCO trend for Memcached/YCSB (paper Figure 9).

    Uses a TCO-leaning knob (tighter than the AM-TCO default) so the
    recommendation keeps only a small DRAM share, matching the paper's
    "less than 5 % of data in DRAM" trace.
    """
    spec = ScenarioSpec(policy="am", alpha=alpha, windows=windows, seed=seed)
    return grid_rows([GridCell("am", spec)], _analytical_trace)[0]


def fig10_knob_sweep(
    alphas=(0.1, 0.3, 0.5, 0.7, 0.9),
    thresholds=(25.0, 75.0),
    windows: int = 10,
    seed: int = 0,
) -> list[dict]:
    """AM at five knob values vs baselines at two hotness thresholds, for
    Memcached/YCSB (paper Figure 10)."""
    base = ScenarioSpec(windows=windows, seed=seed)
    cells = [
        GridCell(f"am@{alpha:g}", base.with_(policy="am", alpha=alpha))
        for alpha in alphas
    ]
    cells += [
        GridCell(f"{policy}@{pct:g}", base.with_(policy=policy, percentile=pct))
        for policy in ("hemem", "gswap", "tmo", "waterfall")
        for pct in thresholds
    ]
    return grid_rows(cells, _knob_row)


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
    spec = ScenarioSpec(
        workload="redis-ycsb", percentile=percentile, windows=windows, seed=seed,
    )
    return grid_rows(
        [GridCell(policy, spec.with_(policy=policy)) for policy in policies],
        _latency_row,
    )


def fig12_spectrum_placement(windows: int = 12, seed: int = 0) -> list[dict]:
    """Final placement distribution for Waterfall and AM at the three
    aggressiveness levels, 6-tier spectrum mix (paper Figure 12)."""
    models = (("waterfall", "WF"), ("am", "AM"))
    cells = _aggressiveness_cells(models, {}, windows=windows, seed=seed)
    return grid_rows(cells, _final_placement_row)


def fig13_spectrum(
    workloads=EVAL_WORKLOADS, windows: int = 10, seed: int = 0
) -> list[dict]:
    """Slowdown and TCO savings with six tiers: GSwap* vs Waterfall vs AM
    at three aggressiveness levels (paper Figure 13)."""
    models = (("gswap", "GS"), ("waterfall", "WF"), ("am", "AM"))
    cells = []
    for workload in workloads:
        cells += _aggressiveness_cells(
            models, {"workload": workload},
            workload=workload, windows=windows, seed=seed,
        )
    return grid_rows(cells, _pct_row)


def fig14_tax(windows: int = 10, seed: int = 0) -> list[dict]:
    """Daemon overhead (profiling + modeling + migration) for AM-TCO and
    AM-perf with local vs remote solver (paper Figure 14)."""
    base = ScenarioSpec(workload="memcached-memtier", windows=windows, seed=seed)
    cells = [
        # Effectively no profiling.
        GridCell("baseline", base.with_(sampling_rate=10**9),
                 {"policy": NullModel()}),
        GridCell("only-profiling", base, {"policy": NullModel()}),
    ]
    for preset in ("am-tco", "am-perf"):
        for remote in (False, True):
            policy = make_policy(preset)
            policy.remote = remote
            label = f"{policy.name}-{'Remote' if remote else 'Local'}"
            cells.append(GridCell(label, base, {"policy": policy}))
    return grid_rows(cells, _tax_row)


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

    spec = ScenarioSpec(sampling_rate=1000, windows=windows, seed=seed)
    return grid_rows([
        _labelled({"config": label}, spec, migration_filter=mf)
        for label, mf in (
            ("filter-on", MigrationFilter()),
            ("filter-off", MigrationFilter(
                pressure_threshold=None, enforce_capacity=False)),
        )
    ], partial(_pct_row, columns=("faults", "migration_ms")))


def ablation_cooling(
    coolings=(0.0, 0.25, 0.5, 0.75, 1.0), windows: int = 10, seed: int = 0
) -> list[dict]:
    """Hotness EWMA cooling-factor sweep."""
    spec = ScenarioSpec(sampling_rate=1000, windows=windows, seed=seed)
    return grid_rows([
        _labelled({"cooling": cooling}, spec.with_(cooling=cooling))
        for cooling in coolings
    ], partial(_pct_row, columns=("faults",)))


def ablation_tier_count(windows: int = 10, seed: int = 0) -> list[dict]:
    """1 vs 2 vs 5 compressed tiers at matched aggressiveness (the paper's
    §8.3.2 'why multiple compressed tiers?' argument)."""
    spec = ScenarioSpec(percentile=75.0, windows=windows, seed=seed)
    return grid_rows([
        _labelled({"config": "1-CT"}, spec.with_(policy="gswap", mix="single")),
        _labelled({"config": "2-CT"}, spec.with_(policy="am", alpha=0.1)),
        _labelled({"config": "5-CT"},
                  spec.with_(policy="am", alpha=0.1, mix="spectrum")),
    ], _pct_row)


def ablation_prefetch(windows: int = 10, seed: int = 0) -> list[dict]:
    """Spatial prefetcher on/off for a fault-heavy configuration (the
    paper's §3.2 future-work extension)."""
    spec = ScenarioSpec(policy="tmo", percentile=75.0, windows=windows, seed=seed)
    return grid_rows([
        _labelled({"config": label}, spec.with_(prefetch_degree=degree))
        for label, degree in (
            ("no-prefetch", None), ("prefetch-4", 4), ("prefetch-8", 8),
        )
    ], partial(_pct_row, columns=("faults", "prefetches", "accuracy_pct")))


def ablation_fast_migration(windows: int = 10, seed: int = 0) -> list[dict]:
    """§7.1's same-algorithm migration optimization on/off, measured on
    the spectrum mix where Waterfall migrates between lz4 tiers."""
    spec = ScenarioSpec(
        policy="waterfall", mix="spectrum", percentile=50.0,
        windows=windows, seed=seed,
    )
    return grid_rows([
        _labelled({"config": label}, spec.with_(fast_same_algo_migration=fast))
        for label, fast in (("naive-path", False), ("fast-same-algo", True))
    ], partial(_pct_row, columns=("migration_ms",)))


def ablation_tier_selection(windows: int = 10, seed: int = 0) -> list[dict]:
    """Hand-picked spectrum (C1/C2/C4/C7/C12) vs automatically selected
    tier set (the paper's §9 'selecting the optimal set' direction)."""
    from repro.core.tier_select import build_selected_tiers, select_tiers
    from repro.mem.address_space import AddressSpace
    from repro.mem.system import TieredMemorySystem
    from repro.mem.tier import ByteAddressableTier
    from repro.workloads.registry import make_workload

    spec = ScenarioSpec(
        policy="am", alpha=0.5, mix="spectrum", windows=windows, seed=seed,
    )
    workload = make_workload("memcached-ycsb", seed=seed)
    space = AddressSpace(workload.num_pages, "mixed", seed=seed)
    n = space.num_pages
    tiers = [ByteAddressableTier("DRAM", DRAM, capacity_pages=n)]
    tiers += build_selected_tiers(
        select_tiers("mixed", k=5, seed=seed), capacity_pages=n
    )
    system = TieredMemorySystem(tiers, space)
    return grid_rows([
        _labelled({"config": "hand-picked"}, spec),
        _labelled({"config": "auto-selected"}, spec,
                  workload=workload, system=system),
    ], partial(_pct_row, columns=("tiers",)))


def exp_sla(
    targets=(0.02, 0.05, 0.15), windows: int = 15, seed: int = 0
) -> list[dict]:
    """SLA-aware knob auto-tuning: harvested TCO per slowdown budget."""
    from repro.adaptive import MIMD_CONFIG
    from repro.engine.build import build_system
    from repro.workloads.registry import make_workload

    cells = []
    for target in targets:
        workload = make_workload("memcached-ycsb", seed=seed)
        cells.append(_labelled(
            {"sla_slowdown_pct": 100 * target},
            ScenarioSpec(
                policy="adaptive",
                adaptive=MIMD_CONFIG.with_(target_slowdown=target).to_dict(),
                windows=windows,
                seed=seed + 1,
                daemon_seed=seed + 1,
            ),
            workload=workload,
            system=build_system(workload, mix="standard", seed=seed),
        ))
    return grid_rows(cells, _sla_row)


def exp_extended_baselines(windows: int = 10, seed: int = 0) -> list[dict]:
    """Related-work baselines beyond the paper's three: TPP* (watermark +
    hysteresis) and MEMTIS* (histogram-sized hot set) vs HeMem* and the
    analytical model, on Memcached/YCSB."""
    spec = ScenarioSpec(percentile=50.0, windows=windows, seed=seed)
    return grid_rows([
        GridCell(policy, spec.with_(policy=policy))
        for policy in ("hemem", "tpp", "memtis", "am-tco")
    ], partial(_pct_row, columns=("policy", "pages_migrated")))


def ablation_granularity(windows: int = 10, seed: int = 0) -> list[dict]:
    """2 MB region management (TS-Daemon, §7.2) vs the kernel's page
    granular LRU reclaim, on identical workloads: the region design pays
    far fewer management operations for comparable savings."""
    from repro.core.placement.lru import run_lru
    from repro.engine.build import build_system
    from repro.workloads.registry import make_workload

    spec = ScenarioSpec(policy="tmo", percentile=50.0, windows=windows, seed=seed)
    rows = grid_rows(
        [_labelled({"granularity": "2MB-regions"}, spec)],
        partial(_pct_row, columns=("migration_ops", "pages_moved", "faults")),
    )

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
    from repro.mem.media import NVMM
    from repro.mem.system import TieredMemorySystem
    from repro.mem.tier import ByteAddressableTier
    from repro.workloads.registry import make_workload

    spec = ScenarioSpec(policy="am", alpha=0.4, windows=windows, seed=seed)
    cells = []
    for label, algo in (("sw-zstd", "zstd"), ("hw-iaa-deflate", "iaa-deflate")):
        workload = make_workload("memcached-ycsb", seed=seed)
        space = AddressSpace(workload.num_pages, "mixed", seed=seed)
        n = space.num_pages
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
            make_compressed_tier("CT", algo, "zsmalloc", NVMM, capacity_pages=n),
        ]
        cells.append(_labelled(
            {"tier": label}, spec,
            workload=workload, system=TieredMemorySystem(tiers, space),
        ))
    return grid_rows(cells, partial(_pct_row, columns=("faults",)))


def ablation_telemetry(windows: int = 10, seed: int = 0) -> list[dict]:
    """Telemetry backend comparison: PEBS sampling vs ACCESSED-bit
    scanning vs DAMON-style probing, driving the same AM policy."""
    spec = ScenarioSpec(windows=windows, seed=seed)
    return grid_rows([
        _labelled({"telemetry": kind}, spec.with_(telemetry=kind))
        for kind in ("pebs", "idlebit", "damon")
    ], partial(_pct_row, columns=("faults", "profiling_ms")))


def exp_colocation(windows: int = 10, seed: int = 0) -> list[dict]:
    """Co-located tenants with diverse compressibility (paper §3.4 and
    §9 direction v): a Memcached tenant (mixed data) shares the spectrum
    mix with a PageRank tenant (highly compressible graph data); the
    harness reports per-tenant placement and TCO."""
    from repro.bench.configs import spectrum_mix
    from repro.mem.address_space import AddressSpace
    from repro.mem.system import TieredMemorySystem
    from repro.workloads.colocate import CompositeWorkload, composite_compressibility
    from repro.workloads.registry import make_workload

    tenants = [
        make_workload("memcached-ycsb", seed=seed, num_pages=8192),
        make_workload("pagerank", seed=seed),
    ]
    profiles = ("mixed", "nci")
    workload = CompositeWorkload(tenants, seed=seed)
    space = AddressSpace(
        workload.num_pages,
        seed=seed,
        compressibility=composite_compressibility(tenants, list(profiles), seed),
    )
    spec = ScenarioSpec(
        policy="am", alpha=0.5, mix="spectrum", windows=windows, seed=seed,
    )
    system = TieredMemorySystem(spectrum_mix(space), space)
    cell = GridCell("colocation", spec, {"workload": workload, "system": system})
    return grid_rows([cell], partial(_tenant_rows, profiles=profiles))[0]


def ablation_solver(windows: int = 6, seed: int = 0) -> list[dict]:
    """Solver backend comparison on identical runs."""
    spec = ScenarioSpec(windows=windows, seed=seed)
    return grid_rows([
        _labelled({"backend": backend}, spec.with_(solver_backend=backend))
        for backend in ("greedy", "scipy", "frontier")
    ], partial(_pct_row, columns=("solver_ms",)))
