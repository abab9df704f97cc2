"""TS-Daemon: the orchestration loop (paper §7.2, Figure 6).

Each profile window the daemon:

1. lets the application run -- the workload generator produces the
   window's per-page access counts, which the memory system serves
   (charging the virtual clock and faulting compressed pages on demand)
   while the PEBS sampler observes the same accesses,
2. closes the telemetry window into a hotness profile,
3. asks the placement model for a recommendation,
4. passes the recommendation through the migration filter,
5. executes the migration wave, and
6. records a :class:`WindowRecord` for the evaluation harness.

The daemon separates application time (access + fault service) from daemon
tax (profiling, solving, migration) exactly as the paper's §8.4 does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import RunSummary, weighted_percentile
from repro.core.placement.base import PlacementModel
from repro.core.placement.filter import MigrationFilter
from repro.mem.migration import MigrationEngine
from repro.mem.stats import tier_rollup
from repro.mem.system import TieredMemorySystem
from repro.obs import NULL_OBS, Observability


@dataclass
class WindowRecord:
    """Everything the harness needs about one profile window.

    Attributes:
        window: Window index.
        recommended: Regions per tier as recommended by the model (before
            filtering), shape ``(T,)``.
        placement: Application pages per tier after migration, shape
            ``(T,)`` (the *actual* placement, Figure 9b).
        pool_pages: Pool pages per tier (zero for byte tiers).
        tco: Actual TCO after migration (relative $).
        tco_savings: Fractional savings vs all-DRAM.
        faults: Per-tier faults during this window, shape ``(T,)``.
        access_ns: Application nanoseconds this window.
        accesses: Accesses this window.
        migration_wall_ns: Migration wave wall time.
        solver_ns: Solver wall time spent this window.
        hotness: Region hotness snapshot.
        p99_latency_ns: Exact weighted p99 per-access latency over this
            window's histogram, 0.0 without accesses (the adaptive
            controller's SLA signal).
    """

    window: int
    recommended: np.ndarray
    placement: np.ndarray
    pool_pages: np.ndarray
    tco: float
    tco_savings: float
    faults: np.ndarray
    access_ns: float
    accesses: int
    migration_wall_ns: float
    solver_ns: float
    hotness: np.ndarray
    p99_latency_ns: float

    def slowdown(self, read_ns: float) -> float:
        """Fractional mean slowdown vs serving every access at
        ``read_ns`` (all-DRAM); ``0.0`` for a window with no accesses."""
        optimal_ns = self.accesses * read_ns
        return (
            (self.access_ns - optimal_ns) / optimal_ns if optimal_ns else 0.0
        )


#: Log-scale histogram geometry for :class:`_LatencyAccumulator`, shared
#: with :mod:`repro.obs.metrics`.  A bin spans ``[base**k, base**(k+1))``
#: ns and reports its geometric mean, so the worst-case percentile error
#: is ``sqrt(base) - 1`` ~ 0.25 %.  The range covers sub-ns to 1 s, far
#: beyond any simulated access latency.
from repro.obs.metrics import LOG_BASE as _LAT_BASE  # noqa: E402
from repro.obs.metrics import NUM_BINS as _LAT_BINS  # noqa: E402

_LAT_INV_LN_BASE = 1.0 / np.log(_LAT_BASE)
_LAT_REPR = _LAT_BASE ** (np.arange(_LAT_BINS) + 0.5)


class _LatencyAccumulator:
    """Bounded-memory latency aggregate over a whole run.

    The previous implementation kept one ``(value, weight)`` pair per
    histogram entry, which on a 10k-window run accumulated millions of
    tuples.  This one folds every batch into a fixed-size log-scale bin
    array: the mean stays exact (running sums), percentiles are read off
    the bin cumulative weights with < 0.5 % relative error (see
    ``_LAT_BASE``), and memory is O(bins) regardless of run length.
    """

    __slots__ = ("_counts", "_weight", "_weighted_value")

    def __init__(self) -> None:
        self._counts = np.zeros(_LAT_BINS, dtype=np.float64)
        self._weight = 0.0
        self._weighted_value = 0.0

    def extend(self, values: np.ndarray, weights: np.ndarray) -> None:
        """Fold in histogram entries: ``weights[k]`` accesses of
        ``values[k]`` nanoseconds each."""
        if values.size == 0:
            return
        weights = weights.astype(np.float64)
        self._weight += float(weights.sum())
        self._weighted_value += float((values * weights).sum())
        idx = np.floor(
            np.log(np.maximum(values, 1.0)) * _LAT_INV_LN_BASE
        ).astype(np.int64)
        np.clip(idx, 0, _LAT_BINS - 1, out=idx)
        self._counts += np.bincount(idx, weights=weights, minlength=_LAT_BINS)

    def percentile(self, p: float) -> float:
        """Nearest-rank weighted percentile over the bin representatives."""
        if self._weight <= 0.0:
            return 0.0
        cum = np.cumsum(self._counts)
        target = cum[-1] * p / 100.0
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(_LAT_REPR[min(idx, _LAT_BINS - 1)])

    def mean(self) -> float:
        """Exact weighted mean (running sums, not binned)."""
        if self._weight <= 0.0:
            return 0.0
        return self._weighted_value / self._weight


class TSDaemon:
    """Drives profiling, modeling and migration for one application.

    Args:
        system: The tiered memory system hosting the application.
        model: The placement model (baseline, Waterfall, or analytical).
        migration_filter: The §6.7 filter; ``None`` installs the default.
        sampling_rate: PEBS period (paper default 5000).
        cooling: Hotness EWMA cooling per window.
        push_threads: Migration parallelism (artifact ``PT``).
        recency_windows: Demotions skip pages accessed this recently (the
            kernel ACCESSED-bit / swap-LRU behaviour); 0 disables.
        prefetch_degree: When set, install a
            :class:`~repro.core.prefetch.SpatialPrefetcher` of this degree
            (the paper's §3.2 future-work extension); ``None`` disables.
        telemetry: Telemetry backend: ``"pebs"`` (the paper's pipeline),
            ``"idlebit"`` (ACCESSED-bit scanning) or ``"damon"``
            (sampled probing); see :func:`repro.telemetry.make_profiler`.
        seed: Telemetry RNG seed.
        obs: Observability bundle; the window loop emits ``fault_path``
            / ``profile`` / ``solve`` spans and the headline counters
            into it (disabled and free by default).
        injector: Optional :class:`~repro.chaos.faults.FaultInjector`;
            when given, each window first applies/expires capacity
            shocks and telemetry-dropout windows skip the profiler's
            sample recording (the window closes on cooled hotness only,
            like a real PEBS gap).
    """

    def __init__(
        self,
        system: TieredMemorySystem,
        model: PlacementModel,
        migration_filter: MigrationFilter | None = None,
        sampling_rate: int = 5000,
        cooling: float = 0.5,
        push_threads: int = 2,
        recency_windows: int = 1,
        prefetch_degree: int | None = None,
        telemetry: str = "pebs",
        seed: int = 0,
        obs: Observability | None = None,
        injector=None,
    ) -> None:
        from repro.telemetry import make_profiler

        if sampling_rate < 1:
            raise ValueError(
                f"sampling_rate must be >= 1, got {sampling_rate}"
            )
        if not 0.0 <= cooling <= 1.0:
            raise ValueError(f"cooling must be in [0, 1], got {cooling}")
        self.system = system
        self.model = model
        self.filter = migration_filter or MigrationFilter()
        self.profiler = make_profiler(
            telemetry,
            num_regions=system.space.num_regions,
            sampling_rate=sampling_rate,
            cooling=cooling,
            seed=seed,
        )
        self.obs = obs if obs is not None else NULL_OBS
        self.injector = injector
        # The solver registry and serviced models read ``model.obs`` for
        # per-solve latency / fallback accounting.
        self.model.obs = self.obs
        registry = self.obs.registry
        self._m_dropouts = registry.counter(
            "repro_chaos_telemetry_dropouts_total",
            "Windows whose telemetry samples were dropped by injection",
        )
        self._m_windows = registry.counter(
            "repro_windows_total", "Profile windows executed"
        )
        self._m_accesses = registry.counter(
            "repro_accesses_total", "Simulated memory accesses served"
        )
        self._m_faults = registry.counter(
            "repro_faults_total", "Compressed-tier demand faults"
        )
        self._m_app_ns = registry.counter(
            "repro_app_ns_total", "Virtual application nanoseconds"
        )
        self._m_tco = registry.gauge(
            "repro_tco_savings_pct", "TCO savings vs all-DRAM, last window"
        )
        self._m_solver_ns = registry.histogram(
            "repro_solver_window_ns",
            "Solver nanoseconds charged per window",
            volatile=True,
        )
        self.engine = MigrationEngine(
            system,
            push_threads=push_threads,
            recency_windows=recency_windows,
            obs=self.obs,
            injector=injector,
        )
        self.prefetcher = None
        if prefetch_degree is not None:
            from repro.core.prefetch import SpatialPrefetcher

            self.prefetcher = SpatialPrefetcher(system, degree=prefetch_degree)
        self.records: list[WindowRecord] = []
        self._latencies = _LatencyAccumulator()
        self._prev_faults = np.zeros(len(system.tiers), dtype=np.int64)

    def run_window(self, counts: np.ndarray, write_fraction: float = 0.0) -> WindowRecord:
        """Execute one profile window over the given per-page access counts."""
        system = self.system
        tracer = self.obs.tracer
        injector = self.injector
        if injector is not None:
            injector.begin_window(len(self.records), system)
        system.advance_window()
        with tracer.span("fault_path") as span:
            batch = system.access_batch(counts, write_fraction=write_fraction)
            span.set(accesses=batch.accesses, faults=batch.faults)
        self._latencies.extend(batch.latency_ns, batch.latency_count)
        if self.prefetcher is not None and batch.faulted_pages.size:
            self.prefetcher.on_window(batch.faulted_pages)
        with tracer.span("profile"):
            if injector is not None and injector.telemetry_dropout(
                len(self.records)
            ):
                # PEBS gap: the window closes on cooled hotness alone.
                self._m_dropouts.inc()
                injector.note(
                    "fault", len(self.records), kind="telemetry_dropout"
                )
            else:
                self.profiler.record(counts)
            record = self.profiler.end_window()

        # Update region hotness for models that read it off the regions:
        # one column copy into the SoA table (bit-identical float64).
        system.space.page_table.region_hotness[:] = record.hotness

        solver_before = self.model.solver_ns
        with tracer.span("solve", policy=self.model.name) as span:
            recommendation = self.model.recommend(record, system)
            solver_ns = self.model.solver_ns - solver_before
            span.set(solver_ns=solver_ns, moves=len(recommendation))

        recommended = np.bincount(
            np.fromiter(
                recommendation.values(), np.int64, len(recommendation)
            ),
            minlength=len(system.tiers),
        )

        wave = self.filter.apply(recommendation, record, system)
        migration_wall_ns = self.engine.apply(wave)

        placement = system.placement_counts()
        rollup = tier_rollup(system.tiers)
        pool_pages = rollup["pool_pages"]
        faults_now = rollup["faults"]
        window_faults = faults_now - self._prev_faults
        self._prev_faults = faults_now
        tco = system.tco()

        window_record = WindowRecord(
            window=record.window,
            recommended=recommended,
            placement=placement,
            pool_pages=pool_pages,
            tco=tco,
            tco_savings=system.tco_savings(tco),
            faults=window_faults,
            access_ns=batch.access_ns,
            accesses=batch.accesses,
            migration_wall_ns=migration_wall_ns,
            solver_ns=solver_ns,
            hotness=record.hotness,
            p99_latency_ns=(
                weighted_percentile(batch.latency_ns, batch.latency_count, 99.0)
                if batch.accesses
                else 0.0
            ),
        )
        self.records.append(window_record)
        self._m_windows.inc()
        self._m_accesses.inc(batch.accesses)
        self._m_faults.inc(int(window_faults.sum()))
        self._m_app_ns.inc(batch.access_ns)
        self._m_tco.set(100.0 * window_record.tco_savings)
        self._m_solver_ns.observe(solver_ns)
        return window_record

    def latency_percentile(self, p: float) -> float:
        """Run-level access-latency percentile from the log-binned
        accumulator (the arena leaderboard reads p99 through this)."""
        return self._latencies.percentile(p)

    def summary(self, workload_name: str = "") -> RunSummary:
        """Aggregate the run into a :class:`RunSummary`."""
        clock = self.system.clock
        total_faults = sum(
            t.stats.faults for t in self.system.tiers if t.is_compressed
        )
        savings = [r.tco_savings for r in self.records]
        return RunSummary(
            workload=workload_name,
            policy=self.model.name,
            slowdown=clock.slowdown,
            tco_savings=float(np.mean(savings)) if savings else 0.0,
            final_tco_savings=savings[-1] if savings else 0.0,
            avg_latency_ns=self._latencies.mean(),
            p95_latency_ns=self._latencies.percentile(95.0),
            p999_latency_ns=self._latencies.percentile(99.9),
            total_faults=total_faults,
            migration_ns=clock.migration_ns,
            solver_ns=self.model.solver_ns,
            profiling_ns=self.profiler.overhead_ns,
            windows=len(self.records),
            extras={
                "app_ns": clock.access_ns,
                "optimal_ns": clock.optimal_ns,
                "accesses": clock.total_accesses,
                "migration_serial_ns": self.engine.stats.serial_ns,
                "pages_migrated": self.engine.stats.pages_moved,
                # Models routed through a shared solver service expose
                # their queueing separately (repro.fleet.service).
                "solver_queue_ns": float(getattr(self.model, "queue_ns", 0.0)),
            },
        )
