"""Region migration engine with push-thread accounting.

TS-Daemon migrates data with a configurable number of *push threads*
(``PT`` in the artifact's run names); with ``k`` threads the wall-clock cost
of a migration wave is roughly the serial cost divided by ``k``.  The
engine hands each window's recommendation to
:meth:`repro.mem.system.TieredMemorySystem.move_regions` as one wave (the
prefix before a chaos fail point, when there is one), accumulates
statistics and exposes the wave cost both serially (CPU-seconds of daemon
tax) and parallelised (wall clock).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.system import TieredMemorySystem
from repro.obs import NULL_OBS, Observability


@dataclass
class MigrationStats:
    """Cumulative migration accounting.

    Attributes:
        regions_moved: Regions migrated.
        pages_moved: Pages that actually changed tier.
        serial_ns: Total single-threaded migration nanoseconds.
        waves: Migration waves executed (one per profile window).
        rollbacks: Region moves that failed mid-wave and were rolled
            back (chaos ``migration_partial`` faults).
        moves_dropped: Recommended moves abandoned because their wave
            failed before reaching them.
    """

    regions_moved: int = 0
    pages_moved: int = 0
    serial_ns: float = 0.0
    waves: int = 0
    rollbacks: int = 0
    moves_dropped: int = 0


class MigrationEngine:
    """Executes placement recommendations against a memory system.

    Args:
        system: The memory system to migrate within.
        push_threads: Parallelism for migration waves (paper artifact's
            ``PT`` parameter; default 2 as in the artifact run names).
        recency_windows: Demotions skip pages accessed within this many
            recent profile windows (the kernel's ACCESSED-bit behaviour);
            see :meth:`repro.mem.system.TieredMemorySystem.move_region`.
        obs: Observability bundle; each wave runs under a ``migrate``
            span and bumps the migration counters (disabled by default).
        injector: Optional :class:`~repro.chaos.faults.FaultInjector`;
            an active ``migration_partial`` fault makes the wave fail
            partway: the failing region's move is rolled back (pages
            return to their original tiers, capacity accounting intact)
            and the remaining recommended moves are dropped.
    """

    def __init__(
        self,
        system: TieredMemorySystem,
        push_threads: int = 2,
        recency_windows: int = 1,
        obs: Observability | None = None,
        injector=None,
    ) -> None:
        if push_threads < 1:
            raise ValueError("push_threads must be >= 1")
        if recency_windows < 0:
            raise ValueError("recency_windows must be >= 0")
        self.system = system
        self.push_threads = push_threads
        self.recency_windows = recency_windows
        self.stats = MigrationStats()
        self.obs = obs if obs is not None else NULL_OBS
        self.injector = injector
        registry = self.obs.registry
        self._m_rollbacks = registry.counter(
            "repro_chaos_migration_rollbacks_total",
            "Region moves rolled back after a mid-wave failure",
        )
        self._m_dropped = registry.counter(
            "repro_chaos_moves_dropped_total",
            "Recommended moves abandoned when their wave failed",
        )
        self._m_waves = registry.counter(
            "repro_migration_waves_total", "Migration waves executed"
        )
        self._m_regions = registry.counter(
            "repro_migrated_regions_total", "Regions that changed tier"
        )
        self._m_pages = registry.counter(
            "repro_migrated_pages_total", "Pages that changed tier"
        )
        self._m_wave_ns = registry.histogram(
            "repro_migration_wave_ns",
            "Virtual wall nanoseconds per migration wave",
        )
        self._m_fallbacks = registry.counter(
            "repro_migration_wave_fallbacks_total",
            "Migration waves that could not run as one pass and moved page by page",
        )

    def apply(self, moves: dict[int, int], window: int | None = None) -> float:
        """Execute one wave of region moves.

        Args:
            moves: Mapping ``region_id -> destination tier index``.
            window: Window index for fault scheduling; defaults to the
                wave count (one wave per profile window).

        Returns:
            Wall-clock nanoseconds of the wave (serial cost divided by the
            push-thread count).
        """
        if window is None:
            window = self.stats.waves
        items = sorted(moves.items())
        failing = None
        if self.injector is not None and items:
            fraction = self.injector.migration_failure(window)
            if fraction is not None:
                # The wave fails at the first move inside the failing
                # fraction (at least the last move always fails); the
                # moves before it run as the wave.
                fail_at = min(
                    len(items) - 1, int(len(items) * (1.0 - fraction))
                )
                items, failing = items[:fail_at], items[fail_at]
        system = self.system
        regions_before = self.stats.regions_moved
        moved_before = system.migrated_pages
        with self.obs.tracer.span("migrate", regions=len(moves)) as span:
            wave = system.move_regions(items, recency_windows=self.recency_windows)
            wave_ns = 0.0
            for ns in wave.region_ns:
                if ns > 0.0:
                    self.stats.regions_moved += 1
                wave_ns += ns
            if failing is not None:
                fail_region = failing[0]
                with self.obs.tracer.span(
                    "fault_injected",
                    kind="migration_partial",
                    window=window,
                    region=fail_region,
                ):
                    wave_ns += self._rollback_move(*failing)
                dropped = len(moves) - len(items) - 1
                self.stats.rollbacks += 1
                self.stats.moves_dropped += dropped
                self._m_rollbacks.inc()
                if dropped:
                    self._m_dropped.inc(dropped)
                self.injector.note(
                    "fault",
                    window,
                    kind="migration_partial",
                    region=fail_region,
                    dropped=dropped,
                )
            pages = system.migrated_pages - moved_before
            self.stats.pages_moved += pages
            span.set(
                pages=pages,
                allocator_calls=wave.allocator_calls,
                per_page=wave.per_page,
            )
        if wave.per_page:
            self._m_fallbacks.inc()
        self.stats.serial_ns += wave_ns
        self.stats.waves += 1
        wall_ns = wave_ns / self.push_threads
        self._m_waves.inc()
        self._m_regions.inc(self.stats.regions_moved - regions_before)
        self._m_pages.inc(pages)
        self._m_wave_ns.observe(wall_ns)
        return wall_ns

    def _rollback_move(self, region_id: int, dst_idx: int) -> float:
        """Move a region forward, then roll it back to where it was.

        Models a migration that fails after its copy work: the daemon
        pays the forward *and* the undo cost, but the placement -- and
        every tier's capacity accounting -- ends exactly where it
        started.  The back-moves are one multi-group move, a group per
        original tier in ascending order.  Pages whose back-move
        destination refuses them (e.g. a capacity shock landed between
        the copy and the undo) land in the fastest byte tier via the
        normal redirect path; accounting stays consistent either way.
        """
        system = self.system
        region = system.space.regions[region_id]
        pages = region.pages()
        page_ids = np.arange(pages.start, pages.stop, dtype=np.int64)
        before = system.page_location[page_ids].copy()
        before_tier = region.assigned_tier
        ns = system.move_region(
            region_id, dst_idx, recency_windows=self.recency_windows
        )
        moved = system.page_location[page_ids] != before
        origin = before[moved]
        order = np.argsort(origin, kind="stable")
        dsts, sizes = np.unique(origin, return_counts=True)
        back = system._migrate_groups(
            page_ids[moved][order], dsts.tolist(), sizes.tolist(), distinct=True
        )
        for group_ns in back.region_ns:
            ns += group_ns
        region.assigned_tier = before_tier
        return ns
