"""The tiered memory system simulator.

:class:`TieredMemorySystem` binds an application address space to a set of
tiers and simulates the two data paths of the paper's modified kernel:

* the **access path**: loads/stores hit whatever tier each page currently
  occupies; a hit on a compressed tier is a fault that decompresses the page
  and promotes it to the fastest byte-addressable tier with room
  (paper §6.5),
* the **migration path**: the daemon moves whole 2 MB regions between tiers;
  moving into a compressed tier compresses each page, moving between two
  compressed tiers decompresses and recompresses (the paper's naive path,
  §7.1).

Application-visible time (access + fault service) and daemon time
(migrations) are accounted separately on the virtual clock, matching the
paper's "TierScape Tax" methodology (§8.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from repro.allocators.base import AllocationError
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGE_SIZE, PAGES_PER_REGION
from repro.mem.stats import ClockStats
from repro.mem.tier import (
    CHUNK_BYTES,
    ByteAddressableTier,
    CompressedTier,
    Tier,
    _repeats,
)
from repro.transient import TransientCaches

#: 4 KB page copy cost in streaming chunks.
_PAGE_CHUNKS = PAGE_SIZE // CHUNK_BYTES

_NO_POSITIONS = np.zeros(0, dtype=np.int64)

#: Page offsets within a region.
_REGION_PAGES = np.arange(PAGES_PER_REGION)


def _same_kind_runs(
    frees: np.ndarray, stores: np.ndarray, bounds: list[int]
) -> list[tuple[bool, int, int]]:
    """One tier's free and store positions as maximal same-kind runs.

    ``frees`` and ``stores`` are disjoint ascending positions, and group
    ``g`` holds positions ``bounds[g]`` to ``bounds[g + 1]``.  A group
    holds one kind for the tier, so runs are found group by group:
    consecutive frees (no store between them) form one run, and so do
    consecutive stores.  Returns ``(is_store, start, stop)`` runs in
    position order: the run is ``stores[start:stop]`` or
    ``frees[start:stop]``.
    """
    if not stores.size:
        return [(False, 0, frees.size)]
    if not frees.size:
        return [(True, 0, stores.size)]
    # Per group, the frees and stores before its end.
    free_ends = frees.searchsorted(bounds).tolist()
    store_ends = stores.searchsorted(bounds).tolist()
    runs: list[list] = []
    for g in range(len(bounds) - 1):
        is_store = store_ends[g + 1] > store_ends[g]
        ends = store_ends if is_store else free_ends
        if ends[g + 1] == ends[g]:
            continue
        if runs and runs[-1][0] == is_store:
            runs[-1][2] = ends[g + 1]
        else:
            runs.append([is_store, ends[g], ends[g + 1]])
    return [tuple(run) for run in runs]


def _no_values(dtype=np.float64):
    return field(default_factory=lambda: np.zeros(0, dtype=dtype))


@dataclass
class BatchResult:
    """Outcome of one access batch.

    Attributes:
        accesses: Total accesses in the batch.
        faults: Compressed-tier faults triggered.
        access_ns: Application nanoseconds charged.
        latency_ns: Per-access latency of each histogram entry; the
            entries cover every access in the batch (tail-latency
            percentiles read them).
        latency_count: Accesses behind each ``latency_ns`` entry.
        faulted_pages: Page ids that demand-faulted (for prefetchers).
    """

    accesses: int = 0
    faults: int = 0
    access_ns: float = 0.0
    latency_ns: np.ndarray = _no_values()
    latency_count: np.ndarray = _no_values(np.int64)
    faulted_pages: np.ndarray = _no_values(np.int64)


class WaveResult(NamedTuple):
    """Outcome of one :meth:`TieredMemorySystem.move_regions` wave.

    Attributes:
        region_ns: Daemon nanoseconds per region, in wave order, each
            summed page by page, left to right.
        allocator_calls: Bulk ``store_ids``/``free_ids`` calls issued
            (the per-page path's calls are not counted).
        per_page: Whether the wave could not run as one pass (see
            :meth:`TieredMemorySystem._move_wave`) and moved its pages
            one at a time.
    """

    region_ns: list[float]
    allocator_calls: int
    per_page: bool


class PlanningTables(NamedTuple):
    """The planner's per-region tables for one compressibility map.

    Attributes:
        per_access: Per-access penalty of each tier for each region,
            shape ``(R, T)`` (:func:`repro.core.perf.per_access_penalty`).
        cost: Modelled TCO of each region in each tier, shape ``(R, T)``
            (:func:`repro.core.tco.cost_matrix`).
        tco_min: Eq. 1's ``TCO_min`` of ``cost``.
        tco_max: Eq. 1's ``TCO_max`` of ``cost``.
    """

    per_access: np.ndarray
    cost: np.ndarray
    tco_min: float
    tco_max: float


class TieredMemorySystem(TransientCaches):
    """A set of tiers serving one application's address space.

    Args:
        tiers: Tier list; ``tiers[0]`` must be the fastest byte-addressable
            tier (DRAM by convention) -- it is the promotion target and the
            performance baseline (Eq. 3).
        address_space: The application's pages and compressibility map.
        fast_same_algo_migration: Enable the paper's §7.1 optimization:
            migrating between two compressed tiers that share a
            compression algorithm copies the compressed object instead
            of decompressing and recompressing.

    All pages start resident in ``tiers[0]``.

    The compression law reaches the batched paths through per-level
    tables: each page's index into the space's distinct compressibility
    values, and per compressed tier a compressed size and an admission
    flag per value.  The planner's per-region tables
    (:meth:`planning_tables`) are derived the same way.  Checkpoints
    leave them all out.
    """

    _TRANSIENT = (
        "_level_source",
        "_level_values",
        "_page_level",
        "_level_csizes",
        "_level_accepts",
        "_plan",
    )

    def __init__(
        self,
        tiers: list[Tier],
        address_space: AddressSpace,
        fast_same_algo_migration: bool = False,
    ) -> None:
        if not tiers:
            raise ValueError("need at least one tier")
        if not isinstance(tiers[0], ByteAddressableTier):
            raise ValueError("tiers[0] must be byte-addressable (DRAM)")
        if tiers[0].capacity_pages < address_space.num_pages:
            raise ValueError(
                "tiers[0] must be able to hold the whole address space "
                f"({address_space.num_pages} pages); the placement policy, "
                "not capacity pressure, drives tiering in TierScape"
            )
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = tiers
        # Instance (not class) state: setting it on the class would leak
        # the §7.1 fast path into every system in the process.
        self.fast_same_algo_migration = fast_same_algo_migration
        self._tier_index = {name: i for i, name in enumerate(names)}
        self.space = address_space
        self.clock = ClockStats()
        # The columnar page table owns all per-page state; a fresh system
        # starts from the everything-in-tier-0 placement (page columns are
        # per-system state, region columns belong to the space).
        self.pt = address_space.page_table
        self.pt.reset_placement()
        self.current_window = 0
        for idx, tier in enumerate(tiers):
            if tier.is_compressed:
                tier.bind_table(self.pt, idx)
        tiers[0].add_pages(address_space.num_pages)
        self._byte_tier_indices = [
            i for i, t in enumerate(tiers) if isinstance(t, ByteAddressableTier)
        ]
        #: Pages that actually changed tier via the migration path.
        self.migrated_pages = 0
        #: Migration stores that failed after the source was read; the
        #: page stays (is restored) at its source, uncharged at the
        #: destination.
        self.failed_stores = 0
        self._clear_transient()

    # -- small helpers -------------------------------------------------------

    @property
    def page_location(self) -> np.ndarray:
        """Per-page tier index: the ``tier`` column (historical name)."""
        return self.pt.tier

    @property
    def last_access_window(self) -> np.ndarray:
        """Per-page recency, in profile windows -- the simulator's
        analogue of the page-table ACCESSED bit / swap LRU position:
        demotions skip recently touched pages (see :meth:`move_region`).
        The ``last_access`` column under its historical name."""
        return self.pt.last_access

    @property
    def dram(self) -> ByteAddressableTier:
        """The fastest byte-addressable tier (promotion target)."""
        return self.tiers[0]  # type: ignore[return-value]

    def tier_index(self, name: str) -> int:
        """Index of the tier called ``name`` (O(1); placement code asks
        per window)."""
        try:
            return self._tier_index[name]
        except KeyError:
            raise KeyError(f"no tier named {name!r}") from None

    def placement_counts(self) -> np.ndarray:
        """Application pages per tier, shape ``(len(tiers),)``.

        Read off the tiers' residency counters, O(tiers);
        :func:`repro.chaos.check_capacity` checks them against
        :meth:`PageTable.placement_counts`, a bincount of the ``tier``
        column.
        """
        return np.array(
            [
                tier.resident_pages if tier.is_compressed else tier.used_pages
                for tier in self.tiers
            ],
            dtype=np.int64,
        )

    def _page_levels(self) -> np.ndarray:
        """Per-page index into the distinct compressibility values.

        Built on first use and keyed by the identity of
        ``space.compressibility``: a replaced array rebuilds the index
        and drops the per-level tables.
        """
        comp = self.space.compressibility
        if self._level_source is not comp:
            self._level_values, self._page_level = np.unique(
                comp, return_inverse=True
            )
            self._level_source = comp
            self._level_csizes = None
            self._level_accepts = None
        return self._page_level

    def _level_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Admission and compressed size per ``(tier, level)``.

        Flat, at ``tier * levels + level``: a page's key into them is one
        multiply-add, and a wave gathers each table once.  ``accepts``
        says whether the tier takes a page of that level: a byte tier
        takes every page (at size 0), a compressed tier those zswap
        admits.
        """
        self._page_levels()
        if self._level_accepts is None:
            values = self._level_values
            accepts = np.ones((len(self.tiers), values.size), dtype=bool)
            csizes = np.zeros(accepts.shape, dtype=np.int64)
            for idx, tier in enumerate(self.tiers):
                if tier.is_compressed:
                    accepts[idx] = tier.accepts_many(values)
                    csizes[idx] = tier.algorithm.compressed_sizes(values)
            self._level_accepts, self._level_csizes = accepts.ravel(), csizes.ravel()
        return self._level_accepts, self._level_csizes

    def planning_tables(self) -> PlanningTables:
        """The placement ILP's per-region tables (paper §6.5-6.6).

        They depend only on the tiers and the regions' compressibility,
        so they are built on first use and kept until
        ``space.compressibility`` is replaced, the invalidation
        :meth:`_page_levels` uses.  The arrays are read-only: every
        window's problem shares them.
        """
        comp = self.space.compressibility
        if self._plan is None or self._plan[0] is not comp:
            from repro.core import perf, tco  # repro.core imports this module

            region_comp = self.space.region_compressibility()
            per_access = perf.per_access_penalty(self.tiers, region_comp)
            cost = tco.cost_matrix(self.tiers, region_comp)
            per_access.setflags(write=False)
            cost.setflags(write=False)
            tables = PlanningTables(
                per_access, cost, tco.tco_min(cost), tco.tco_max(cost)
            )
            self._plan = (comp, tables)
        return self._plan[1]

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        # Left out rather than pickled as None: the planning cache adds
        # no key to the pickled state, so checkpoint bytes are the same
        # as those of a system without it.
        del state["_plan"]
        return state

    def _level_keys(self, tier_idx, page_ids: np.ndarray) -> np.ndarray:
        """Keys of pages at ``tier_idx`` (a tier or one per page) into the
        flat :meth:`_level_tables`, once they are built."""
        return self._page_level[page_ids] + tier_idx * self._level_values.size

    def _tier_csizes(self, tier_idx: int, page_ids: np.ndarray) -> np.ndarray:
        """Per-page compressed sizes at ``tiers[tier_idx]``."""
        csizes = self._level_tables()[1]
        return csizes[self._level_keys(tier_idx, page_ids)]

    def _tier_accepts(self, tier_idx: int, page_ids: np.ndarray) -> np.ndarray:
        """Per-page admission at ``tiers[tier_idx]`` (zswap's at a compressed
        tier; a byte tier takes every page)."""
        accepts = self._level_tables()[0]
        return accepts[self._level_keys(tier_idx, page_ids)]

    # -- access path ----------------------------------------------------------

    def access_batch(
        self, counts: np.ndarray, write_fraction: float = 0.0
    ) -> BatchResult:
        """Simulate a batch of page accesses.

        Within the batch, the first access to a compressed page pays the
        fault latency and promotes the page; its remaining accesses are then
        served from the promotion target -- the unit the paper's Eq. 4
        charges as ``MemAcc_CT * (Lat_CT + Lat_TD)``.

        Args:
            counts: Accesses per page, ``counts[p]`` to page ``p``; a
                vector shorter than the address space leaves the pages
                past its end untouched.
            write_fraction: Fraction of accesses that are stores.

        Returns:
            A :class:`BatchResult`; timing is also accumulated on the
            system's virtual clock.
        """
        result = BatchResult()
        counts = np.asarray(counts)
        # numpy's nonzero on an integer array is the slow form (~2x a
        # comparison plus nonzero on the boolean).
        pages = np.flatnonzero(counts != 0)
        if not pages.size:
            return result
        counts = counts[pages]
        self.last_access_window[pages] = self.current_window
        tiers = self.tiers
        locations = self.page_location[pages]
        # Accesses per tier.  Nearly every touched page sits in
        # ``tiers[0]`` (DRAM): each other tier's pages are found by one
        # comparison pass (a compressed tier's faults need their
        # positions anyway) and ``tiers[0]`` takes the rest of the
        # total.  A weighted ``bincount`` is no faster, and slower on
        # large windows.
        total = int(counts.sum())
        on_tier = [np.flatnonzero(locations == idx) for idx in range(1, len(tiers))]
        per_tier = [int(counts[pos].sum()) for pos in on_tier]
        per_tier.insert(0, total - sum(per_tier))
        result.accesses = total
        self.clock.total_accesses += total
        self.clock.optimal_ns += total * self.dram.media.read_ns

        # Tiers in ascending index order, each tier's pages in
        # ascending page order.  Each tier contributes its clock terms
        # and its histogram entries, in that order.
        terms, latency, weight, faulted = [[0.0]], [], [], []
        for idx, n_accesses in enumerate(per_tier):
            if not n_accesses:
                continue
            tier = tiers[idx]
            if isinstance(tier, ByteAddressableTier):
                ns = tier.access_ns(n_accesses, write_fraction)
                tier.stats.accesses += n_accesses
                terms.append([ns])
                latency.append([ns / n_accesses])
                weight.append([n_accesses])
            else:
                pos = on_tier[idx - 1]
                page_ids = pages[pos]
                tier_terms, tier_weight = self._fault_pages(
                    tier, page_ids, counts[pos], write_fraction
                )
                entry = tier_weight > 0
                terms.append(tier_terms)
                latency.append(tier_terms[entry] / tier_weight[entry])
                weight.append(tier_weight[entry])
                faulted.append(page_ids)
        # One running sum from 0.0, left to right: float addition is not
        # associative, and these sums feed the byte-identical goldens.
        result.access_ns = float(np.add.accumulate(np.concatenate(terms))[-1])
        result.latency_ns = np.concatenate(latency)
        result.latency_count = np.concatenate(weight)
        if faulted:
            result.faulted_pages = np.concatenate(faulted)
            result.faults = result.faulted_pages.size
        self.clock.access_ns += result.access_ns
        return result

    def _fault_pages(
        self,
        tier: CompressedTier,
        page_ids: np.ndarray,
        counts: np.ndarray,
        write_fraction: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve accesses to pages resident in a compressed tier.

        Batched: the whole group is removed from the compressed tier in
        one bulk call, promotion targets are resolved by *capacity
        slices* (a filling DRAM tier spills the remainder of the batch
        to the next byte tier instead of failing mid-batch), and the
        latency model is evaluated elementwise over the group.

        Returns:
            ``(terms, weights)``: per page in order, its fault's
            nanoseconds (weight 1), then its remaining accesses'
            nanoseconds at the promotion target (weight: their count;
            0.0 at weight 0 when it has none).
        """
        n = len(page_ids)
        # Atomicity: refuse the batch before any state is charged, not
        # after earlier pages already mutated clock and stats.
        byte_free = sum(self.tiers[i].free_pages for i in self._byte_tier_indices)
        if byte_free < n:
            raise AllocationError(
                "no byte-addressable tier has room to promote a faulted page; "
                "size tiers[0] to hold the whole address space"
            )
        fault_ns = tier.remove_pages_bulk(page_ids, fault=True)
        tier.stats.accesses += n

        # Promotion targets by capacity slice: fill the fastest byte
        # tier with room, then re-resolve for the remainder.
        targets = np.empty(n, dtype=self.page_location.dtype)
        rest = np.maximum(counts - 1, 0)
        rest_ns = np.zeros(n, dtype=np.float64)
        start = 0
        while start < n:
            target_idx = self._promotion_target()
            target = self.tiers[target_idx]
            assert isinstance(target, ByteAddressableTier)
            take = min(n - start, target.free_pages)
            stop = start + take
            target.add_pages(take)
            targets[start:stop] = target_idx
            fault_ns[start:stop] += target.media.write_ns * _PAGE_CHUNKS
            slice_rest = int(rest[start:stop].sum())
            if slice_rest:
                # Per-page cost of the post-promotion accesses, exactly
                # as ``target.access_ns(rest, wf)`` computes it.
                per_access = target.media.read_ns * (
                    1.0 - write_fraction
                ) + target.media.write_ns * write_fraction
                rest_ns[start:stop] = rest[start:stop] * per_access
                target.stats.accesses += slice_rest
            start = stop
        self.page_location[page_ids] = targets
        # Interleaved per page: the fault, then the remaining accesses.
        terms = np.empty(2 * n)
        terms[0::2] = fault_ns
        terms[1::2] = rest_ns
        weights = np.ones(2 * n, dtype=rest.dtype)
        weights[1::2] = rest
        return terms, weights

    def _promotion_target(self) -> int:
        """Fastest byte-addressable tier with room for one more page."""
        for idx in self._byte_tier_indices:
            if self.tiers[idx].free_pages > 0:
                return idx
        raise AllocationError(
            "no byte-addressable tier has room to promote a faulted page; "
            "size tiers[0] to hold the whole address space"
        )

    # -- migration path --------------------------------------------------------

    def resolve_destination(self, page_id: int, dst_idx: int) -> int:
        """Where a page would actually land if sent to ``dst_idx``.

        A compressed destination that would reject the page (incompressible
        data, paper §3.3) or that is at pool capacity refuses the store,
        like real zswap: the page stays where it is if it is already byte
        addressable, or lands in the fastest byte tier with room if it was
        being moved out of another compressed tier.
        """
        dst = self.tiers[dst_idx]
        if isinstance(dst, CompressedTier):
            intrinsic = float(self.space.compressibility[page_id])
            if not dst.accepts(intrinsic) or dst.free_pages <= 0:
                src_idx = int(self.page_location[page_id])
                if isinstance(self.tiers[src_idx], ByteAddressableTier):
                    return src_idx
                return self._promotion_target()
        return dst_idx

    def move_page(self, page_id: int, dst_idx: int) -> float:
        """Migrate one page; returns daemon nanoseconds charged.

        Byte-to-byte moves stream the 4 KB page; moves into a compressed
        tier compress it; moves out decompress it; compressed-to-compressed
        does both (the paper's naive path) -- unless
        :attr:`fast_same_algo_migration` is on and the two tiers share an
        algorithm, in which case only the compressed bytes stream between
        the backing media.  A page already at ``dst_idx`` costs nothing,
        even in a full compressed tier: it is not a store to refuse.
        """
        src_idx = int(self.page_location[page_id])
        if src_idx == dst_idx:
            return 0.0
        dst_idx = self.resolve_destination(page_id, dst_idx)
        if src_idx == dst_idx:
            return 0.0
        src = self.tiers[src_idx]
        dst = self.tiers[dst_idx]
        # Validate the destination *before* touching the source so a
        # refused move leaves the system unchanged.
        if isinstance(dst, ByteAddressableTier) and dst.free_pages < 1:
            raise AllocationError(
                f"tier {dst.name} over capacity: cannot accept page "
                f"{page_id} ({dst.used_pages}/{dst.capacity_pages})"
            )
        intrinsic = float(self.space.compressibility[page_id])
        ns = 0.0
        if (
            self.fast_same_algo_migration
            and isinstance(src, CompressedTier)
            and isinstance(dst, CompressedTier)
            and src.algorithm.name == dst.algorithm.name
        ):
            try:
                ns += self._move_compressed_object(page_id, src, dst, intrinsic)
            except AllocationError:
                # Same failure mode as the slow path below: the source
                # object is already gone, so put the page back where it
                # came from before reporting the move as a no-op.
                restore_ns, final_idx = self._restore_source(
                    page_id, src_idx, intrinsic
                )
                ns += restore_ns
                self.failed_stores += 1
                if final_idx != src_idx:
                    self.page_location[page_id] = final_idx
                    self.migrated_pages += 1
                self.clock.migration_ns += ns
                return ns
            self.page_location[page_id] = dst_idx
            self.migrated_pages += 1
            self.clock.migration_ns += ns
            return ns
        if isinstance(src, CompressedTier):
            ns += src.remove_page(page_id)
        else:
            src.remove_pages(1)
            ns += src.media.read_ns * _PAGE_CHUNKS
        if isinstance(dst, CompressedTier):
            try:
                ns += dst.store_page(page_id, intrinsic)
            except AllocationError:
                # The store failed after the source was already read
                # (capacity raced away mid-wave, e.g. a shock).  Undo the
                # source removal so the page is never charged to a tier
                # that does not hold it; the wasted copy work still
                # counts as daemon time.
                restore_ns, final_idx = self._restore_source(
                    page_id, src_idx, intrinsic
                )
                ns += restore_ns
                self.failed_stores += 1
                if final_idx != src_idx:
                    self.page_location[page_id] = final_idx
                    self.migrated_pages += 1
                self.clock.migration_ns += ns
                return ns
        else:
            dst.add_pages(1)
            ns += dst.media.write_ns * _PAGE_CHUNKS
        self.page_location[page_id] = dst_idx
        self.migrated_pages += 1
        self.clock.migration_ns += ns
        return ns

    def _restore_source(
        self, page_id: int, src_idx: int, intrinsic: float
    ) -> tuple[float, int]:
        """Put a page back where a failed migration took it from.

        Returns ``(nanoseconds, tier index)`` of where the page actually
        landed: normally the source itself (recompress-and-store for a
        compressed source, a page write-back for a byte source).  A
        compressed source that meanwhile lost the capacity to re-admit
        the page (its pool page was reclaimed under a shock) falls back
        to the fastest byte tier -- the kernel's own fallback for an
        unstorable page -- which by the system invariant always has
        room.
        """
        src = self.tiers[src_idx]
        if isinstance(src, CompressedTier):
            try:
                return src.store_page(page_id, intrinsic), src_idx
            except AllocationError:
                promo_idx = self._promotion_target()
                target = self.tiers[promo_idx]
                target.add_pages(1)
                return target.media.write_ns * _PAGE_CHUNKS, promo_idx
        src.add_pages(1)
        return src.media.write_ns * _PAGE_CHUNKS, src_idx

    def _move_compressed_object(
        self, page_id: int, src: CompressedTier, dst: CompressedTier, intrinsic: float
    ) -> float:
        """§7.1 fast path: stream the compressed object, no codec work."""
        import math

        csize = src.algorithm.compressed_size(intrinsic)
        chunks = math.ceil(csize / CHUNK_BYTES)
        ns = (
            src.allocator.mgmt_overhead_ns
            + dst.allocator.mgmt_overhead_ns
            + src.media.read_ns * chunks
            + dst.media.write_ns * chunks
        )
        # Bookkeeping still goes through the normal store/remove calls,
        # but the codec cost those methods return is discarded in favour
        # of the streaming cost computed above.
        src.remove_page(page_id)
        dst.store_page(page_id, intrinsic)
        return ns

    def move_region(
        self, region_id: int, dst_idx: int, recency_windows: int = 0
    ) -> float:
        """Migrate every page of a 2 MB region; returns daemon nanoseconds.

        A one-region :meth:`move_regions` wave.

        Args:
            region_id: Region to move.
            dst_idx: Destination tier index.
            recency_windows: When moving into a *compressed* tier, skip
                pages accessed within the last this-many profile windows --
                the analogue of zswap only taking pages from the inactive
                LRU (a recently touched page would fault straight back).
                Byte-addressable destinations always take every page: a
                warm page in NVMM is served in place, which is exactly the
                HeMem-style trade the paper's baselines make.  0 moves
                everything.
        """
        return self.move_regions([(region_id, dst_idx)], recency_windows).region_ns[0]

    def move_regions(self, wave, recency_windows: int = 0) -> WaveResult:
        """Migrate a wave of regions in order (one TS-Daemon wave).

        Exactly ``[self.move_region(r, d, recency_windows) for r, d in
        wave]``, as one batched pass: region pages, the recency filter,
        admission, grouping, the latency model and the statistics are
        computed once, and each compressed tier's allocator calls are
        merged into same-kind runs (:meth:`_move_wave`).  A wave the
        pass cannot take (its capacity proof fails or it names a region
        twice) moves each region's pages one at a time.

        Args:
            wave: ``(region_id, dst_idx)`` pairs, in execution order.
            recency_windows: As for :meth:`move_region`.
        """
        if not wave:
            return WaveResult([], 0, False)
        regions = self.space.regions
        region_ids = [int(r) for r, _ in wave]
        dsts = [int(d) for _, d in wave]
        if min(region_ids) < 0 or max(region_ids) >= len(regions):
            raise IndexError(f"region index out of range in wave {wave}")
        page_ids = (
            np.array(region_ids)[:, None] * PAGES_PER_REGION + _REGION_PAGES
        ).ravel()
        sizes = [PAGES_PER_REGION] * len(wave)
        if recency_windows > 0:
            to_compressed = [self.tiers[d].is_compressed for d in dsts]
            if any(to_compressed):
                cutoff = self.current_window - recency_windows
                skip = self.last_access_window[page_ids] > cutoff
                skip &= np.repeat(to_compressed, PAGES_PER_REGION)
                if skip.any():
                    page_ids = page_ids[~skip]
                    sizes = (
                        PAGES_PER_REGION - skip.reshape(len(wave), -1).sum(axis=1)
                    ).tolist()
        # Regions in ascending order cover distinct, ascending pages.
        distinct = all(a < b for a, b in zip(region_ids, region_ids[1:]))
        result = self._migrate_groups(page_ids, dsts, sizes, distinct)
        regions.table.region_assigned[region_ids] = dsts
        return result

    def _move_pages_scalar(self, page_ids: np.ndarray, dst_idx: int) -> float:
        """Reference per-page move path (exact historical semantics).

        The fallback of :meth:`_migrate_groups`, and the oracle the
        property tests hold the batched pass to.
        """
        ns = 0.0
        for pid in page_ids.tolist():
            ns += self.move_page(pid, dst_idx)
        return ns

    def _migrate_groups(
        self,
        page_ids: np.ndarray,
        dsts: list[int],
        sizes: list[int],
        distinct: bool = False,
    ) -> WaveResult:
        """Consecutive groups of page moves, as :meth:`_move_wave` takes
        them: one batched pass or, when the pass cannot take them, each
        group's movers (pages not already at its destination) one page
        at a time."""
        result = self._move_wave(page_ids, dsts, sizes, distinct)
        if result is not None:
            return result
        group_ns = []
        stop = 0
        for dst_idx, size in zip(dsts, sizes):
            start, stop = stop, stop + size
            group = page_ids[start:stop]
            movers = group[self.page_location[group] != dst_idx]
            group_ns.append(self._move_pages_scalar(movers, dst_idx))
        return WaveResult(group_ns, 0, True)

    def _move_wave(
        self,
        page_ids: np.ndarray,
        dsts: list[int],
        sizes: list[int],
        distinct: bool = False,
    ) -> WaveResult | None:
        """One batched pass over consecutive groups of page moves.

        Group ``g`` is the next ``sizes[g]`` entries of ``page_ids``,
        moving to ``dsts[g]``.  The result is that of one
        :meth:`_move_pages_scalar` call per group, in order:

        * **Allocator runs.** Within a group a compressed tier is either
          a source (frees) or the destination (one store), never both,
          and tiers own separate allocators.  So each tier's ops, in
          group order, are replayed as maximal same-kind runs: one
          ``free_ids`` per run of frees, one ``store_ids`` per run of
          stores, each in page order (object ids and zspage packing
          are order-sensitive).  Every source tier's membership columns
          are detached first, so a page's store never precedes the read
          of its old object.
        * **Capacity proof, once.** No store may find its tier full or
          its arena exhausted: per compressed tier, the stores'
          :meth:`~repro.allocators.base.PoolAllocator.store_bound`
          summed over its store runs must keep ``used_pages`` below
          capacity and fit the arena.  Frees only add room, so the
          proof ignores them.  Byte tiers must have room for every page
          they receive, rejected pages included: those promote to the
          fastest byte tier with room (``tiers[0]``, which can hold the
          whole address space).
        * **Latency.** Each page costs what :meth:`move_page` charges:
          a byte tier streams the whole page, a compressed tier charges
          its own codec latency for the object, and with
          :attr:`fast_same_algo_migration` a copy between two compressed
          tiers of one algorithm charges the §7.1 object copy
          (:meth:`~repro.mem.tier.CompressedTier.csize_copy_ns`).
        * **Clock.** Per-page costs are summed left to right: per group
          from 0.0, and onto the clock across the whole pass, so every
          float sum equals the per-page loop's.

        Args:
            distinct: The caller guarantees no page occurs twice.

        Returns:
            The pass's :class:`WaveResult` (one ``region_ns`` entry per
            group), or ``None``, having changed nothing, when the proof
            fails or a page occurs twice.
        """
        if not distinct and _repeats(page_ids):
            return None
        tiers = self.tiers
        n_tiers = len(tiers)
        locations = self.page_location[page_ids]
        dst_of = np.repeat(dsts, sizes)
        # Only the movers are gathered: a page already at its group's
        # destination costs nothing.
        moving = np.flatnonzero(locations != dst_of)
        pids, srcs, dst_of = page_ids[moving], locations[moving], dst_of[moving]
        copies = None
        if any(tiers[d].is_compressed for d in dsts):
            # -- admission, one gather on the flat (tier, level) key: a
            # page a compressed destination rejects stays put (0 ns) when
            # it sits in a byte tier, and promotes otherwise
            accepts, csizes = self._level_tables()
            keys = self._level_keys(dst_of, pids)
            taken = accepts[keys]
            if not taken.all():
                compressed = np.array([tier.is_compressed for tier in tiers])
                moves = taken | compressed[srcs]
                if not moves.all():
                    moving, pids, srcs = moving[moves], pids[moves], srcs[moves]
                    dst_of, keys, taken = dst_of[moves], keys[moves], taken[moves]
                if not taken.all():
                    promo_idx = next(
                        (i for i in self._byte_tier_indices if tiers[i].free_pages > 0),
                        None,
                    )
                    if promo_idx is None:
                        return None
                    dst_of = np.where(taken, dst_of, promo_idx)
            if self.fast_same_algo_migration:
                # §7.1: a page stored between two tiers of one algorithm
                # is copied, not recompressed.
                algo = [t.algorithm.name if t.is_compressed else None for t in tiers]
                same = np.array([a is not None and a == b for a in algo for b in algo])
                copies = np.flatnonzero(taken & same[srcs * n_tiers + dst_of])
        n = pids.size
        if n == 0:
            return WaveResult([0.0] * len(dsts), 0, False)
        # Group g's movers are positions bounds[g] to bounds[g + 1].
        bounds = moving.searchsorted(list(accumulate(sizes, initial=0))).tolist()

        # -- capacity proof, before any state changes
        src_counts = np.bincount(srcs, minlength=n_tiers).tolist()
        dst_counts = np.bincount(dst_of, minlength=n_tiers).tolist()
        for t_idx in self._byte_tier_indices:
            adds = dst_counts[t_idx]
            if adds and adds > tiers[t_idx].free_pages:
                return None
        frees = {
            t_idx: np.flatnonzero(srcs == t_idx)
            for t_idx, count in enumerate(src_counts)
            if count and tiers[t_idx].is_compressed
        }
        stores = {
            t_idx: np.flatnonzero(dst_of == t_idx)
            for t_idx, count in enumerate(dst_counts)
            if count and tiers[t_idx].is_compressed
        }
        # Per store tier, its stores' compressed sizes; a run is a slice.
        store_cs = {t_idx: csizes[keys[pos]] for t_idx, pos in stores.items()}
        runs = []
        for t_idx in sorted(frees.keys() | stores.keys()):
            tier = tiers[t_idx]
            tier_runs = _same_kind_runs(
                frees.get(t_idx, _NO_POSITIONS),
                stores.get(t_idx, _NO_POSITIONS),
                bounds,
            )
            if t_idx in stores and not tier.allocator.stores_fit(
                [store_cs[t_idx][a:b] for is_store, a, b in tier_runs if is_store],
                tier.capacity_pages - tier.used_pages,
            ):
                return None
            runs.extend((t_idx, *run) for run in tier_runs)

        # -- membership out, then allocator runs, each tier's in order
        removed = {
            t_idx: tiers[t_idx].detach_pages_bulk(pids[pos])
            for t_idx, pos in frees.items()
        }
        stored = {t_idx: pids[pos] for t_idx, pos in stores.items()}
        for t_idx, is_store, a, b in runs:
            tier = tiers[t_idx]
            if is_store:
                tier.store_prepared_bulk(stored[t_idx][a:b], store_cs[t_idx][a:b])
            else:
                cs, ids = removed[t_idx]
                tier.allocator.free_ids(ids[a:b], cs[a:b])

        # -- byte-tier residency (removals first: the proof gave every
        # byte tier room for all its additions)
        for t_idx, count in enumerate(src_counts):
            if count and not tiers[t_idx].is_compressed:
                tiers[t_idx].remove_pages(count)
        for t_idx, count in enumerate(dst_counts):
            if count and not tiers[t_idx].is_compressed:
                tiers[t_idx].add_pages(count)
        # -- statistics of the compressed tiers and move_page's latency
        # model: a byte tier streams the whole page, a compressed tier
        # charges its own csize_fault_ns / csize_store_ns
        page_read = np.array([tier.media.read_ns for tier in tiers]) * _PAGE_CHUNKS
        page_write = np.array([tier.media.write_ns for tier in tiers]) * _PAGE_CHUNKS
        load_ns = page_read[srcs]
        write_ns = page_write[dst_of]
        for t_idx, pos in frees.items():
            tier = tiers[t_idx]
            cs = removed[t_idx][0]
            tier.stats.pages_out += pos.size
            tier.stats.compressed_bytes -= int(cs.sum())
            load_ns[pos] = tier.csize_fault_ns(cs)
        for t_idx, pos in stores.items():
            tier = tiers[t_idx]
            cs = store_cs[t_idx]
            tier.stats.pages_in += pos.size
            tier.stats.stores += pos.size
            tier.stats.compressed_bytes += int(cs.sum())
            write_ns[pos] = tier.csize_store_ns(cs)
        per_ns = load_ns + write_ns
        if copies is not None and copies.size:
            pairs = srcs[copies].astype(np.int64) * n_tiers + dst_of[copies]
            for pair in np.unique(pairs).tolist():
                pos = copies[pairs == pair]
                src_idx, dst_idx = divmod(pair, n_tiers)
                per_ns[pos] = tiers[src_idx].csize_copy_ns(
                    tiers[dst_idx], csizes[self._level_keys(src_idx, pids[pos])]
                )

        # -- final placement + ordered clock accumulation
        self.page_location[pids] = dst_of
        self.migrated_pages += n
        # ``accumulate`` adds strictly left to right: the same float sums
        # as adding each page's cost in order.
        self.clock.migration_ns = float(
            np.add.accumulate(np.append(self.clock.migration_ns, per_ns))[-1]
        )
        # Each group's sum adds left to right from its first page, as
        # the per-page loop does from 0.0 for its region (costs are
        # positive, so 0.0 + x == x).
        group_ns = [
            float(np.add.accumulate(per_ns[a:b])[-1]) if b > a else 0.0
            for a, b in zip(bounds, bounds[1:])
        ]
        return WaveResult(group_ns, len(runs), False)

    def advance_window(self) -> None:
        """Tick the recency clock; the daemon calls this once per window."""
        self.current_window += 1

    # -- TCO (Eq. 8 / Eq. 10) ---------------------------------------------------

    def tco(self) -> float:
        """Current memory TCO in relative $ (actual pool occupancy)."""
        return sum(tier.cost() for tier in self.tiers)

    def tco_max(self) -> float:
        """TCO with everything in DRAM (Eq. 1's ``TCO_max``)."""
        return self.space.num_pages * self.dram.media.cost_per_page

    def tco_savings(self, tco: float | None = None) -> float:
        """Fractional TCO savings vs all-DRAM.

        ``tco`` is a :meth:`tco` result the caller already holds; it
        saves a second pass over the tiers.
        """
        if tco is None:
            tco = self.tco()
        return 1.0 - tco / self.tco_max()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        placement = self.placement_counts()
        return "TieredMemorySystem(" + ", ".join(
            f"{t.name}={placement[i]}" for i, t in enumerate(self.tiers)
        ) + ")"
