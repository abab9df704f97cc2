"""Property-based fuzzing of the memory system and failure injection.

The central invariants a tiered memory system must never break, under
*any* interleaving of accesses, migrations and faults:

1. page conservation -- every page is in exactly one tier;
2. accounting consistency -- tier-side counters match the location map;
3. cost sanity -- TCO is positive and never exceeds the all-DRAM bound
   (pool fragmentation included, since a pool page is never larger than
   the objects it holds);
4. clock monotonicity -- virtual time only moves forward.

All four are asserted by :func:`repro.chaos.invariants.check_capacity`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators import AllocationError, ZsmallocAllocator
from repro.chaos.invariants import check_capacity
from repro.compression.registry import algorithm
from repro.mem.address_space import AddressSpace
from repro.mem.media import DRAM, NVMM
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import ByteAddressableTier, CompressedTier

from tests.conftest import make_tiers


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_operations_preserve_invariants(data):
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=11)
    system = TieredMemorySystem(make_tiers(space), space)
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    num_ops = data.draw(st.integers(1, 25))
    for _ in range(num_ops):
        op = data.draw(st.sampled_from(["access", "move_page", "move_region", "window"]))
        if op == "access":
            batch = rng.integers(0, space.num_pages, size=200)
            system.access_batch(np.bincount(batch), write_fraction=rng.random() * 0.5)
        elif op == "move_page":
            system.move_page(
                int(rng.integers(0, space.num_pages)),
                int(rng.integers(0, len(system.tiers))),
            )
        elif op == "move_region":
            system.move_region(
                int(rng.integers(0, space.num_regions)),
                int(rng.integers(0, len(system.tiers))),
                recency_windows=int(rng.integers(0, 3)),
            )
        else:
            system.advance_window()
        check_capacity(system)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_daemon_run_preserves_invariants(seed):
    from repro.core.daemon import TSDaemon
    from repro.core.placement.waterfall import WaterfallModel
    from repro.workloads.masim import MasimWorkload

    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=seed)
    system = TieredMemorySystem(make_tiers(space), space)
    daemon = TSDaemon(system, WaterfallModel(50.0), sampling_rate=5, seed=seed)
    workload = MasimWorkload(
        num_pages=space.num_pages, ops_per_window=2000, seed=seed
    )
    for _ in range(4):
        daemon.run_window(workload.next_window())
        check_capacity(system)


class TestCheckCapacityFlagsCorruption:
    """States the residency/accounting checks alone would let through."""

    @pytest.fixture
    def compressed(self, system):
        system.move_region(0, 2)  # give the compressed tier a pool
        check_capacity(system)
        return system

    def test_pool_beyond_four_pages_per_resident(self, compressed):
        tier = compressed.tiers[2]
        tier.allocator._pool_pages = 4 * tier.resident_pages + 1
        with pytest.raises(AssertionError, match="pool spans"):
            check_capacity(compressed)

    @pytest.mark.parametrize("clock_field", ["access_ns", "migration_ns"])
    def test_negative_clock(self, compressed, clock_field):
        setattr(compressed.clock, clock_field, -1.0)
        with pytest.raises(AssertionError, match="negative clock"):
            check_capacity(compressed)


class TestFailureInjection:
    def test_pool_capacity_exhaustion_redirects_not_crashes(self):
        """A compressed tier at pool capacity refuses stores; migration
        must degrade gracefully (pages stay byte-addressable)."""
        space = AddressSpace(PAGES_PER_REGION, "nci", seed=1)
        n = space.num_pages
        tiny_ct = CompressedTier(
            "CT",
            algorithm("lzo"),
            ZsmallocAllocator(arena_pages=1 << 10),
            DRAM,
            capacity_pages=4,  # absurdly small pool
        )
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
            tiny_ct,
        ]
        system = TieredMemorySystem(tiers, space)
        system.move_region(0, 2)  # wants all 512 pages in the pool
        counts = system.placement_counts()
        assert counts.sum() == n
        # Soft cap: like the kernel's pools, the last store may overshoot
        # by at most one zspage (4 pages).
        assert tiny_ct.used_pages <= 4 + 3
        # The overflow stayed in DRAM (zswap store refusal).
        assert counts[0] > 0
        check_capacity(system)

    def test_arena_exhaustion_surfaces_as_allocation_error(self):
        pool = ZsmallocAllocator(arena_pages=4)
        with pytest.raises(AllocationError):
            for _ in range(100):
                pool.store(4096)

    def test_byte_tier_overflow_detected(self):
        space = AddressSpace(PAGES_PER_REGION, "mixed", seed=2)
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=space.num_pages),
            ByteAddressableTier("NVMM", NVMM, capacity_pages=2),
        ]
        system = TieredMemorySystem(tiers, space)
        system.move_page(0, 1)
        system.move_page(1, 1)
        with pytest.raises(AllocationError, match="over capacity"):
            system.move_page(2, 1)
        check_capacity(system)

    def test_infeasible_ilp_budget_degrades_to_cheapest(self, system):
        """With capacity constraints making the budget unreachable, the
        analytical model still returns a recommendation (flagged
        infeasible) instead of crashing the daemon."""
        from repro.core.knob import Knob
        from repro.core.placement.analytical import AnalyticalModel
        from repro.telemetry.window import ProfileRecord

        model = AnalyticalModel(
            Knob(0.0), backend="scipy", use_capacity=True
        )
        record = ProfileRecord(
            window=0,
            hotness=np.array([5.0, 3.0, 1.0, 0.0]),
            window_samples=9,
            sampling_rate=100,
        )
        moves = model.recommend(record, system)
        assert set(moves) == set(range(system.space.num_regions))

    def test_empty_window_is_harmless(self, system):
        from repro.core.daemon import TSDaemon
        from repro.core.placement.waterfall import WaterfallModel

        daemon = TSDaemon(system, WaterfallModel(50.0), sampling_rate=1)
        record = daemon.run_window(np.empty(0, dtype=np.int64))
        assert record.accesses == 0
        check_capacity(system)


# -- pool invariants and the arena bound ---------------------------------------


def _arena_bound_system(seed: int) -> TieredMemorySystem:
    """An 8-region space over DRAM and a 1024-page lzo/zsmalloc tier
    whose arena holds only 512 frames, so the arena fills while the
    pool's page count is still below capacity."""
    from repro.bench.configs import make_compressed_tier

    space = AddressSpace(8 * PAGES_PER_REGION, "mixed", seed=seed)
    tiers = [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=space.num_pages),
        make_compressed_tier("CT", "lzo", "zsmalloc", DRAM, 1024, arena_pages=512),
    ]
    return TieredMemorySystem(tiers, space)


def _fill_arena(system, reference, seed: int, steps: int = 100) -> None:
    """Move random sorted 1-63-page chunks into the compressed tier,
    batched on ``system`` and page by page on ``reference``."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        pids = np.sort(
            rng.choice(system.space.num_pages, rng.integers(1, 64), replace=False)
        ).astype(np.int64)
        system._migrate_groups(pids, [1], [pids.size])
        if reference is not None:
            reference._move_pages_scalar(pids, 1)


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_bulk_moves_into_full_arena_match_scalar(seed):
    """Bulk stores into a zsmalloc tier whose arena runs out fall
    back to the per-page path: the same pages fail to store, and the
    pool stays consistent."""
    import copy

    system = _arena_bound_system(seed)
    reference = copy.deepcopy(system)
    _fill_arena(system, reference, seed)
    assert reference.failed_stores > 0
    assert system.failed_stores == reference.failed_stores
    assert np.array_equal(system.page_location, reference.page_location)
    assert system.migrated_pages == reference.migrated_pages
    got, want = system.tiers[1], reference.tiers[1]
    assert got.stats.snapshot() == want.stats.snapshot()
    for name in ("stored_objects", "stored_bytes", "pool_pages", "_next_id"):
        assert getattr(got.allocator, name) == getattr(want.allocator, name)
    assert got.allocator._partial.keys() == want.allocator._partial.keys()
    check_capacity(system)


def test_check_capacity_catches_an_overcounted_pool(monkeypatch):
    """Without the arena bound the batch runs the arena dry mid-store,
    leaving objects counted that no page holds; the pool check fails."""
    monkeypatch.setattr(ZsmallocAllocator, "arena_fits", lambda self, pages: True)
    system = _arena_bound_system(0)
    with pytest.raises(AllocationError):
        _fill_arena(system, None, 0)
    with pytest.raises(AssertionError, match="objects stored"):
        check_capacity(system)


def _zsmalloc_system() -> TieredMemorySystem:
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=3)
    system = TieredMemorySystem(make_tiers(space), space)
    for region in range(space.num_regions):
        system.move_region(region, 2)
    check_capacity(system)
    return system


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("count", "zspage counts"),
        ("unstack", "partial stacks"),
        ("stack_full", "partial stacks"),
        ("stack_twice", "stacked twice"),
        ("pool_pages", "pool pages"),
        ("frames", "frames differ"),
        ("arena", "exceed its arena"),
    ],
)
def test_check_capacity_catches_a_corrupted_zsmalloc_pool(corrupt, message):
    system = _zsmalloc_system()
    pool = system.tiers[2].allocator
    n = pool._n_slots
    count, capacity = pool._zs_count[:n], pool._zs_capacity[:n]
    stacked = np.flatnonzero(pool._zs_stack[:n] >= 0)
    full = np.flatnonzero(count == capacity)
    assert stacked.size >= 2 and full.size
    if corrupt == "count":
        count[full[0]] -= 1
    elif corrupt == "unstack":
        pool._zs_stack[stacked[0]] = -1
    elif corrupt == "stack_full":
        pool._zs_stack[full[0]] = pool._stack_seq
    elif corrupt == "stack_twice":
        pool._zs_stack[stacked[0]] = pool._zs_stack[stacked[1]]
    elif corrupt == "pool_pages":
        pool._pool_pages += 1
    elif corrupt == "frames":
        # One zspage claims a frame more than its class's geometry, and
        # the pool counts it: only the per-class frame check sees it.
        pool._zs_pages[full[0]] += 1
        pool._pool_pages += 1
    else:
        pool.arena_pages = pool.pool_pages - 1
    with pytest.raises(AssertionError, match=message):
        check_capacity(system)
