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
            system.access_batch(batch, write_fraction=rng.random() * 0.5)
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
