"""Tests for byte-addressable and compressed tiers."""

import pytest

from repro.allocators import AllocationError, ZbudAllocator, ZsmallocAllocator
from repro.compression.registry import algorithm
from repro.mem.media import DRAM, NVMM
from repro.mem.page import PAGE_SIZE
from repro.mem.tier import REJECT_RATIO, ByteAddressableTier, CompressedTier


def make_ct(algo="lzo", allocator=None, media=DRAM, capacity=4096):
    return CompressedTier(
        name="CT",
        algorithm=algorithm(algo),
        allocator=allocator or ZsmallocAllocator(arena_pages=1 << 13),
        media=media,
        capacity_pages=capacity,
    )


class TestByteTier:
    def test_add_remove(self):
        tier = ByteAddressableTier("DRAM", DRAM, capacity_pages=10)
        tier.add_pages(7)
        assert tier.used_pages == 7
        assert tier.free_pages == 3
        tier.remove_pages(5)
        assert tier.used_pages == 2

    def test_capacity_enforced(self):
        tier = ByteAddressableTier("DRAM", DRAM, capacity_pages=4)
        tier.add_pages(4)
        with pytest.raises(AllocationError, match="over capacity"):
            tier.add_pages(1)

    def test_remove_more_than_resident(self):
        tier = ByteAddressableTier("DRAM", DRAM, capacity_pages=4)
        with pytest.raises(AllocationError):
            tier.remove_pages(1)

    def test_access_latency(self):
        tier = ByteAddressableTier("NVMM", NVMM, capacity_pages=4)
        assert tier.access_ns(10) == pytest.approx(10 * NVMM.read_ns)
        mixed = tier.access_ns(10, write_fraction=0.5)
        assert mixed == pytest.approx(5 * NVMM.read_ns + 5 * NVMM.write_ns)

    def test_cost_tracks_usage(self):
        tier = ByteAddressableTier("DRAM", DRAM, capacity_pages=100)
        tier.add_pages(50)
        assert tier.cost() == pytest.approx(50 * DRAM.cost_per_page)

    def test_expected_page_cost_is_media_cost(self):
        tier = ByteAddressableTier("NVMM", NVMM, capacity_pages=4)
        assert tier.expected_page_cost(0.5) == NVMM.cost_per_page


class TestCompressedTierStore:
    def test_store_and_remove(self):
        ct = make_ct()
        ns = ct.store_page(42, intrinsic=0.4)
        assert ns > 0
        assert ct.contains(42)
        assert ct.resident_pages == 1
        assert ct.stats.stores == 1
        out_ns = ct.remove_page(42)
        assert out_ns > 0
        assert not ct.contains(42)
        assert ct.used_pages == 0

    def test_double_store_rejected(self):
        ct = make_ct()
        ct.store_page(1, 0.4)
        with pytest.raises(AllocationError, match="already stored"):
            ct.store_page(1, 0.4)

    def test_remove_missing_rejected(self):
        ct = make_ct()
        with pytest.raises(AllocationError, match="not stored"):
            ct.remove_page(9)

    def test_incompressible_rejected(self):
        """Paper footnote 1: zswap rejects near-incompressible objects."""
        ct = make_ct(algo="lz4")  # weak algorithm
        assert not ct.accepts(0.98)
        with pytest.raises(AllocationError, match="rejects"):
            ct.store_page(1, 0.98)

    def test_capacity_enforced(self):
        ct = make_ct(capacity=1)
        ct.store_page(0, 0.3)
        with pytest.raises(AllocationError, match="capacity"):
            ct.store_page(1, 0.3)

    def test_fault_counts_only_on_faults(self):
        ct = make_ct()
        ct.store_page(5, 0.4)
        ct.remove_page(5)  # daemon migration
        assert ct.stats.faults == 0
        ct.store_page(5, 0.4)
        ct.remove_page(5, fault=True)
        assert ct.stats.faults == 1


class TestCompressedTierBulk:
    @pytest.mark.parametrize("ids, left", [([3, 5, 5, 9], 1), ([9, 5, 3, 5], 0)])
    def test_repeated_id_pops_like_sequential_calls(self, ids, left):
        """A repeated page id (sorted or not) fails at its second pop,
        with the pops before it committed, as one call per id would."""
        import numpy as np

        tier = make_ct()
        tier.store_prepared_bulk(np.array([3, 5, 9]), np.array([900, 1200, 300]))
        with pytest.raises(AllocationError):
            tier.remove_pages_bulk(np.array(ids))
        assert tier.resident_pages == tier.allocator.stored_objects == left

    def test_strictly_increasing_ids_pop_in_bulk(self):
        import numpy as np

        tier = make_ct()
        tier.store_prepared_bulk(np.array([2, 4, 8]), np.array([900, 1200, 300]))
        sizes, ids = tier.detach_pages_bulk(np.array([2, 8]))
        assert sizes.tolist() == [900, 300]
        # Detached pages leave the tier; their objects stay allocated.
        assert tier.resident_pages == 1
        assert tier.allocator.stored_objects == 3
        tier.allocator.free_ids(ids, sizes)
        assert tier.allocator.stored_objects == 1
        with pytest.raises(AllocationError):
            tier.detach_pages_bulk(np.array([4, 8]))
        assert tier.resident_pages == 1


class TestCompressedTierLatencyModel:
    def test_algorithm_dominates(self):
        """Figure 2a: deflate tiers are slower than lz4 tiers."""
        fast = make_ct(algo="lz4")
        slow = make_ct(algo="deflate")
        assert slow.fault_latency_ns(intrinsic=0.4) > fast.fault_latency_ns(
            intrinsic=0.4
        )

    def test_backing_media_adds_latency(self):
        """Figure 2a: Optane-backed tiers are slower than DRAM-backed."""
        dram_ct = make_ct(media=DRAM)
        nvmm_ct = make_ct(media=NVMM)
        assert nvmm_ct.fault_latency_ns(intrinsic=0.4) > dram_ct.fault_latency_ns(
            intrinsic=0.4
        )

    def test_allocator_overhead_visible(self):
        """Figure 2a: zbud lookups beat zsmalloc lookups."""
        zbud_ct = make_ct(allocator=ZbudAllocator(arena_pages=1 << 13))
        zsm_ct = make_ct(allocator=ZsmallocAllocator(arena_pages=1 << 13))
        assert zbud_ct.fault_latency_ns(intrinsic=0.4) < zsm_ct.fault_latency_ns(
            intrinsic=0.4
        )

    def test_stored_page_uses_actual_size(self):
        ct = make_ct()
        ct.store_page(3, 0.1)
        small = ct.fault_latency_ns(page_id=3)
        big = ct.fault_latency_ns(intrinsic=0.9)
        assert small < big

    def test_requires_page_or_intrinsic(self):
        ct = make_ct()
        with pytest.raises(ValueError):
            ct.fault_latency_ns()


class TestExpectedPageCost:
    def test_zbud_floor_half(self):
        """Paper §2: zbud can never save more than 50 %."""
        ct = make_ct(algo="deflate", allocator=ZbudAllocator(arena_pages=1 << 13))
        assert ct.expected_page_cost(0.05) == pytest.approx(
            0.5 * DRAM.cost_per_page
        )

    def test_zsmalloc_tracks_ratio(self):
        ct = make_ct(algo="deflate")
        cost = ct.expected_page_cost(0.25)
        # Class rounding keeps it near ratio * media cost.
        assert cost == pytest.approx(0.25 * DRAM.cost_per_page, rel=0.1)

    def test_cheap_media_cheaper(self):
        dram_ct = make_ct(media=DRAM)
        nvmm_ct = make_ct(media=NVMM)
        assert nvmm_ct.expected_page_cost(0.4) < dram_ct.expected_page_cost(0.4)

    def test_reject_threshold_constant(self):
        assert 0.9 <= REJECT_RATIO <= 1.0


def test_tier_name_and_repr():
    ct = make_ct()
    assert "CT" in repr(ct)
    assert ct.is_compressed
    byte = ByteAddressableTier("DRAM", DRAM, capacity_pages=PAGE_SIZE)
    assert not byte.is_compressed
