"""Tests for the tiered memory system: access path, faults, migration."""

import numpy as np
import pytest

from repro.mem.address_space import AddressSpace
from repro.mem.media import DRAM
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import ByteAddressableTier

from tests.conftest import make_tiers


def fresh_system(num_regions=4, profile="mixed", seed=7):
    space = AddressSpace(num_regions * PAGES_PER_REGION, profile, seed=seed)
    return TieredMemorySystem(make_tiers(space), space)


class TestConstruction:
    def test_all_pages_start_in_dram(self):
        system = fresh_system()
        counts = system.placement_counts()
        assert counts[0] == system.space.num_pages
        assert counts[1:].sum() == 0

    def test_tier0_must_be_byte(self, space):
        from repro.allocators import ZsmallocAllocator
        from repro.compression.registry import algorithm
        from repro.mem.tier import CompressedTier

        ct = CompressedTier(
            "CT", algorithm("lzo"), ZsmallocAllocator(1 << 12), DRAM, 4096
        )
        with pytest.raises(ValueError, match="byte-addressable"):
            TieredMemorySystem([ct], space)

    def test_tier0_must_hold_everything(self, space):
        small = ByteAddressableTier("DRAM", DRAM, capacity_pages=10)
        with pytest.raises(ValueError, match="whole address space"):
            TieredMemorySystem([small], space)

    def test_duplicate_names_rejected(self, space):
        n = space.num_pages
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            TieredMemorySystem(tiers, space)

    def test_tier_index(self):
        system = fresh_system()
        assert system.tier_index("CT") == 2
        with pytest.raises(KeyError):
            system.tier_index("HBM")

    def test_fast_same_algo_migration_is_instance_state(self):
        """The §7.1 flag must not be shared class state.

        As a mutable class attribute, enabling it on one system (or on
        the class, as ablation code used to) leaked the fast path into
        every other system in the process, including fleet workers.
        """
        assert "fast_same_algo_migration" not in vars(TieredMemorySystem)
        a, b = fresh_system(), fresh_system()
        a.fast_same_algo_migration = True
        assert b.fast_same_algo_migration is False
        space = AddressSpace(PAGES_PER_REGION, "mixed", seed=7)
        flagged = TieredMemorySystem(
            make_tiers(space), space, fast_same_algo_migration=True
        )
        assert flagged.fast_same_algo_migration is True


class TestAccessPath:
    def test_dram_access_cost(self):
        system = fresh_system()
        result = system.access_batch(np.bincount(np.array([0, 1, 2, 0])))
        assert result.accesses == 4
        assert result.faults == 0
        assert result.access_ns == pytest.approx(4 * DRAM.read_ns)
        assert system.clock.optimal_ns == result.access_ns
        assert system.clock.slowdown == 0.0

    def test_empty_batch(self):
        system = fresh_system()
        result = system.access_batch(np.bincount(np.array([], dtype=np.int64)))
        assert result.accesses == 0

    def test_nvmm_access_slower(self):
        system = fresh_system()
        system.move_page(0, 1)
        result = system.access_batch(np.bincount(np.array([0])))
        assert result.access_ns > DRAM.read_ns
        assert result.faults == 0

    def test_compressed_access_faults_and_promotes(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        system.move_page(0, ct_idx)
        assert system.page_location[0] == ct_idx
        result = system.access_batch(np.bincount(np.array([0, 0, 0])))
        assert result.faults == 1
        assert system.page_location[0] == 0  # promoted to DRAM
        assert system.tiers[ct_idx].stats.faults == 1
        # First access pays the fault; the other two pay DRAM latency.
        assert result.access_ns > 2 * DRAM.read_ns + 1000

    def test_fault_latency_histogram(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        system.move_page(0, ct_idx)
        result = system.access_batch(np.bincount(np.array([0, 1])))
        latencies = sorted(result.latency_ns.tolist())
        assert latencies[0] == pytest.approx(DRAM.read_ns)
        assert latencies[-1] > 1000  # the fault

    def test_fault_batch_spills_when_promotion_target_fills(self):
        """A batch of faults must spill to the next byte tier mid-batch.

        The promotion target used to be resolved once per compressed
        group; when DRAM filled partway through the batch, the next
        ``add_pages(1)`` raised AllocationError *after* the clock and
        stats were already charged for the earlier pages.
        """
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        faulting = [0, 1, 2, 3, 4]
        for pid in faulting:
            system.move_page(pid, ct_idx)
        # Fill DRAM up to 2 free pages (another tenant's allocation).
        dram = system.tiers[0]
        dram.add_pages(dram.free_pages - 2)
        result = system.access_batch(np.bincount(np.array(faulting)))
        assert result.faults == len(faulting)
        # 2 pages promoted into DRAM, the remaining 3 spilled to NVMM.
        assert dram.free_pages == 0
        locations = system.page_location[faulting]
        assert list(locations).count(0) == 2
        assert list(locations).count(1) == 3
        assert system.tiers[ct_idx].resident_pages == 0

    def test_fault_batch_atomic_when_no_byte_room(self):
        """When no byte tier can take the batch, nothing is charged."""
        from repro.allocators.base import AllocationError

        system = fresh_system()
        ct_idx = system.tier_index("CT")
        for pid in range(4):
            system.move_page(pid, ct_idx)
        for tier in system.tiers[:2]:
            tier.add_pages(tier.free_pages)
        before_ns = system.clock.access_ns
        before_resident = system.tiers[ct_idx].resident_pages
        with pytest.raises(AllocationError, match="no byte-addressable"):
            system.access_batch(np.bincount(np.array([0, 1, 2, 3])))
        assert system.clock.access_ns == before_ns
        assert system.tiers[ct_idx].resident_pages == before_resident

    def test_recency_tracking(self):
        system = fresh_system()
        system.advance_window()
        system.access_batch(np.bincount(np.array([5])))
        assert system.last_access_window[5] == 1
        assert system.last_access_window[6] < 0


class TestMigration:
    def test_move_page_byte_to_byte(self):
        system = fresh_system()
        ns = system.move_page(0, 1)
        assert ns > 0
        assert system.page_location[0] == 1
        assert system.tiers[0].used_pages == system.space.num_pages - 1
        assert system.tiers[1].used_pages == 1

    def test_move_page_noop(self):
        system = fresh_system()
        assert system.move_page(0, 0) == 0.0

    def test_move_page_into_its_own_full_compressed_tier_is_a_noop(self):
        """A page already in a compressed tier at capacity stays there:
        its own tier is its destination, not a refused store."""
        from repro.bench.configs import make_compressed_tier

        n = PAGES_PER_REGION
        # Equal objects of one size class: whole zspages fill the
        # 8-page tier exactly.
        space = AddressSpace(n, compressibility=np.full(n, 0.2))
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            make_compressed_tier("CT", "lzo", "zsmalloc", DRAM, 8),
        ]
        system = TieredMemorySystem(tiers, space)
        ct = system.tiers[1]
        pid = 0
        while ct.free_pages > 0:
            system.move_page(pid, 1)
            pid += 1
        stored = ct.resident_pages
        assert ct.free_pages == 0 and stored == pid
        migrated, clock = system.migrated_pages, system.clock.migration_ns
        assert system.move_page(3, 1) == 0.0
        assert system.page_location[3] == 1 and ct.resident_pages == stored
        assert system.migrated_pages == migrated
        assert system.clock.migration_ns == clock

    def test_move_into_compressed_charges_compression(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        ns = system.move_page(0, ct_idx)
        assert ns > system.tiers[ct_idx].algorithm.compress_ns()
        assert system.clock.migration_ns == ns

    def test_compressed_to_compressed_decompresses_then_recompresses(self):
        """Paper §7.1: the naive migration path."""
        space = AddressSpace(2 * PAGES_PER_REGION, "nci", seed=1)
        tiers = make_tiers(space)
        from repro.allocators import ZbudAllocator
        from repro.compression.registry import algorithm
        from repro.mem.tier import CompressedTier

        tiers.append(
            CompressedTier(
                "CT2",
                algorithm("deflate"),
                ZbudAllocator(1 << 12),
                DRAM,
                capacity_pages=space.num_pages,
            )
        )
        system = TieredMemorySystem(tiers, space)
        ct1, ct2 = system.tier_index("CT"), system.tier_index("CT2")
        system.move_page(0, ct1)
        ns = system.move_page(0, ct2)
        both = (
            system.tiers[ct1].algorithm.decompress_ns()
            + system.tiers[ct2].algorithm.compress_ns()
        )
        assert ns > both
        assert system.tiers[ct2].contains(0)
        assert not system.tiers[ct1].contains(0)

    def test_incompressible_page_redirected(self):
        space = AddressSpace(PAGES_PER_REGION, "random", seed=2)
        system = TieredMemorySystem(make_tiers(space), space)
        ct_idx = system.tier_index("CT")
        # Find a page the tier would reject.
        rejects = [
            pid
            for pid in range(space.num_pages)
            if not system.tiers[ct_idx].accepts(float(space.compressibility[pid]))
        ]
        assert rejects, "random profile should have incompressible pages"
        pid = rejects[0]
        system.move_page(pid, ct_idx)
        assert system.page_location[pid] == 0  # stayed byte-addressable

    def test_move_region_moves_all_idle_pages(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        system.move_region(0, ct_idx)
        region = system.space.regions[0]
        assert region.assigned_tier == ct_idx
        locations = system.page_location[:PAGES_PER_REGION]
        # Compressible pages moved; rejected ones stayed in DRAM.
        assert (locations == ct_idx).sum() > 0

    def test_move_region_recency_skip(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        system.advance_window()
        touched = np.arange(0, 100)
        system.access_batch(np.bincount(touched))
        system.move_region(0, ct_idx, recency_windows=1)
        assert (system.page_location[:100] == 0).all()  # recent pages stayed
        assert (system.page_location[100:PAGES_PER_REGION] == ct_idx).sum() > 0

    def test_recency_skip_not_applied_to_byte_tiers(self):
        system = fresh_system()
        system.advance_window()
        system.access_batch(np.bincount(np.arange(0, 100)))
        system.move_region(0, 1, recency_windows=1)
        assert (system.page_location[:PAGES_PER_REGION] == 1).all()


class TestTCO:
    def test_all_dram_is_max(self):
        system = fresh_system()
        assert system.tco() == pytest.approx(system.tco_max())
        assert system.tco_savings() == pytest.approx(0.0)

    def test_nvmm_placement_saves(self):
        system = fresh_system()
        system.move_region(0, 1)
        # Moving 1/4 of the data to 1/3-cost NVMM saves 1/4 * 2/3.
        assert system.tco_savings() == pytest.approx(0.25 * 2 / 3, rel=0.01)

    def test_compressed_placement_saves_more(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        before = system.tco()
        system.move_region(0, ct_idx)
        assert system.tco() < before

    def test_savings_never_negative_when_fully_packed(self):
        system = fresh_system()
        ct_idx = system.tier_index("CT")
        for region in range(system.space.num_regions):
            system.move_region(region, ct_idx)
        assert system.tco_savings() > 0.0


class TestConsistency:
    def test_placement_counts_match_tier_accounting(self):
        system = fresh_system()
        rng = np.random.default_rng(0)
        ct_idx = system.tier_index("CT")
        for _ in range(5):
            system.advance_window()
            system.access_batch(np.bincount(rng.integers(0, system.space.num_pages, 2000)))
            system.move_region(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        counts = system.placement_counts()
        assert counts.sum() == system.space.num_pages
        np.testing.assert_array_equal(
            counts, system.pt.placement_counts(len(system.tiers))
        )
        assert counts[0] == system.tiers[0].used_pages
        assert counts[1] == system.tiers[1].used_pages
        assert counts[ct_idx] == system.tiers[ct_idx].resident_pages
