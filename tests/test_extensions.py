"""Tests for the paper's extension features: fast same-algorithm
migration (§7.1), the spatial prefetcher (§3.2 future work) and
compressed-tier selection (§9 research directions)."""

import numpy as np
import pytest

from repro.allocators import ZbudAllocator, ZsmallocAllocator
from repro.compression.registry import algorithm
from repro.core.daemon import TSDaemon
from repro.core.placement.static_threshold import StaticThresholdPolicy
from repro.core.prefetch import SpatialPrefetcher
from repro.core.tier_select import (
    build_selected_tiers,
    pareto_frontier,
    score_tiers,
    select_tiers,
)
from repro.mem.address_space import AddressSpace
from repro.mem.media import DRAM, NVMM
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import ByteAddressableTier, CompressedTier
from repro.workloads.masim import MasimWorkload
from tests.conftest import run_windows


def system_with_twin_cts(same_algo: bool):
    space = AddressSpace(2 * PAGES_PER_REGION, "nci", seed=1)
    n = space.num_pages
    tiers = [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        CompressedTier(
            "CTa", algorithm("lzo"), ZsmallocAllocator(1 << 12), DRAM, n
        ),
        CompressedTier(
            "CTb",
            algorithm("lzo" if same_algo else "deflate"),
            ZbudAllocator(1 << 12),
            NVMM,
            n,
        ),
    ]
    return TieredMemorySystem(tiers, space)


class TestFastSameAlgoMigration:
    def test_fast_path_cheaper_than_naive(self):
        naive = system_with_twin_cts(same_algo=True)
        fast = system_with_twin_cts(same_algo=True)
        fast.fast_same_algo_migration = True
        for system in (naive, fast):
            system.move_page(0, 1)
        cost_naive = naive.move_page(0, 2)
        cost_fast = fast.move_page(0, 2)
        assert cost_fast < cost_naive
        # The saved work is exactly the codec's decompress+compress.
        algo = algorithm("lzo")
        assert cost_naive - cost_fast >= 0.5 * (
            algo.decompress_ns() + algo.compress_ns()
        )

    def test_fast_path_requires_same_algorithm(self):
        system = system_with_twin_cts(same_algo=False)
        system.fast_same_algo_migration = True
        system.move_page(0, 1)
        cost = system.move_page(0, 2)
        # Different algorithms -> naive path, which includes both codecs.
        assert cost > algorithm("deflate").compress_ns()

    def test_fast_path_preserves_accounting(self):
        system = system_with_twin_cts(same_algo=True)
        system.fast_same_algo_migration = True
        system.move_page(0, 1)
        system.move_page(0, 2)
        assert not system.tiers[1].contains(0)
        assert system.tiers[2].contains(0)
        assert system.page_location[0] == 2


class TestSpatialPrefetcher:
    def _system(self):
        space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=0)
        n = space.num_pages
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            CompressedTier(
                "CT", algorithm("lzo"), ZsmallocAllocator(1 << 12), DRAM, n
            ),
        ]
        return TieredMemorySystem(tiers, space)

    def test_prefetch_promotes_neighbours(self):
        system = self._system()
        system.move_region(0, 1)
        prefetcher = SpatialPrefetcher(system, degree=3)
        # Fault page 10, then let the prefetcher react.
        system.access_batch(np.bincount(np.array([10])))
        ns = prefetcher.on_window([10])
        assert ns > 0
        assert prefetcher.stats.issued >= 1
        # Neighbours 11..13 now resident in DRAM (the compressible ones).
        for pid in (11, 12, 13):
            assert system.page_location[pid] == 0

    def test_prefetch_stops_at_region_boundary(self):
        system = self._system()
        system.move_region(0, 1)
        prefetcher = SpatialPrefetcher(system, degree=8)
        last = PAGES_PER_REGION - 2
        system.access_batch(np.bincount(np.array([last])))
        prefetcher.on_window([last])
        # Only the one in-region neighbour could be prefetched.
        assert prefetcher.stats.issued <= 1

    def test_accuracy_scoring(self):
        system = self._system()
        system.move_region(0, 1)
        prefetcher = SpatialPrefetcher(system, degree=2)
        system.advance_window()
        system.access_batch(np.bincount(np.array([10])))
        prefetcher.on_window([10])
        # Next window, access one prefetched page.
        system.advance_window()
        system.access_batch(np.bincount(np.array([11])))
        prefetcher.on_window([])
        assert prefetcher.stats.useful >= 1
        assert 0.0 <= prefetcher.stats.accuracy <= 1.0

    def test_daemon_integration_reduces_faults(self):
        space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=0)

        def build():
            sp = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=0)
            n = sp.num_pages
            tiers = [
                ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
                CompressedTier(
                    "CT", algorithm("lzo"), ZsmallocAllocator(1 << 12), DRAM, n
                ),
            ]
            return TieredMemorySystem(tiers, sp)

        def run(prefetch_degree):
            system = build()
            daemon = TSDaemon(
                system,
                StaticThresholdPolicy("CT", 75.0),
                sampling_rate=1,
                recency_windows=0,
                prefetch_degree=prefetch_degree,
                seed=1,
            )
            workload = MasimWorkload(
                num_pages=space.num_pages, ops_per_window=3000, seed=5
            )
            return run_windows(daemon, workload, 6)

        without = run(None)
        with_pf = run(8)
        assert with_pf.total_faults <= without.total_faults

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            SpatialPrefetcher(self._system(), degree=0)


class TestTierSelection:
    def test_scores_cover_option_space(self):
        scores = score_tiers("mixed")
        assert len(scores) == 63
        assert all(s.fault_ns > 0 and s.page_cost > 0 for s in scores)

    def test_pareto_frontier_is_monotone(self):
        frontier = pareto_frontier(score_tiers("mixed"))
        lat = [s.latency_ns for s in frontier]
        cost = [s.page_cost for s in frontier]
        assert lat == sorted(lat)
        assert cost == sorted(cost, reverse=True)
        assert 2 <= len(frontier) <= 63

    def test_select_structure_matches_paper_picks(self):
        """The auto-selected spectrum has the §5.1 structure: a fast
        zbud/lz4-style endpoint and a deflate-class dense endpoint."""
        picks = select_tiers("mixed", k=5)
        assert len(picks) == 5
        fastest, cheapest = picks[0], picks[-1]
        assert fastest.algorithm in ("lz4", "lzo-rle", "lzo", "842")
        assert cheapest.algorithm == "deflate"
        assert cheapest.allocator == "zsmalloc"
        assert cheapest.backing == "NVMM"

    def test_selection_depends_on_profile(self):
        nci = {s.config for s in select_tiers("nci", k=4)}
        rand = {s.config for s in select_tiers("random", k=4)}
        # Barely-compressible data shifts the frontier.
        assert nci != rand

    def test_k_bounds(self):
        assert len(select_tiers("mixed", k=1)) == 1
        everything = select_tiers("mixed", k=100)
        assert everything == pareto_frontier(score_tiers("mixed"))
        with pytest.raises(ValueError):
            select_tiers("mixed", k=0)

    def test_build_selected_tiers(self):
        picks = select_tiers("mixed", k=3)
        tiers = build_selected_tiers(picks, capacity_pages=1024)
        assert [t.name for t in tiers] == ["S1", "S2", "S3"]
        assert all(t.capacity_pages == 1024 for t in tiers)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            score_tiers("parquet")
