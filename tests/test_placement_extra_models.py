"""Tests for the TPP- and MEMTIS-style placement models."""

import numpy as np
import pytest

from repro.core.placement.memtis import MemtisPolicy
from repro.core.placement.tpp import TPPPolicy
from repro.telemetry.window import ProfileRecord
from tests.conftest import run_windows


def record(hotness, window=0):
    hotness = np.asarray(hotness, dtype=np.float64)
    return ProfileRecord(
        window=window,
        hotness=hotness,
        window_samples=int(hotness.sum()),
        sampling_rate=100,
    )


class TestTPP:
    def test_no_demotion_under_watermark(self, system):
        policy = TPPPolicy("CT", dram_watermark=1.0)
        moves = policy.recommend(record([5.0, 1.0, 0.0, 0.0]), system)
        assert all(dst == 0 for dst in moves.values()) or not moves

    def test_demotes_only_overflow(self, system):
        # Watermark at half the space: demote the two coldest regions.
        policy = TPPPolicy("CT", dram_watermark=0.5)
        moves = policy.recommend(record([5.0, 4.0, 1.0, 0.0]), system)
        ct = system.tier_index("CT")
        demotions = [rid for rid, dst in moves.items() if dst == ct]
        assert sorted(demotions) == [2, 3]

    def test_promotion_requires_hysteresis(self, system):
        policy = TPPPolicy("CT", dram_watermark=1.0, promotion_hysteresis=2)
        system.space.regions[0].assigned_tier = system.tier_index("CT")
        first = policy.recommend(record([9.0, 0.0, 0.0, 0.0]), system)
        assert 0 not in first  # one hot window is not enough
        second = policy.recommend(record([9.0, 0.0, 0.0, 0.0], window=1), system)
        assert second.get(0) == 0  # promoted after two consecutive

    def test_streak_resets_on_cold_window(self, system):
        policy = TPPPolicy("CT", dram_watermark=1.0, promotion_hysteresis=2)
        system.space.regions[0].assigned_tier = system.tier_index("CT")
        policy.recommend(record([9.0, 0.0, 0.0, 0.0]), system)
        policy.recommend(record([0.0, 9.0, 0.0, 0.0]), system)  # went cold
        third = policy.recommend(record([9.0, 0.0, 0.0, 0.0]), system)
        assert 0 not in third

    def test_validation(self):
        with pytest.raises(ValueError):
            TPPPolicy("CT", dram_watermark=0.0)
        with pytest.raises(ValueError):
            TPPPolicy("CT", promotion_hysteresis=0)

    def test_less_ping_pong_than_static_threshold(self):
        """The hysteresis suppresses promote/demote churn under an
        alternating hotness pattern."""
        from tests.conftest import make_tiers

        from repro.core.placement.static_threshold import StaticThresholdPolicy
        from repro.mem.address_space import AddressSpace
        from repro.mem.page import PAGES_PER_REGION
        from repro.mem.system import TieredMemorySystem

        flip = [
            record([9.0, 0.0, 9.0, 0.0], window=w)
            if w % 2
            else record([0.0, 9.0, 0.0, 9.0], window=w)
            for w in range(6)
        ]

        def churn(policy) -> int:
            space = AddressSpace(4 * PAGES_PER_REGION, "mixed", seed=7)
            system = TieredMemorySystem(make_tiers(space), space)
            moves_applied = 0
            for rec in flip:
                for rid, dst in policy.recommend(rec, system).items():
                    region = system.space.regions[rid]
                    if dst != region.assigned_tier:
                        moves_applied += 1
                        region.assigned_tier = dst
            return moves_applied

        tpp_churn = churn(
            TPPPolicy("CT", dram_watermark=0.5, promotion_hysteresis=2)
        )
        static_churn = churn(StaticThresholdPolicy("CT", 50.0))
        assert tpp_churn < static_churn


class TestMemtis:
    def test_hot_set_sized_to_budget(self, system):
        policy = MemtisPolicy("CT", dram_budget=0.25)  # 1 of 4 regions
        moves = policy.recommend(record([1.0, 9.0, 2.0, 3.0]), system)
        assert moves[1] == 0
        ct = system.tier_index("CT")
        assert sum(1 for dst in moves.values() if dst == 0) == 1
        assert sum(1 for dst in moves.values() if dst == ct) == 3

    def test_threshold_adapts_to_skew(self):
        policy = MemtisPolicy("CT", dram_budget=0.5)
        flat = np.array([5.0, 5.0, 5.0, 5.0])
        skew = np.array([100.0, 1.0, 1.0, 1.0])
        assert policy.hot_threshold(flat, 2) == 5.0
        assert policy.hot_threshold(skew, 2) == 1.0

    def test_zero_hotness_never_hot(self, system):
        policy = MemtisPolicy("CT", dram_budget=1.0)
        moves = policy.recommend(record([0.0, 0.0, 3.0, 0.0]), system)
        ct = system.tier_index("CT")
        assert moves[2] == 0
        assert moves[0] == ct and moves[1] == ct and moves[3] == ct

    def test_validation(self):
        with pytest.raises(ValueError):
            MemtisPolicy("CT", dram_budget=0.0)

    def test_budget_controls_savings(self, system):
        """Smaller DRAM budget -> more demotion -> more savings."""
        from repro.core.daemon import TSDaemon
        from repro.workloads.masim import MasimWorkload

        results = {}
        for budget in (0.25, 0.75):
            from tests.conftest import make_tiers
            from repro.mem.address_space import AddressSpace
            from repro.mem.system import TieredMemorySystem

            space = AddressSpace(system.space.num_pages, "mixed", seed=7)
            fresh = TieredMemorySystem(make_tiers(space), space)
            daemon = TSDaemon(
                fresh,
                MemtisPolicy("CT", dram_budget=budget),
                sampling_rate=1,
                seed=1,
            )
            workload = MasimWorkload(
                num_pages=space.num_pages, ops_per_window=3000, seed=2
            )
            results[budget] = run_windows(daemon, workload, 5).tco_savings
        assert results[0.25] > results[0.75]
