"""Tests for the placement models and the migration filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knob import Knob
from repro.core.metrics import linear_percentile
from repro.core.placement.analytical import AnalyticalModel
from repro.core.placement.filter import MigrationFilter
from repro.core.placement.static_threshold import StaticThresholdPolicy
from repro.core.placement.waterfall import WaterfallModel
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.telemetry.window import ProfileRecord

from tests.conftest import make_tiers


def record(hotness, window=0, rate=100):
    hotness = np.asarray(hotness, dtype=np.float64)
    return ProfileRecord(
        window=window,
        hotness=hotness,
        window_samples=int(hotness.sum()),
        sampling_rate=rate,
    )


class TestStaticThreshold:
    def test_hot_to_dram_cold_to_slow(self, system):
        policy = StaticThresholdPolicy("CT", percentile=50.0)
        rec = record([10.0, 8.0, 0.0, 0.0])
        moves = policy.recommend(rec, system)
        ct = system.tier_index("CT")
        assert moves == {0: 0, 1: 0, 2: ct, 3: ct}

    def test_percentile_controls_aggressiveness(self, system):
        rec = record([1.0, 2.0, 3.0, 4.0])
        conservative = StaticThresholdPolicy("NVMM", percentile=25.0)
        aggressive = StaticThresholdPolicy("NVMM", percentile=75.0)
        cons_moves = conservative.recommend(rec, system)
        aggr_moves = aggressive.recommend(rec, system)
        demoted_cons = sum(1 for t in cons_moves.values() if t != 0)
        demoted_aggr = sum(1 for t in aggr_moves.values() if t != 0)
        assert demoted_aggr > demoted_cons

    def test_unknown_slow_tier(self, system):
        policy = StaticThresholdPolicy("SSD")
        with pytest.raises(KeyError):
            policy.recommend(record([1.0, 2.0, 3.0, 4.0]), system)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            StaticThresholdPolicy("NVMM", percentile=150.0)


class TestWaterfall:
    def test_hot_promotes_cold_demotes_one_step(self, system):
        model = WaterfallModel(percentile=50.0)
        rec = record([10.0, 0.0, 0.0, 9.0])
        system.space.regions[1].assigned_tier = 0
        system.space.regions[2].assigned_tier = 1
        moves = model.recommend(rec, system)
        assert moves[0] == 0 and moves[3] == 0  # hot regions to DRAM
        assert moves[1] == 1  # DRAM -> tier 1
        assert moves[2] == 2  # tier 1 -> tier 2 (waterfalled)

    def test_last_tier_clamps(self, system):
        model = WaterfallModel(percentile=99.0)
        last = len(system.tiers) - 1
        for region in system.space.regions:
            region.assigned_tier = last
        moves = model.recommend(record([0.0, 0.0, 0.0, 1.0]), system)
        assert moves[0] == last  # cannot waterfall past the last tier

    def test_gradual_aging_reaches_last_tier(self, system):
        """Paper §6.1: cold data progressively reaches the best TCO tier."""
        model = WaterfallModel(percentile=99.0)
        rec = record([0.0, 0.0, 0.0, 100.0])
        for _ in range(len(system.tiers)):
            moves = model.recommend(rec, system)
            for region_id, dst in moves.items():
                system.space.regions[region_id].assigned_tier = dst
        assert system.space.regions[0].assigned_tier == len(system.tiers) - 1


class TestAnalyticalModel:
    def test_alpha_one_keeps_everything_in_dram(self, system):
        model = AnalyticalModel(Knob(1.0), backend="frontier")
        moves = model.recommend(record([5.0, 3.0, 1.0, 0.0]), system)
        assert all(dst == 0 for dst in moves.values())

    def test_alpha_zero_empties_dram(self, system):
        model = AnalyticalModel(Knob(0.0), backend="frontier")
        moves = model.recommend(record([5.0, 3.0, 1.0, 0.0]), system)
        assert all(dst != 0 for dst in moves.values())

    def test_lower_alpha_saves_more(self, system):
        rec = record([50.0, 10.0, 1.0, 0.0])
        costs = {}
        for alpha in (0.2, 0.8):
            model = AnalyticalModel(Knob(alpha), backend="frontier")
            model.recommend(rec, system)
            costs[alpha] = model.last_solution.cost
        assert costs[0.2] < costs[0.8]

    def test_hottest_region_last_to_leave_dram(self, system):
        model = AnalyticalModel(Knob(0.5), backend="frontier")
        moves = model.recommend(record([100.0, 0.0, 0.0, 0.0]), system)
        assert moves[0] == 0  # hottest stays in DRAM
        assert any(dst != 0 for r, dst in moves.items() if r != 0)

    def test_solver_time_accumulates(self, system):
        model = AnalyticalModel(Knob(0.5), backend="greedy")
        model.recommend(record([1.0, 2.0, 3.0, 4.0]), system)
        first = model.solver_ns
        model.recommend(record([1.0, 2.0, 3.0, 4.0]), system)
        assert model.solver_ns > first > 0

    def test_every_region_gets_a_destination(self, system):
        model = AnalyticalModel(Knob(0.5), backend="greedy")
        moves = model.recommend(record([1.0, 2.0, 3.0, 4.0]), system)
        assert set(moves) == set(range(system.space.num_regions))


class TestMigrationFilter:
    def test_noop_moves_dropped(self, system):
        filt = MigrationFilter()
        rec = record([1.0, 2.0, 3.0, 4.0])
        moves = {0: 0, 1: 0, 2: 0, 3: 0}  # everything already in DRAM
        assert filt.apply(moves, rec, system) == {}
        assert filt.dropped_noop == 4

    def test_real_moves_kept(self, system):
        filt = MigrationFilter()
        rec = record([1.0, 2.0, 3.0, 4.0])
        moves = {0: 1, 1: 0}
        wave = filt.apply(moves, rec, system)
        assert wave == {0: 1}

    def test_partially_faulted_region_remigrated(self, system):
        ct = system.tier_index("CT")
        system.move_region(0, ct)
        # Fault one page back to DRAM.
        pid = int(np.where(system.page_location[:512] == ct)[0][0])
        system.access_batch(np.bincount(np.array([pid])))
        filt = MigrationFilter()
        wave = filt.apply({0: ct}, record([0.0, 1.0, 1.0, 1.0]), system)
        assert wave == {0: ct}  # not fully resident -> not a no-op

    def test_capacity_bound(self, system):
        filt = MigrationFilter()
        rec = record([1.0, 2.0, 3.0, 4.0])
        # NVMM sized to one region only.
        system.tiers[1].capacity_pages = 512
        wave = filt.apply({0: 1, 1: 1, 2: 1, 3: 1}, rec, system)
        assert len(wave) == 1
        assert filt.dropped_capacity == 3

    def test_coldest_win_scarce_capacity(self, system):
        filt = MigrationFilter()
        rec = record([4.0, 3.0, 2.0, 1.0])
        system.tiers[1].capacity_pages = 512
        wave = filt.apply({0: 1, 1: 1, 2: 1, 3: 1}, rec, system)
        assert list(wave) == [3]  # region 3 is coldest

    def test_pressure_blocks_demotions(self, system):
        filt = MigrationFilter(pressure_threshold=0.01)
        rec = record([1.0, 2.0, 3.0, 4.0])
        ct = system.tier_index("CT")
        system.move_region(0, ct)
        filt.apply({}, rec, system)  # snapshot fault counts
        # Fault many pages to cross the pressure threshold.
        stored = np.where(system.page_location[:512] == ct)[0][:50]
        system.access_batch(np.bincount(stored))
        wave = filt.apply({1: ct}, rec, system)
        assert wave == {}
        assert filt.dropped_pressure == 1

    def test_pressure_disabled(self, system):
        filt = MigrationFilter(pressure_threshold=None)
        ct = system.tier_index("CT")
        wave = filt.apply({1: ct}, record([1.0, 2.0, 3.0, 4.0]), system)
        assert wave == {1: ct}


def _reference_filter(filt, moves, rec, system, pressured):
    """The per-region filter loop ``MigrationFilter.apply`` replaced."""
    filtered = {}
    remaining = np.array(
        [tier.free_pages // PAGES_PER_REGION for tier in system.tiers],
        dtype=np.int64,
    )
    for region_id, dst in sorted(moves.items(), key=lambda kv: rec.hotness[kv[0]]):
        region = system.space.regions[region_id]
        locations = system.page_location[region.start_page : region.end_page]
        if dst == region.assigned_tier and bool((locations == dst).all()):
            filt.dropped_noop += 1
            continue
        if dst in pressured and dst != region.assigned_tier:
            filt.dropped_pressure += 1
            continue
        if filt.enforce_capacity:
            if remaining[dst] <= 0 and dst != 0:
                filt.dropped_capacity += 1
                continue
            remaining[dst] -= 1
        filtered[region_id] = dst
    return filtered


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_filter_matches_per_region_reference(seed, data):
    """The region-axis no-op check keeps the wave and drop counts of the
    per-region loop: scattered pages, stale assignments, pressured
    tiers and tight capacities included."""
    rng = np.random.default_rng(seed)
    num_regions = 6
    space = AddressSpace(num_regions * PAGES_PER_REGION, "mixed", seed=seed)
    system = TieredMemorySystem(make_tiers(space), space)
    num_tiers = len(system.tiers)
    for region in range(num_regions):
        system.move_region(region, int(rng.integers(0, num_tiers)))
    stray = rng.integers(0, space.num_pages, size=data.draw(st.integers(0, 12)))
    for page in stray.tolist():
        system.move_page(page, int(rng.integers(0, num_tiers)))
    for region in range(num_regions):
        if rng.random() < 0.3:  # a stale recommendation
            space.regions[region].assigned_tier = int(rng.integers(0, num_tiers))
    for tier in system.tiers[1:]:
        spare = data.draw(st.integers(-1, 3)) * PAGES_PER_REGION
        tier.capacity_pages = max(0, tier.used_pages + spare)

    moves = {}
    for region in rng.permutation(num_regions)[: data.draw(st.integers(0, num_regions))]:
        region = int(region)
        keep = rng.random() < 0.5
        moves[region] = (
            space.regions[region].assigned_tier
            if keep
            else int(rng.integers(0, num_tiers))
        )
    hotness = rng.integers(0, 3, num_regions).astype(np.float64)  # ties
    rec = record(hotness)
    pressured = set(
        data.draw(st.sets(st.integers(0, num_tiers - 1), max_size=num_tiers))
    )
    enforce = data.draw(st.booleans())

    got_filter = MigrationFilter(enforce_capacity=enforce)
    got_filter._pressured_tiers = lambda system: pressured
    want_filter = MigrationFilter(enforce_capacity=enforce)
    got = got_filter.apply(moves, rec, system)
    want = _reference_filter(want_filter, moves, rec, system, pressured)
    assert list(got.items()) == list(want.items())
    for name in ("dropped_noop", "dropped_pressure", "dropped_capacity"):
        assert getattr(got_filter, name) == getattr(want_filter, name), name


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e16, float("nan")])
        | st.floats(-1e16, 1e16),
        min_size=1,
        max_size=69,
    ),
    percentile=st.sampled_from([0.0, 25.0, 50.0, 75.0, 100.0])
    | st.floats(0.0, 100.0),
)
def test_linear_percentile_hot_masks_match_numpy(values, percentile):
    """The hot mask ``hotness > threshold`` that waterfall and the static
    thresholds take is the one ``np.percentile`` gives, ties, signed
    zeros, one value and NaN included; so is the threshold, up to the
    sign of a zero."""
    hotness = np.array(values)
    want = float(np.percentile(hotness, percentile))
    got = linear_percentile(hotness, percentile)
    assert np.array_equal(hotness > got, hotness > want)
    assert got == want or (np.isnan(got) and np.isnan(want))
