"""Region-space window bookkeeping against the per-page reference paths.

The PEBS sampler returns sampled accesses per 2 MB region, the profiler
folds region counts, and the waterfall, static-threshold and filter
passes read the region columns.  Each is checked here against the
per-page or per-region loop it replaced: the page-id sampler below is a
test-only copy of that algorithm, and the placement references are the
loops over ``system.space.regions``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement.filter import MigrationFilter
from repro.core.placement.static_threshold import StaticThresholdPolicy
from repro.core.placement.waterfall import WaterfallModel
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.telemetry.hotness import RegionHotness
from repro.telemetry.pebs import SAMPLE_HANDLING_NS, PEBSSampler
from repro.telemetry.window import Profiler

from tests.conftest import make_tiers
from tests.test_placement_models import _reference_filter, record


class _PageIdSampler:
    """The page-id PEBS sampler: same draws, but every sampled access is
    mapped to its page through ``cumsum(counts)``."""

    def __init__(self, rate: int, seed: int) -> None:
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self.samples_taken = 0
        self.events_seen = 0
        self.overhead_ns = 0.0

    def sample(self, counts: np.ndarray) -> np.ndarray:
        n = int(counts.sum())
        self.events_seen += n
        if self.rate == 1:
            sampled = np.repeat(np.arange(len(counts)), counts)
        else:
            k = int(self._rng.binomial(n, 1.0 / self.rate))
            positions = self._rng.choice(n, size=k, replace=False, shuffle=False)
            positions.sort()
            sampled = np.cumsum(counts).searchsorted(positions, side="right")
        self.samples_taken += len(sampled)
        self.overhead_ns += len(sampled) * SAMPLE_HANDLING_NS
        return sampled


def _window(length: int, density: float, seed: int):
    """A count vector of ``length`` pages (zero when ``density`` is 0)."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 200, size=length)
    return np.where(rng.random(length) < density, counts, 0).astype(np.int64)


def _windows(num_regions: int):
    """Window strategies: lengths short of the address space and never a
    whole number of regions."""
    pages = num_regions * PAGES_PER_REGION
    return st.lists(
        st.tuples(
            st.integers(1, pages - 1).filter(lambda n: n % PAGES_PER_REGION),
            st.sampled_from([0.0, 0.002, 0.3, 1.0]),
            st.integers(0, 2**31),
        ),
        min_size=1,
        max_size=4,
    )


@settings(max_examples=60, deadline=None)
@given(
    num_regions=st.integers(1, 5),
    rate=st.sampled_from([1, 2, 7, 100]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_region_counts_match_page_id_sampler(num_regions, rate, seed, data):
    sampler = PEBSSampler(rate=rate, seed=seed)
    reference = _PageIdSampler(rate=rate, seed=seed)
    for length, density, wseed in data.draw(_windows(num_regions)):
        counts = _window(length, density, wseed)
        got = sampler.sample(counts)
        ids = reference.sample(counts)
        regions = -(-length // PAGES_PER_REGION)
        want = np.bincount(ids // PAGES_PER_REGION, minlength=regions)
        assert np.array_equal(got, want)
        assert sampler.samples_taken == reference.samples_taken
        assert sampler.events_seen == reference.events_seen
        assert sampler.overhead_ns == reference.overhead_ns
        assert sampler._rng.bit_generator.state == (
            reference._rng.bit_generator.state
        )


@settings(max_examples=40, deadline=None)
@given(
    num_regions=st.integers(1, 5),
    rate=st.sampled_from([1, 3, 100]),
    cooling=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_profiler_fold_matches_page_id_observe(
    num_regions, rate, cooling, seed, data
):
    """Records, each with several batches (or none), fold to the hotness
    and sample counts of ``observe`` over the concatenated page ids."""
    profiler = Profiler(num_regions, sampling_rate=rate, cooling=cooling, seed=seed)
    reference = _PageIdSampler(rate=rate, seed=seed)
    hotness = RegionHotness(num_regions, cooling=cooling)
    for window in range(data.draw(st.integers(1, 3))):
        batches = data.draw(st.one_of(st.just([]), _windows(num_regions)))
        ids = []
        for length, density, wseed in batches:
            counts = _window(length, density, wseed)
            profiler.record(counts)
            ids.append(reference.sample(counts))
        ids = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
        got = profiler.end_window()
        want = hotness.observe(ids)
        assert got.window == window
        assert got.window_samples == len(ids)
        assert np.array_equal(got.hotness, want)
        assert profiler._pending == []


def test_out_of_range_sample_raises():
    # One sampled access on page 600 of a one-region address space.
    profiler = Profiler(num_regions=1, sampling_rate=1)
    profiler.record(np.bincount([0, 600]))
    with pytest.raises(ValueError, match="outside the tracked"):
        profiler.end_window()
    with pytest.raises(ValueError, match="outside the tracked"):
        RegionHotness(2).fold(np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="outside the tracked"):
        RegionHotness(2).observe(np.array([2 * PAGES_PER_REGION]))


def test_zero_tail_past_the_address_space_is_accepted():
    """A count vector longer than the address space is fine while every
    access lands inside it, as it was for page ids."""
    profiler = Profiler(num_regions=1, sampling_rate=1)
    counts = np.zeros(3 * PAGES_PER_REGION, dtype=np.int64)
    counts[5] = 4
    profiler.record(counts)
    record_ = profiler.end_window()
    assert record_.hotness.tolist() == [4.0]
    assert record_.window_samples == 4
    hot = RegionHotness(3, cooling=0.0)
    assert hot.fold(np.array([2, 0, 0, 0])).tolist() == [2.0, 0.0, 0.0]
    assert hot.fold(np.array([1])).tolist() == [3.0, 0.0, 0.0]


def _system(num_regions: int, seed: int) -> TieredMemorySystem:
    """A 3-tier system whose regions sit in random tiers, some pages
    strayed elsewhere and some assignments stale."""
    rng = np.random.default_rng(seed)
    space = AddressSpace(num_regions * PAGES_PER_REGION, "mixed", seed=seed)
    system = TieredMemorySystem(make_tiers(space), space)
    num_tiers = len(system.tiers)
    for region in range(num_regions):
        system.move_region(region, int(rng.integers(0, num_tiers)))
    for page in rng.integers(0, space.num_pages, size=8).tolist():
        system.move_page(page, int(rng.integers(0, num_tiers)))
    for region in range(num_regions):
        if rng.random() < 0.3:
            space.regions[region].assigned_tier = int(rng.integers(0, num_tiers))
    return system


def _reference_waterfall(model, rec, system):
    last_tier = len(system.tiers) - 1
    threshold = float(np.percentile(rec.hotness, model.percentile))
    moves = {}
    for region in system.space.regions:
        if rec.hotness[region.region_id] > threshold:
            moves[region.region_id] = 0
        else:
            moves[region.region_id] = min(region.assigned_tier + 1, last_tier)
    return moves


def _reference_static(policy, rec, system):
    slow_idx = system.tier_index(policy.slow_tier)
    threshold = float(np.percentile(rec.hotness, policy.percentile))
    moves = {}
    for region in system.space.regions:
        hot = rec.hotness[region.region_id] > threshold
        moves[region.region_id] = 0 if hot else slow_idx
    return moves


def _same_moves(got: dict, want: dict) -> None:
    """Same regions in the same order, same destinations, plain ints."""
    assert list(got.items()) == list(want.items())
    assert all(type(k) is int and type(v) is int for k, v in got.items())


@settings(max_examples=40, deadline=None)
@given(
    num_regions=st.integers(1, 8),
    percentile=st.sampled_from([0.0, 25.0, 50.0, 75.0, 100.0]),
    levels=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_waterfall_and_static_match_region_loops(
    num_regions, percentile, levels, seed
):
    """Integer hotness levels make ties with the threshold common."""
    system = _system(num_regions, seed)
    rng = np.random.default_rng(seed + 1)
    rec = record(rng.integers(0, levels, num_regions).astype(np.float64))
    model = WaterfallModel(percentile=percentile)
    _same_moves(model.recommend(rec, system), _reference_waterfall(model, rec, system))
    for slow in ("NVMM", "CT"):
        policy = StaticThresholdPolicy(slow, percentile=percentile)
        _same_moves(
            policy.recommend(rec, system), _reference_static(policy, rec, system)
        )


@settings(max_examples=40, deadline=None)
@given(
    num_regions=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    spare=st.integers(0, 2),
)
def test_filter_orders_ties_like_sorted(num_regions, seed, spare):
    """Every region is recommended, in a shuffled order, onto a tier with
    room for only a few of them: the stable argsort must pick the same
    regions, in the same order, as ``sorted`` on the hotness key."""
    system = _system(num_regions, seed)
    rng = np.random.default_rng(seed + 2)
    ct = system.tier_index("CT")
    nvmm = system.tier_index("NVMM")
    system.tiers[nvmm].capacity_pages = (
        system.tiers[nvmm].used_pages + spare * PAGES_PER_REGION
    )
    order = rng.permutation(num_regions).tolist()
    moves = {r: (nvmm if rng.random() < 0.7 else ct) for r in order}
    # Two hotness levels and signed zeros: many exact ties.
    hotness = rng.choice([0.0, -0.0, 1.0], size=num_regions)
    rec = record(hotness)
    got_filter = MigrationFilter(pressure_threshold=None)
    want_filter = MigrationFilter(pressure_threshold=None)
    got = got_filter.apply(moves, rec, system)
    want = _reference_filter(want_filter, moves, rec, system, set())
    assert list(got.items()) == list(want.items())
    for name in ("dropped_noop", "dropped_pressure", "dropped_capacity"):
        assert getattr(got_filter, name) == getattr(want_filter, name), name


@settings(max_examples=30, deadline=None)
@given(num_regions=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_placement_counts_read_tier_counters(num_regions, seed):
    """The residency counters equal the bincount of the ``tier`` column
    after region moves, page moves and demand faults."""
    system = _system(num_regions, seed)
    rng = np.random.default_rng(seed + 3)
    num_tiers = len(system.tiers)
    pages = rng.integers(0, system.space.num_pages, size=300)
    system.access_batch(np.bincount(pages, minlength=system.space.num_pages))
    got = system.placement_counts()
    assert got.dtype == np.int64
    assert np.array_equal(got, system.pt.placement_counts(num_tiers))
    assert got.sum() == system.space.num_pages
