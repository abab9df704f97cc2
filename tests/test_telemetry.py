"""Tests for PEBS sampling, region hotness, and the profiler pipeline."""

import numpy as np
import pytest

from repro.mem.page import PAGES_PER_REGION
from repro.telemetry.hotness import RegionHotness
from repro.telemetry.pebs import PEBS_DEFAULT_RATE, PEBSSampler
from repro.telemetry.window import Profiler


class TestPEBSSampler:
    def test_rate_one_records_everything(self):
        sampler = PEBSSampler(rate=1)
        batch = np.ones(1000, dtype=np.int64)  # one access to each page
        expected = np.bincount(np.arange(1000) // PAGES_PER_REGION)
        assert np.array_equal(sampler.sample(batch), expected)  # [512, 488]
        assert sampler.samples_taken == sampler.events_seen == 1000

    def test_thinning_is_approximately_unbiased(self):
        sampler = PEBSSampler(rate=10, seed=1)
        batch = np.ones(100_000, dtype=np.int64)
        sampled = sampler.sample(batch)
        assert 8_000 < sampled.sum() < 12_000
        assert sampled.sum() == sampler.samples_taken
        assert sampler.effective_rate == pytest.approx(10, rel=0.2)

    def test_sampled_subset_preserved(self):
        sampler = PEBSSampler(rate=5, seed=2)
        page = 3 * PAGES_PER_REGION + 7
        batch = np.bincount(np.full(10_000, page))
        sampled = sampler.sample(batch)
        assert len(sampled) == 4
        assert np.flatnonzero(sampled).tolist() == [3]
        assert sampled[3] == sampler.samples_taken > 0

    def test_default_rate_is_papers(self):
        assert PEBS_DEFAULT_RATE == 5000
        assert PEBSSampler().rate == 5000

    def test_overhead_accumulates(self):
        sampler = PEBSSampler(rate=1)
        sampler.sample(np.ones(10, dtype=np.int64))
        assert sampler.overhead_ns > 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PEBSSampler(rate=0)


class TestRegionHotness:
    def test_observe_accumulates_per_region(self):
        hot = RegionHotness(4, cooling=0.0)
        pages = np.array([0, 1, PAGES_PER_REGION, PAGES_PER_REGION])
        hot.observe(pages)
        assert hot.hotness.tolist() == [2.0, 2.0, 0.0, 0.0]

    def test_cooling(self):
        hot = RegionHotness(2, cooling=0.5)
        hot.observe(np.array([0, 0, 0, 0]))
        hot.observe(np.array([], dtype=np.int64))
        assert hot.hotness[0] == pytest.approx(2.0)

    def test_full_cooling_keeps_only_current(self):
        hot = RegionHotness(2, cooling=1.0)
        hot.observe(np.array([0] * 10))
        hot.observe(np.array([PAGES_PER_REGION]))
        assert hot.hotness.tolist() == [0.0, 1.0]

    def test_warm_population_from_gradual_cooling(self):
        """Paper §3.1: hot pages age to warm, not straight to cold."""
        hot = RegionHotness(2, cooling=0.5)
        for _ in range(5):
            hot.observe(np.array([0] * 100))
        for _ in range(2):
            hot.observe(np.array([], dtype=np.int64))
        assert 0 < hot.hotness[0] < 100  # warm, neither hot nor zero

    def test_threshold_and_classify(self):
        hot = RegionHotness(4, cooling=0.0)
        hot.hotness[:] = [0.0, 1.0, 5.0, 10.0]
        assert hot.threshold(50.0) == pytest.approx(3.0)
        assert hot.classify(50.0).tolist() == [False, False, True, True]

    def test_rank_coldest_first(self):
        hot = RegionHotness(3)
        hot.hotness[:] = [5.0, 1.0, 3.0]
        assert hot.rank().tolist() == [1, 2, 0]

    def test_out_of_range_page_raises(self):
        hot = RegionHotness(1)
        with pytest.raises(ValueError):
            hot.observe(np.array([PAGES_PER_REGION * 5]))

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionHotness(0)
        with pytest.raises(ValueError):
            RegionHotness(1, cooling=1.5)
        with pytest.raises(ValueError):
            RegionHotness(1).threshold(200)


class TestProfiler:
    def test_window_lifecycle(self):
        profiler = Profiler(num_regions=2, sampling_rate=1)
        profiler.record(np.bincount([0, 1, 2]))
        profiler.record(np.bincount([PAGES_PER_REGION]))
        record = profiler.end_window()
        assert record.window == 0
        assert record.window_samples == 4
        assert record.hotness.tolist() == [3.0, 1.0]
        second = profiler.end_window()
        assert second.window == 1
        assert second.window_samples == 0

    def test_hotness_snapshot_is_copy(self):
        profiler = Profiler(num_regions=1, sampling_rate=1)
        profiler.record(np.bincount([0]))
        record = profiler.end_window()
        profiler.record(np.bincount([0, 0]))
        profiler.end_window()
        assert record.hotness[0] == 1.0  # unchanged by later windows

    def test_sampling_rate_carried(self):
        profiler = Profiler(num_regions=1, sampling_rate=123)
        record = profiler.end_window()
        assert record.sampling_rate == 123
