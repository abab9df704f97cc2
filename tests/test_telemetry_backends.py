"""Tests for the alternative telemetry backends (idle-bit, DAMON)."""

import numpy as np
import pytest

from repro.mem.page import PAGES_PER_REGION
from repro.telemetry import (
    PROFILER_KINDS,
    DamonProfiler,
    IdleBitProfiler,
    Profiler,
    make_profiler,
)
from tests.conftest import run_windows


def hot_cold_batch(hot_region=0, accesses=5000, num_regions=4, rng=None):
    """Per-page counts hammering one region plus a sprinkle over another."""
    rng = rng or np.random.default_rng(0)
    hot = hot_region * PAGES_PER_REGION + rng.integers(
        0, PAGES_PER_REGION, accesses
    )
    sprinkle = (num_regions - 1) * PAGES_PER_REGION + rng.integers(0, 8, 16)
    return np.bincount(np.concatenate([hot, sprinkle]))


class TestIdleBitProfiler:
    def test_counts_touched_pages_not_accesses(self):
        profiler = IdleBitProfiler(num_regions=4, cooling=1.0)
        # 5000 accesses to region 0 touch at most 512 pages.
        profiler.record(hot_cold_batch())
        record = profiler.end_window()
        assert record.hotness[0] <= PAGES_PER_REGION
        assert record.hotness[0] > 300  # most pages touched
        assert 0 < record.hotness[3] <= 8

    def test_bits_clear_after_scan(self):
        profiler = IdleBitProfiler(num_regions=2, cooling=1.0)
        profiler.record(np.bincount([0, 1, 2]))
        profiler.end_window()
        record = profiler.end_window()  # nothing new recorded
        assert record.hotness.sum() == 0

    def test_partial_scan_persists_bits(self):
        profiler = IdleBitProfiler(num_regions=2, cooling=1.0, scan_fraction=0.5)
        profiler.record(np.ones(512, dtype=np.int64))
        first = profiler.end_window()
        second = profiler.end_window()  # unscanned bits still set
        assert first.hotness[0] + second.hotness[0] >= 256

    def test_overhead_scales_with_pages(self):
        small = IdleBitProfiler(num_regions=1)
        big = IdleBitProfiler(num_regions=8)
        small.end_window()
        big.end_window()
        assert big.overhead_ns == pytest.approx(8 * small.overhead_ns)

    def test_scan_fraction_validation(self):
        with pytest.raises(ValueError):
            IdleBitProfiler(num_regions=1, scan_fraction=0.0)


class TestDamonProfiler:
    def test_estimates_touched_fraction(self):
        profiler = DamonProfiler(num_regions=4, cooling=1.0, samples_per_region=64)
        profiler.record(hot_cold_batch())
        record = profiler.end_window()
        # Region 0 is nearly fully touched; estimate should be high.
        assert record.hotness[0] > 0.5 * PAGES_PER_REGION
        # Regions 1-2 untouched.
        assert record.hotness[1] == 0 and record.hotness[2] == 0

    def test_overhead_independent_of_address_space_density(self):
        profiler = DamonProfiler(num_regions=4, samples_per_region=10)
        profiler.record(hot_cold_batch())
        profiler.end_window()
        assert profiler.overhead_ns == pytest.approx(4 * 10 * 40.0)

    def test_more_samples_less_noise(self):
        rng = np.random.default_rng(1)
        # Half the pages of region 0 touched.
        batch = rng.choice(PAGES_PER_REGION // 2, 2000)
        errors = {}
        for samples in (4, 128):
            estimates = []
            for trial in range(20):
                profiler = DamonProfiler(
                    num_regions=1,
                    cooling=1.0,
                    samples_per_region=samples,
                    seed=trial,
                )
                profiler.record(np.bincount(batch))
                estimates.append(profiler.end_window().hotness[0])
            truth = len(np.unique(batch))
            errors[samples] = np.mean([abs(e - truth) for e in estimates])
        assert errors[128] < errors[4]

    def test_validation(self):
        with pytest.raises(ValueError):
            DamonProfiler(num_regions=1, samples_per_region=0)


@pytest.mark.parametrize("cls", [IdleBitProfiler, DamonProfiler])
class TestAccessedBits:
    """``record`` sets the bits of the touched pages, as indexing with
    ``np.flatnonzero(counts)`` did."""

    def test_bits_match_the_touched_pages(self, cls):
        rng = np.random.default_rng(3)
        profiler = cls(num_regions=2)
        expected = np.zeros(2 * PAGES_PER_REGION, dtype=bool)
        for length in (2 * PAGES_PER_REGION, 700, 1, 0):
            counts = rng.integers(0, 3, length) * rng.integers(0, 2, length)
            profiler.record(counts)
            expected[np.flatnonzero(counts)] = True
            np.testing.assert_array_equal(profiler._accessed, expected)

    def test_all_zero_window_sets_nothing(self, cls):
        profiler = cls(num_regions=2)
        profiler.record(np.zeros(2 * PAGES_PER_REGION, dtype=np.int64))
        assert not profiler._accessed.any()

    def test_longer_window_with_an_untouched_tail_is_accepted(self, cls):
        profiler = cls(num_regions=1)
        counts = np.zeros(PAGES_PER_REGION + 9, dtype=np.int64)
        counts[[0, PAGES_PER_REGION - 1]] = 4
        profiler.record(counts)
        assert np.flatnonzero(profiler._accessed).tolist() == [
            0,
            PAGES_PER_REGION - 1,
        ]

    def test_touching_a_page_past_the_end_raises(self, cls):
        profiler = cls(num_regions=1)
        counts = np.zeros(PAGES_PER_REGION + 9, dtype=np.int64)
        counts[PAGES_PER_REGION + 4] = 1
        with pytest.raises(IndexError, match=str(PAGES_PER_REGION + 4)):
            profiler.record(counts)


class TestRegistry:
    def test_all_kinds_constructible(self):
        for kind in PROFILER_KINDS:
            profiler = make_profiler(kind, num_regions=2)
            profiler.record(np.bincount([0, 600]))
            record = profiler.end_window()
            assert record.hotness.shape == (2,)

    def test_pebs_is_default_profiler_class(self):
        assert isinstance(make_profiler("pebs", num_regions=1), Profiler)

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="available"):
            make_profiler("ebpf", num_regions=1)


class TestDaemonIntegration:
    @pytest.mark.parametrize("kind", PROFILER_KINDS)
    def test_daemon_runs_with_every_backend(self, system, kind):
        from repro.core.daemon import TSDaemon
        from repro.core.placement.static_threshold import StaticThresholdPolicy
        from repro.workloads.masim import MasimWorkload

        daemon = TSDaemon(
            system,
            StaticThresholdPolicy("CT", 50.0),
            telemetry=kind,
            sampling_rate=10,
            seed=1,
        )
        workload = MasimWorkload(
            num_pages=system.space.num_pages, ops_per_window=5000, seed=2
        )
        summary = run_windows(daemon, workload, 4)
        assert summary.windows == 4
        assert summary.final_tco_savings > 0  # all backends find the cold set
