"""DAMON-style sampling telemetry (the paper's citation [44]).

DAMON estimates per-region access frequency by probing a few sampled
addresses per region each interval and checking their ACCESSED bits --
O(samples) cost regardless of address-space size, at the price of
statistical noise that shrinks as a region's access density grows.

This profiler keeps TierScape's fixed 2 MB regions (rather than DAMON's
adaptive region splitting/merging) and estimates each region's *touched
fraction* from ``samples_per_region`` random probes, scaling it to an
expected touched-page count so the output is directly comparable to the
idle-bit scanner's.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION
from repro.telemetry.hotness import RegionHotness
from repro.telemetry.idlebit import set_accessed_bits
from repro.telemetry.window import ProfileRecord

#: Cost to probe one sampled address (page-table walk + bit check), ns.
PROBE_NS = 40.0


class DamonProfiler:
    """Sampled ACCESSED-bit telemetry with fixed regions.

    Args:
        num_regions: Regions in the profiled address space.
        cooling: EWMA cooling factor per window.
        samples_per_region: Probes per region per window (DAMON's
            effective per-region budget; 5-20 is typical).
        seed: Probe-selection RNG seed.
    """

    def __init__(
        self,
        num_regions: int,
        cooling: float = 0.5,
        samples_per_region: int = 10,
        seed: int = 0,
    ) -> None:
        if samples_per_region < 1:
            raise ValueError("samples_per_region must be >= 1")
        self.num_regions = num_regions
        self.num_pages = num_regions * PAGES_PER_REGION
        self.samples_per_region = samples_per_region
        self.hotness = RegionHotness(num_regions, cooling=cooling)
        self._rng = np.random.default_rng(seed)
        self._accessed = np.zeros(self.num_pages, dtype=bool)
        self._window = 0
        self.overhead_ns = 0.0
        self.sampler = None  # interface parity with the PEBS profiler

    def record(self, counts: np.ndarray) -> None:
        set_accessed_bits(self._accessed, counts)

    def end_window(self) -> ProfileRecord:
        probes = self._rng.integers(
            0, PAGES_PER_REGION, size=(self.num_regions, self.samples_per_region)
        )
        base = np.arange(self.num_regions)[:, None] * PAGES_PER_REGION
        probe_pages = (base + probes).reshape(-1)
        hits = self._accessed[probe_pages].reshape(
            self.num_regions, self.samples_per_region
        )
        self.overhead_ns += probe_pages.size * PROBE_NS
        touched_fraction = hits.mean(axis=1)
        estimated_touched = touched_fraction * PAGES_PER_REGION

        # One hotness unit per estimated touched page, like the idle-bit
        # scanner's touched-page count.
        hotness = self.hotness.fold(
            np.rint(estimated_touched).astype(np.int64)
        ).copy()
        # Clear only the probed bits (test-and-clear semantics).
        self._accessed[probe_pages] = False
        record = ProfileRecord(
            window=self._window,
            hotness=hotness,
            window_samples=int(hits.sum()),
            sampling_rate=1,
        )
        self._window += 1
        return record
