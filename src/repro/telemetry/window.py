"""Per-window profiling pipeline: PEBS sampling into region hotness.

The :class:`Profiler` is what TS-Daemon runs during each profile window
(paper Figure 6): each window's per-page access counts go through the
sampler, which returns sampled accesses per 2 MB region; those counts
accumulate over the window, fold into region hotness at the window
boundary, and a :class:`ProfileRecord` snapshot feeds the placement
model.  Nothing on this path is per page after the sampler's one
reduction over the counts vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.hotness import RegionHotness
from repro.telemetry.pebs import PEBSSampler


@dataclass(frozen=True)
class ProfileRecord:
    """Snapshot of one profile window's telemetry.

    Attributes:
        window: Window index (0-based).
        hotness: Cooled per-region hotness after this window, shape
            ``(num_regions,)``.
        window_samples: PEBS samples taken during this window alone.
        sampling_rate: The sampler's period ``R`` (to rescale hotness back
            to absolute access-count estimates: ``hotness * R``).
    """

    window: int
    hotness: np.ndarray
    window_samples: int
    sampling_rate: int


class Profiler:
    """Composes a PEBS sampler and region hotness tracking.

    Args:
        num_regions: Regions in the profiled address space.
        sampling_rate: PEBS period (paper default 5000).
        cooling: EWMA cooling factor per window.
        seed: Sampler RNG seed.
    """

    def __init__(
        self,
        num_regions: int,
        sampling_rate: int = 5000,
        cooling: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.sampler = PEBSSampler(rate=sampling_rate, seed=seed)
        self.hotness = RegionHotness(num_regions, cooling=cooling)
        self._window = 0
        self._pending: list[np.ndarray] = []

    def record(self, counts: np.ndarray) -> None:
        """Feed a batch of per-page access counts into the current window."""
        self._pending.append(self.sampler.sample(counts))

    def end_window(self) -> ProfileRecord:
        """Close the current window and return its telemetry snapshot."""
        pending, self._pending = self._pending, []
        width = max([self.hotness.num_regions, *map(len, pending)])
        samples = np.zeros(width, dtype=np.int64)
        for region_counts in pending:
            samples[: len(region_counts)] += region_counts
        hotness = self.hotness.fold(samples).copy()
        record = ProfileRecord(
            window=self._window,
            hotness=hotness,
            window_samples=int(samples.sum()),
            sampling_rate=self.sampler.rate,
        )
        self._window += 1
        return record

    @property
    def overhead_ns(self) -> float:
        """Cumulative profiling CPU cost (for the Figure 14 tax report)."""
        return self.sampler.overhead_ns
