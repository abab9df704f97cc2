"""Per-region hotness accumulation with EWMA cooling.

The hotness of a 2 MB region is the accumulated hotness of its 4 KB pages
(paper §7.2); across windows, hot pages cool gradually rather than becoming
cold instantaneously (paper §3.1), which is what creates the *warm* page
population TierScape exploits.  We implement the standard exponential
moving average the paper attributes to HeMem-style profilers::

    hotness <- (1 - cooling) * hotness + sampled_count

The fold takes per-region sample counts, the form the PEBS sampler
emits; :meth:`RegionHotness.observe` bins page ids into that form for
the backends that see pages (idle-bit scanning).
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION


class RegionHotness:
    """EWMA-cooled per-region access counts.

    Args:
        num_regions: Number of 2 MB regions tracked.
        cooling: Fraction of accumulated hotness forgotten per window, in
            ``[0, 1]``.  0 never cools (pure accumulation), 1 keeps only
            the current window.
    """

    def __init__(self, num_regions: int, cooling: float = 0.5) -> None:
        if num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if not 0.0 <= cooling <= 1.0:
            raise ValueError(f"cooling must be in [0, 1], got {cooling}")
        self.num_regions = num_regions
        self.cooling = cooling
        self.hotness = np.zeros(num_regions, dtype=np.float64)
        self.windows_observed = 0

    def fold(self, region_counts: np.ndarray) -> np.ndarray:
        """Fold one window of per-region sample counts into the hotness.

        Args:
            region_counts: Samples per region for this window.  It may
                be shorter than :attr:`num_regions` (missing regions got
                no samples) or longer, as long as every region past the
                tracked ones is zero.

        Returns:
            The updated hotness array (a reference, not a copy).

        Raises:
            ValueError: A sample landed outside the tracked regions.
        """
        region_counts = np.asarray(region_counts)
        tracked = self.num_regions
        if region_counts[tracked:].any():
            raise ValueError("sample outside the tracked address space")
        counts = np.zeros(tracked, dtype=np.float64)
        counts[: len(region_counts)] = region_counts[:tracked]
        self.hotness *= 1.0 - self.cooling
        self.hotness += counts
        self.windows_observed += 1
        return self.hotness

    def observe(self, sampled_page_ids: np.ndarray) -> np.ndarray:
        """:meth:`fold` one window of sampled page ids, binned by region."""
        return self.fold(
            np.bincount(
                np.asarray(sampled_page_ids) // PAGES_PER_REGION,
                minlength=self.num_regions,
            )
        )

    def threshold(self, percentile: float) -> float:
        """Hotness value at the given percentile (paper's H_th)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return float(np.percentile(self.hotness, percentile))

    def classify(self, percentile: float) -> np.ndarray:
        """Boolean mask of *hot* regions at a percentile threshold.

        Following the paper's §8.1: a region whose hotness exceeds the
        ``percentile``-th percentile is hot (promoted to DRAM); the rest are
        tiering candidates.  A higher percentile is therefore a more
        aggressive TCO setting.
        """
        return self.hotness > self.threshold(percentile)

    def rank(self) -> np.ndarray:
        """Region ids ordered from coldest to hottest."""
        return np.argsort(self.hotness, kind="stable")
