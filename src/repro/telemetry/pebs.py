"""Sampled access telemetry standing in for Intel PEBS.

PEBS delivers one record per ``R`` retired memory instructions (the paper
uses ``R = 5000``, §7.2); each record carries the virtual address touched.
On a simulated access stream the exact equivalent is Bernoulli thinning:
every simulated access is independently kept with probability ``1/R``.
A window arrives as per-page access counts, so the sampler thins by
position instead: ``S ~ Binomial(n, 1/R)`` sampled accesses, a uniform
``S``-subset of the ``n`` positions, each position mapped to its 2 MB
region through the per-region cumulative counts.  That is Bernoulli
thinning in distribution, at O(n/R) draws instead of n.  TS-Daemon bins
samples by region (§7.2), so the sampler returns per-region sample
counts and never materializes page ids.

The sampler also charges a small per-sample CPU overhead so the "TierScape
Tax" experiment (Figure 14) can report a non-zero but minimal profiling
cost, as the paper measures.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION

#: The paper's PEBS sampling period (1 sample per 5000 events).
PEBS_DEFAULT_RATE = 5000

#: CPU cost to handle one PEBS record (drain buffer, translate, bin), ns.
SAMPLE_HANDLING_NS = 200.0


class PEBSSampler:
    """Bernoulli thinning of an access stream, drawn by position.

    Args:
        rate: Sampling period ``R``; each access is sampled with
            probability ``1/R``.  ``rate=1`` records every access (useful
            in tests).
        seed: RNG seed for reproducibility.
    """

    def __init__(self, rate: int = PEBS_DEFAULT_RATE, seed: int = 0) -> None:
        if rate < 1:
            raise ValueError(f"sampling rate must be >= 1, got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self.samples_taken = 0
        self.events_seen = 0
        self.overhead_ns = 0.0

    def sample(self, counts: np.ndarray) -> np.ndarray:
        """Sample a window of per-page access counts.

        Args:
            counts: Accesses per page (``counts[p]`` to page ``p``); any
                length, not necessarily a whole number of regions.

        Returns:
            Sampled accesses per 2 MB region, shape
            ``(ceil(len(counts) / PAGES_PER_REGION),)``.
        """
        counts = np.asarray(counts)
        region_counts = np.add.reduceat(
            counts, np.arange(0, len(counts), PAGES_PER_REGION), dtype=np.int64
        )
        if self.rate == 1:
            n = taken = int(region_counts.sum())
            sampled = region_counts
        else:
            bounds = np.cumsum(region_counts)
            n = int(bounds[-1]) if len(bounds) else 0
            rng = self._rng
            taken = int(rng.binomial(n, 1.0 / self.rate))
            positions = rng.choice(n, size=taken, replace=False, shuffle=False)
            # Count the positions below each region's upper bound: one
            # search per region into the sorted positions, ~4x faster
            # than searching every position among the bounds.
            positions.sort()
            sampled = np.diff(positions.searchsorted(bounds), prepend=0)
        self.events_seen += n
        self.samples_taken += taken
        self.overhead_ns += taken * SAMPLE_HANDLING_NS
        return sampled

    @property
    def effective_rate(self) -> float:
        """Observed events-per-sample (should approach ``rate``)."""
        if self.samples_taken == 0:
            return float("inf")
        return self.events_seen / self.samples_taken
