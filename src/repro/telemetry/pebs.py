"""Sampled access telemetry standing in for Intel PEBS.

PEBS delivers one record per ``R`` retired memory instructions (the paper
uses ``R = 5000``, §7.2); each record carries the virtual address touched.
On a simulated access stream the exact equivalent is Bernoulli thinning:
every simulated access is independently kept with probability ``1/R``.
A window arrives as per-page access counts, so the sampler thins by
position instead: ``S ~ Binomial(n, 1/R)`` sampled accesses, a uniform
``S``-subset of the ``n`` positions, each position mapped to its page
through the cumulative counts.  That is Bernoulli thinning in
distribution, at O(n/R) draws instead of n.

The sampler also charges a small per-sample CPU overhead so the "TierScape
Tax" experiment (Figure 14) can report a non-zero but minimal profiling
cost, as the paper measures.
"""

from __future__ import annotations

import numpy as np

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
            counts: Accesses per page (``counts[p]`` to page ``p``).

        Returns:
            The page id of every sampled access (one entry per sample).
        """
        counts = np.asarray(counts)
        n = int(counts.sum())
        self.events_seen += n
        if self.rate == 1:
            sampled = np.repeat(np.arange(len(counts)), counts)
        else:
            rng = self._rng
            k = int(rng.binomial(n, 1.0 / self.rate))
            positions = rng.choice(n, size=k, replace=False, shuffle=False)
            # Sorted keys make the search ~3x faster (each one starts
            # from the previous hit) and return pages in ascending order.
            positions.sort()
            sampled = np.cumsum(counts).searchsorted(positions, side="right")
        self.samples_taken += len(sampled)
        self.overhead_ns += len(sampled) * SAMPLE_HANDLING_NS
        return sampled

    @property
    def effective_rate(self) -> float:
        """Observed events-per-sample (should approach ``rate``)."""
        if self.samples_taken == 0:
            return float("inf")
        return self.events_seen / self.samples_taken
