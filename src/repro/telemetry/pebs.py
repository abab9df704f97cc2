"""Sampled access telemetry standing in for Intel PEBS.

PEBS delivers one record per ``R`` retired memory instructions (the paper
uses ``R = 5000``, §7.2); each record carries the virtual address touched.
On a simulated access stream the exact equivalent is Bernoulli thinning:
every simulated access is independently kept with probability ``1/R``.

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
    """Bernoulli thinning of an access stream.

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
        # Reused across calls; ``rng.random(out=...)`` consumes the stream
        # identically to ``rng.random(size)``.
        self._scr_u: np.ndarray | None = None
        self._scr_keep: np.ndarray | None = None

    def __getstate__(self) -> dict:
        # Scratch is rebuilt on the next call; checkpoints skip it.
        state = self.__dict__.copy()
        state["_scr_u"] = state["_scr_keep"] = None
        return state

    def sample(self, page_ids: np.ndarray) -> np.ndarray:
        """Thin a batch of accessed page ids down to the sampled subset.

        Args:
            page_ids: 1-D array of page ids, one entry per access.

        Returns:
            The sampled page ids (a subset, order preserved).
        """
        page_ids = np.asarray(page_ids)
        self.events_seen += len(page_ids)
        if self.rate == 1:
            sampled = page_ids
        else:
            n = len(page_ids)
            if self._scr_u is None or self._scr_u.size < n:
                self._scr_u = np.empty(n)
                self._scr_keep = np.empty(n, dtype=bool)
            u = self._scr_u[:n]
            self._rng.random(out=u)
            keep = self._scr_keep[:n]
            np.less(u, 1.0 / self.rate, out=keep)
            sampled = page_ids[keep]
        self.samples_taken += len(sampled)
        self.overhead_ns += len(sampled) * SAMPLE_HANDLING_NS
        return sampled

    @property
    def effective_rate(self) -> float:
        """Observed events-per-sample (should approach ``rate``)."""
        if self.samples_taken == 0:
            return float("inf")
        return self.events_seen / self.samples_taken
