"""Spatial prefetcher for compressed tiers (paper §3.2, future work).

The paper notes that prefetching -- proactively decompressing pages likely
to be accessed soon, as Google's software-defined far memory does with an
ML predictor [38] -- composes with TierScape and "can be additionally
employed"; it is left as future work.  This module implements the simplest
useful instance: a **spatial next-N prefetcher**.  When a page faults out
of a compressed tier, its neighbouring pages in the same 2 MB region are
likely next (sequential scans, object spill-over), so the prefetcher
decompresses up to ``degree`` of the following pages in the background.

Accounting follows the paper's conventions: prefetch (de)compression work
is daemon tax (it runs on spare cores), while a *correct* prefetch
converts a future multi-microsecond fault into a DRAM hit.  Incorrect
prefetches waste daemon work and reduce TCO savings, exactly the trade-off
§3.2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.page import PAGES_PER_REGION, page_to_region
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import CompressedTier


@dataclass
class PrefetchStats:
    """Outcome counters for the prefetcher.

    Attributes:
        issued: Pages proactively decompressed.
        useful: Issued pages that were then accessed before re-demotion
            (measured lazily: accessed while still resident).
        daemon_ns: Background decompression time charged as daemon tax.
    """

    issued: int = 0
    useful: int = 0
    daemon_ns: float = 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that were useful."""
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued


class SpatialPrefetcher:
    """Next-N-pages prefetcher triggered by compressed-tier faults.

    Args:
        system: The memory system to prefetch within.
        degree: Pages to prefetch after each faulting page (within the
            same 2 MB region).
    """

    def __init__(self, system: TieredMemorySystem, degree: int = 4) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.system = system
        self.degree = degree
        self.stats = PrefetchStats()
        self._outstanding: set[int] = set()

    def on_window(self, faulted_pages) -> float:
        """React to one window's faults; returns daemon nanoseconds.

        Args:
            faulted_pages: Page ids that demand-faulted this window
                (an array or a sequence).
        """
        system = self.system
        # Score previously issued prefetches: an outstanding prefetch was
        # useful if the page has been accessed since it was issued.
        for pid in list(self._outstanding):
            if system.last_access_window[pid] >= system.current_window - 1:
                self.stats.useful += 1
                self._outstanding.discard(pid)
        ns = 0.0
        for pid in np.asarray(faulted_pages, dtype=np.int64).tolist():
            region_end = (page_to_region(pid) + 1) * PAGES_PER_REGION
            for neighbour in range(pid + 1, min(pid + 1 + self.degree, region_end)):
                loc = int(system.page_location[neighbour])
                tier = system.tiers[loc]
                if not isinstance(tier, CompressedTier):
                    continue
                ns += system.move_page(neighbour, 0)
                # A prefetched page lands on the active LRU, which protects
                # it from being re-demoted before the application gets a
                # chance to touch it (otherwise the placement model would
                # undo the prefetch in the same window).
                system.last_access_window[neighbour] = system.current_window
                self.stats.issued += 1
                self._outstanding.add(neighbour)
        self.stats.daemon_ns += ns
        return ns
