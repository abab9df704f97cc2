"""Idle-page-tracking telemetry (the Google software-defined far memory
approach the paper cites as [38], built on Linux idle page tracking [31]).

Instead of sampling individual accesses like PEBS, the kernel's ACCESSED
bits are scanned once per profile window: the profiler learns, for every
page, only the boolean "touched since the last scan".  Region hotness is
then the EWMA-cooled count of touched pages -- coarser than PEBS counts
(a page touched once and a page touched a million times look identical),
but with zero sampling noise and a fixed, predictable scan cost.

Implements the same interface as :class:`repro.telemetry.window.Profiler`
so the daemon can swap backends (see ``repro.telemetry.make_profiler``).
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION
from repro.telemetry.hotness import RegionHotness
from repro.telemetry.window import ProfileRecord

#: Cost to test-and-clear one page's ACCESSED bit during a scan, ns.
SCAN_NS_PER_PAGE = 15.0


def set_accessed_bits(bits: np.ndarray, counts: np.ndarray) -> None:
    """Set the ACCESSED bit of every page ``counts`` touches.

    ORs the boolean ``counts != 0`` into ``bits``: numpy's nonzero on an
    integer window costs about twice the comparison.  A window shorter
    than ``bits`` leaves the pages past its end alone; a longer one
    raises :class:`IndexError` if it touches a page past ``bits``.
    """
    touched = np.asarray(counts) != 0
    n = bits.size
    if touched.size > n and touched[n:].any():
        page = n + int(np.argmax(touched[n:]))
        raise IndexError(f"page {page} is out of bounds for {n} profiled pages")
    bits[: touched.size] |= touched[:n]


class IdleBitProfiler:
    """ACCESSED-bit scanning profiler.

    Args:
        num_regions: Regions in the profiled address space.
        cooling: EWMA cooling factor per window.
        scan_fraction: Fraction of the address space scanned per window
            (1.0 = full scan, like the kernel's per-cycle sweep; lower
            values model incremental scanning and miss some pages).
        seed: RNG seed for partial-scan page selection.
    """

    def __init__(
        self,
        num_regions: int,
        cooling: float = 0.5,
        scan_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < scan_fraction <= 1.0:
            raise ValueError("scan_fraction must be in (0, 1]")
        self.num_pages = num_regions * PAGES_PER_REGION
        self.hotness = RegionHotness(num_regions, cooling=cooling)
        self.scan_fraction = scan_fraction
        self._rng = np.random.default_rng(seed)
        self._accessed = np.zeros(self.num_pages, dtype=bool)
        self._window = 0
        self.overhead_ns = 0.0
        self.sampler = None  # interface parity with the PEBS profiler

    def record(self, counts: np.ndarray) -> None:
        """Accumulate this batch's ACCESSED bits (free: hardware sets them)."""
        set_accessed_bits(self._accessed, counts)

    def end_window(self) -> ProfileRecord:
        """Scan (a fraction of) the ACCESSED bits and fold into hotness."""
        if self.scan_fraction >= 1.0:
            scanned = self._accessed
            pages_scanned = self.num_pages
        else:
            mask = self._rng.random(self.num_pages) < self.scan_fraction
            scanned = self._accessed & mask
            pages_scanned = int(mask.sum())
        touched_pages = np.nonzero(scanned)[0]
        self.overhead_ns += pages_scanned * SCAN_NS_PER_PAGE
        hotness = self.hotness.observe(touched_pages).copy()
        # Test-and-clear: scanned bits reset, unscanned bits persist.
        self._accessed[scanned] = False
        record = ProfileRecord(
            window=self._window,
            hotness=hotness,
            window_samples=len(touched_pages),
            # One "sample" = one touched page; there is no per-access
            # count to rescale, so expose rate 1 and let models treat the
            # touched-page count as the hotness estimate.
            sampling_rate=1,
        )
        self._window += 1
        return record
