"""Workload interface.

A workload owns a page-id space of ``num_pages`` pages (it is bound to an
:class:`~repro.mem.address_space.AddressSpace` of at least that size) and
produces one window per profile window: a dense ``int64`` vector of
per-page access counts.  Nothing downstream sees the order of accesses
(the fault path and the telemetry read per-page counts), so i.i.d.
generators draw the counts directly; ordered sources (traversals, traces)
produce page ids and are bincounted once, at the window boundary.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGE_SIZE, PAGES_PER_REGION


def expand_counts(counts: np.ndarray) -> np.ndarray:
    """The page ids of a counts window: page ``p`` repeated ``counts[p]``
    times, ascending.  For consumers of id streams (trace files, serve
    event sources)."""
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


class Workload:
    """Access-trace generator.

    Subclasses implement :meth:`_generate` (an ordered source's page ids)
    or override :meth:`_generate_counts` (per-page counts drawn
    directly).

    Attributes:
        name: Display name used in reports.
        num_pages: Size of the touched page-id space.
        ops_per_window: Accesses generated per profile window.
        write_fraction: Fraction of accesses that are stores.
    """

    name: str = "workload"
    write_fraction: float = 0.0

    def __init__(
        self, num_pages: int, ops_per_window: int, seed: int = 0
    ) -> None:
        if num_pages < PAGES_PER_REGION:
            raise ValueError(
                f"workloads must span at least one region "
                f"({PAGES_PER_REGION} pages)"
            )
        if ops_per_window < 1:
            raise ValueError("ops_per_window must be >= 1")
        self.num_pages = num_pages
        self.ops_per_window = ops_per_window
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.window = 0

    @property
    def rss_bytes(self) -> int:
        """Simulated resident set size."""
        return self.num_pages * PAGE_SIZE

    def next_window(self) -> np.ndarray:
        """Generate the next window: accesses per page, shape ``(num_pages,)``."""
        counts = self._generate_counts(self._rng)
        self.window += 1
        return counts

    def reset(self) -> None:
        """Rewind to window 0 with the original seed."""
        self._rng = np.random.default_rng(self.seed)
        self.window = 0

    def _generate_counts(self, rng: np.random.Generator) -> np.ndarray:
        """One window's per-page counts; called by :meth:`next_window`.

        The default bincounts the page ids of :meth:`_generate`.
        """
        try:
            counts = np.bincount(self._generate(rng), minlength=self.num_pages)
        except ValueError:  # a negative id
            counts = None
        if counts is None or len(counts) > self.num_pages:
            raise AssertionError(
                f"{self.name} generated out-of-range page ids"
            )
        return counts

    def _generate(self, rng: np.random.Generator) -> np.ndarray:
        """One window's page ids, with repeats (ordered sources)."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _generate nor "
            "_generate_counts"
        )
