"""Workload interface.

A workload owns a page-id space of ``num_pages`` pages (it is bound to an
:class:`~repro.mem.address_space.AddressSpace` of at least that size) and
produces one window per profile window: a dense ``int64`` vector of
per-page access counts.  Nothing downstream sees the order of accesses
(the fault path and the telemetry read per-page counts), so i.i.d.
generators draw the counts directly; ordered sources (traversals, traces)
produce page ids, which :func:`count_ids` turns into counts once, at the
window boundary.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGE_SIZE, PAGES_PER_REGION


#: A sorted window is counted by binary search only when it holds at
#: least this many ids per page: one page-edge search costs about as
#: much as this many ``bincount`` increments (measured at 4,096 and
#: 65,536 pages).
SEARCH_MIN_IDS_PER_PAGE = 16

#: Ids tested for order at each end before the full pass, so an unsorted
#: window (a shuffled socket window, or a traversal whose ascending edge
#: pages are followed by random vertex pages) usually fails the test
#: without paying for it.
_ORDER_PROBE = 64


def expand_counts(counts: np.ndarray) -> np.ndarray:
    """The page ids of a counts window: page ``p`` repeated ``counts[p]``
    times, ascending.  For consumers of id streams (trace files, serve
    event sources); :func:`count_ids` is its inverse."""
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _ascending(ids: np.ndarray) -> bool:
    head, tail = ids[:_ORDER_PROBE], ids[-_ORDER_PROBE:]
    return (
        bool((head[1:] >= head[:-1]).all())
        and bool((tail[1:] >= tail[:-1]).all())
        and bool((ids[1:] >= ids[:-1]).all())
    )


def count_ids(
    ids: np.ndarray, num_pages: int, *, trusted: bool = False
) -> tuple[np.ndarray, int]:
    """A window's per-page counts from its page ids, and how many ids
    fell outside ``[0, num_pages)``: the inverse of :func:`expand_counts`.

    ``counts`` is ``np.bincount`` of the in-range ids with
    ``minlength=num_pages`` (``intp``, ``num_pages`` long); the other
    ids are dropped and counted in ``rejected``.  A non-decreasing
    window (every recorded and generated one) needs no min/max pass:
    its end ids bound it, binary searches cut off out-of-range ends,
    and with at least :data:`SEARCH_MIN_IDS_PER_PAGE` ids per page the
    counts are the gaps between page edges found by ``searchsorted``.

    Any other window is bincounted whole, and its ids are filtered only
    when ``bincount`` finds a negative id or a count past ``num_pages``.
    Unless the ids are ``trusted`` (the program's own generators), one
    ``max`` pass comes first, since a stray id far past ``num_pages``
    would make ``bincount`` allocate up to it.
    """
    n = len(ids)
    if n and _ascending(ids):
        lo = int(ids.searchsorted(0)) if ids[0] < 0 else 0
        hi = int(ids.searchsorted(num_pages)) if ids[-1] >= num_pages else n
        if hi - lo >= SEARCH_MIN_IDS_PER_PAGE * num_pages:
            edges = ids.searchsorted(np.arange(num_pages + 1))
            return np.diff(edges), n - (hi - lo)
        return np.bincount(ids[lo:hi], minlength=num_pages), n - (hi - lo)
    counts = None
    if trusted or not n or ids.max() < num_pages:
        try:
            counts = np.bincount(ids, minlength=num_pages)
        except ValueError:  # a negative id
            pass
    if counts is None or len(counts) > num_pages:
        kept = ids[(ids >= 0) & (ids < num_pages)]
        return np.bincount(kept, minlength=num_pages), n - len(kept)
    return counts, 0


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

        The default counts the page ids of :meth:`_generate`
        (:func:`count_ids`).
        """
        counts, rejected = count_ids(
            self._generate(rng), self.num_pages, trusted=True
        )
        if rejected:
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
