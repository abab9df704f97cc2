"""Columnar (structure-of-arrays) page/region metadata table.

All per-page and per-region metadata of one address space lives here as
parallel numpy columns -- the same engineering move TPP makes in the
kernel, where page state is flat per-NUMA arrays scanned in bulk rather
than an object graph.  :class:`~repro.mem.region.Region` (and any future
page view) is a thin index-backed view over these columns; nothing in the
simulator's hot paths allocates a Python object per page.

Page columns (shape ``(num_pages,)``):

==============  =======  ====================================================
column          dtype    meaning
==============  =======  ====================================================
``tier``        int16    index of the tier currently holding the page
``last_access`` int64    profile window of the most recent access
``region_id``   int32    owning 2 MB region (static tiling)
``ct_owner``    int16    compressed tier *token* storing the page, -1 if none
``csize``       int64    compressed size in bytes while stored, else 0
``obj_id``      int64    pool-allocator object id while stored, else -1
``alloc_site``  int32    static allocation-site/object id (OBASE granularity)
==============  =======  ====================================================

Region columns (shape ``(num_regions,)``): ``region_assigned`` (int16,
the placement model's last recommendation) and ``region_hotness``
(float64, cooled telemetry hotness).

The ``resident`` flag of a page is derived: ``ct_owner < 0`` means the
page is byte-addressable (uncompressed) wherever ``tier`` says it is.
Keeping it derived instead of stored makes drift impossible.

Invariants (checked by the property suites, relied on by
``repro.chaos.invariants``):

* ``ct_owner[p] == t`` implies ``csize[p] >= 1`` and ``obj_id[p] >= 0``;
  ``ct_owner[p] == -1`` implies ``csize[p] == 0`` and ``obj_id[p] == -1``.
* A page has at most one compressed owner (one column cell).
* ``tier`` is maintained by :class:`~repro.mem.system.TieredMemorySystem`
  only; compressed-tier membership columns are maintained by
  :class:`~repro.mem.tier.CompressedTier` only.  During the window where
  a migration is mid-flight the two may legitimately disagree.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION

#: ``last_access`` value meaning "never accessed" (far past).
NEVER_ACCESSED = -(1 << 30)


class PageTable:
    """Parallel numpy columns for one address space's pages and regions.

    Args:
        num_pages: Pages covered by the page columns.
        num_regions: Regions covered by the region columns; ``None``
            derives it from the 2 MB tiling when ``num_pages`` tiles
            exactly, else 0 (private tier-side tables don't tile).
    """

    __slots__ = (
        "num_pages",
        "num_regions",
        "tier",
        "last_access",
        "region_id",
        "ct_owner",
        "csize",
        "obj_id",
        "alloc_site",
        "region_assigned",
        "region_hotness",
    )

    #: Column names, in serialization order.
    PAGE_COLUMNS = (
        "tier",
        "last_access",
        "region_id",
        "ct_owner",
        "csize",
        "obj_id",
        "alloc_site",
    )
    REGION_COLUMNS = ("region_assigned", "region_hotness")

    def __init__(self, num_pages: int, num_regions: int | None = None) -> None:
        if num_pages < 0:
            raise ValueError("num_pages must be >= 0")
        if num_regions is None:
            num_regions = (
                num_pages // PAGES_PER_REGION
                if num_pages % PAGES_PER_REGION == 0
                else 0
            )
        self.num_pages = num_pages
        self.num_regions = num_regions
        self.tier = np.zeros(num_pages, dtype=np.int16)
        self.last_access = np.full(num_pages, NEVER_ACCESSED, dtype=np.int64)
        self.region_id = (
            np.arange(num_pages, dtype=np.int32) // PAGES_PER_REGION
            if num_regions
            else np.zeros(num_pages, dtype=np.int32)
        )
        self.ct_owner = np.full(num_pages, -1, dtype=np.int16)
        self.csize = np.zeros(num_pages, dtype=np.int64)
        self.obj_id = np.full(num_pages, -1, dtype=np.int64)
        # Static allocation-site ids; the default (one object per region)
        # degrades OBASE-granularity policies to region granularity until
        # the address space assigns real allocation runs.
        self.alloc_site = self.region_id.astype(np.int32)
        self.region_assigned = np.zeros(num_regions, dtype=np.int16)
        self.region_hotness = np.zeros(num_regions, dtype=np.float64)

    # -- derived views -------------------------------------------------------

    @property
    def resident(self) -> np.ndarray:
        """Boolean mask of pages currently byte-addressable (derived)."""
        return self.ct_owner < 0

    def placement_counts(self, num_tiers: int) -> np.ndarray:
        """Pages per tier, shape ``(num_tiers,)``."""
        return np.bincount(self.tier, minlength=num_tiers)

    def compressed_bytes_in_range(self, token: int, start: int, stop: int) -> int:
        """Compressed bytes stored under ``token`` for pages in ``[start, stop)``."""
        sl = slice(start, stop)
        return int(self.csize[sl][self.ct_owner[sl] == token].sum())

    # -- grouping ------------------------------------------------------------

    @staticmethod
    def group_ordered(
        keys: np.ndarray, *, first_seen: bool = False
    ) -> list[tuple[int, np.ndarray]]:
        """Group positions ``0..len(keys)`` by key, preserving input order.

        Each key's positions come out in input order, which is what
        order-sensitive allocator paths require.  A single key value
        takes no sort; otherwise one stable argsort, whose runs of equal
        keys bound the groups.

        Args:
            keys: 1-D integer key per position.
            first_seen: Emit groups in first-occurrence order instead of
                ascending key order (sequential-loop parity for paths
                that create state per new key).

        Returns:
            ``(key, positions)`` pairs; ``positions`` is an int array of
            the input positions holding ``key``, in input order.
        """
        n = len(keys)
        if n == 0:
            return []
        lo = int(keys.min())
        hi = int(keys.max())
        if lo == hi:
            return [(lo, np.arange(n))]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        bounds = [0] + starts.tolist() + [n]
        groups = [
            (int(sorted_keys[start]), order[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        ]
        if first_seen:
            groups.sort(key=lambda group: group[1][0])
        return groups

    # -- lifecycle -----------------------------------------------------------

    def reset_placement(self) -> None:
        """Reset page-level columns to the all-in-tier-0 initial state.

        Called when a fresh :class:`~repro.mem.system.TieredMemorySystem`
        binds to the address space: placement state is per-system, while
        the region columns are *not* touched, since regions belong to the
        space.
        """
        self.tier[:] = 0
        self.last_access[:] = NEVER_ACCESSED
        self.ct_owner[:] = -1
        self.csize[:] = 0
        self.obj_id[:] = -1

    def grow(self, min_pages: int) -> None:
        """Grow the page columns to at least ``min_pages`` (private tables).

        Unbound :class:`~repro.mem.tier.CompressedTier` instances size
        their private tables on demand; doubling keeps the amortized
        cost constant.
        """
        if min_pages <= self.num_pages:
            return
        new = max(min_pages, 2 * self.num_pages, 64)
        for name, fill in (
            ("tier", 0),
            ("last_access", NEVER_ACCESSED),
            ("region_id", 0),
            ("ct_owner", -1),
            ("csize", 0),
            ("obj_id", -1),
            ("alloc_site", 0),
        ):
            old = getattr(self, name)
            col = np.full(new, fill, dtype=old.dtype)
            col[: old.size] = old
            setattr(self, name, col)
        self.num_pages = new

    # -- serialization -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """All columns by name."""
        return {
            name: getattr(self, name)
            for name in self.PAGE_COLUMNS + self.REGION_COLUMNS
        }

    def __getstate__(self):
        state = {"num_pages": self.num_pages, "num_regions": self.num_regions}
        state.update(self.columns())
        return state

    def __setstate__(self, state) -> None:
        self.num_pages = state["num_pages"]
        self.num_regions = state["num_regions"]
        for name in self.PAGE_COLUMNS + self.REGION_COLUMNS:
            setattr(self, name, state[name])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PageTable({self.num_pages} pages, {self.num_regions} regions)"

