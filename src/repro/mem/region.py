"""2 MB management regions (paper §7.2) as page-table views.

TS-Daemon manages the address space at 2 MB granularity: hotness is
accumulated per region and migrations move whole regions.  Individual 4 KB
pages may still *leave* a region's assigned tier on demand (a fault on a
compressed page promotes just that page), which is why the paper's Figure 9
distinguishes recommended from actual placement -- the simulator reproduces
that distinction.

Since the columnar refactor a :class:`Region` is a *view*: two slots (a
:class:`~repro.mem.pagetable.PageTable` reference and an index) and
properties that read/write the table's ``region_assigned`` /
``region_hotness`` columns.  :class:`RegionSet` materializes views lazily
on indexing/iteration instead of holding a list of region objects, so
bulk paths (the daemon's hotness scatter, the placement models' column
reads) never touch per-region Python objects at all.  A ``Region``
constructed without a table (or unpickled on its own) stores the two
values on the instance.
"""

from __future__ import annotations

from repro.mem.page import PAGES_PER_REGION
from repro.mem.pagetable import PageTable


class Region:
    """One 2 MB region of an application's address space (a table view).

    Attributes:
        region_id: Dense index of the region.
        assigned_tier: Index of the tier the placement model last assigned
            this region to (the *recommendation*); individual pages may have
            faulted elsewhere since.
        hotness: Cooled access count from telemetry (updated per window).
    """

    __slots__ = ("region_id", "_table", "_assigned", "_hotness")

    def __init__(
        self,
        region_id: int,
        assigned_tier: int = 0,
        hotness: float = 0.0,
        *,
        table: PageTable | None = None,
    ) -> None:
        self.region_id = region_id
        self._table = table
        if table is None:
            self._assigned = assigned_tier
            self._hotness = hotness

    # -- column-backed attributes -------------------------------------------

    @property
    def assigned_tier(self) -> int:
        if self._table is None:
            return self._assigned
        return int(self._table.region_assigned[self.region_id])

    @assigned_tier.setter
    def assigned_tier(self, value: int) -> None:
        if self._table is None:
            self._assigned = value
        else:
            self._table.region_assigned[self.region_id] = value

    @property
    def hotness(self) -> float:
        if self._table is None:
            return self._hotness
        return float(self._table.region_hotness[self.region_id])

    @hotness.setter
    def hotness(self, value: float) -> None:
        if self._table is None:
            self._hotness = value
        else:
            self._table.region_hotness[self.region_id] = value

    # -- geometry ------------------------------------------------------------

    @property
    def start_page(self) -> int:
        """First page id covered by this region."""
        return self.region_id * PAGES_PER_REGION

    @property
    def end_page(self) -> int:
        """One past the last page id covered by this region."""
        return self.start_page + PAGES_PER_REGION

    def pages(self) -> range:
        """Page ids covered by this region."""
        return range(self.start_page, self.end_page)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # Views detach on pickle: a region travelling alone (records,
        # diagnostics) carries its values, not the whole table.
        return {
            "region_id": self.region_id,
            "assigned_tier": self.assigned_tier,
            "hotness": self.hotness,
        }

    def __setstate__(self, state) -> None:
        self.region_id = state["region_id"]
        self._table = None
        self._assigned = state["assigned_tier"]
        self._hotness = state["hotness"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Region({self.region_id}, tier={self.assigned_tier}, "
            f"hotness={self.hotness:.1f})"
        )


class RegionSet:
    """The full set of regions of one address space (lazy views)."""

    __slots__ = ("table",)

    def __init__(self, table: PageTable) -> None:
        self.table = table

    @classmethod
    def for_pages(cls, num_pages: int) -> "RegionSet":
        """Create regions covering ``num_pages`` pages (must tile exactly)."""
        if num_pages % PAGES_PER_REGION:
            raise ValueError(
                f"num_pages ({num_pages}) must be a multiple of "
                f"{PAGES_PER_REGION} (2 MB regions)"
            )
        return cls(PageTable(num_pages))

    def __len__(self) -> int:
        return self.table.num_regions

    def __iter__(self):
        table = self.table
        for i in range(table.num_regions):
            yield Region(i, table=table)

    def __getitem__(self, idx: int) -> Region:
        table = self.table
        if not -table.num_regions <= idx < table.num_regions:
            raise IndexError(f"region index {idx} out of range")
        if idx < 0:
            idx += table.num_regions
        return Region(idx, table=table)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        return {"table": self.table}

    def __setstate__(self, state) -> None:
        self.table = state["table"]
