"""Kernel-shaped zswap frontend over the tiered memory system.

The simulator's fast path works on integer arrays; integrators porting
logic to (or from) a real kernel want the zswap-shaped API the paper's
patch exposes instead: ``store`` / ``load`` / ``invalidate`` keyed by
page, swap entries recording the owning tier (paper §7.1), and the
per-pool statistics dump the artifact's ``make ntier_setup`` prints::

    zswap: Tier CData pool compressor backing Pages isCPUComp Faults
    zswap: 0 0 zsmalloc lzo 0 0 true 0

:class:`ZswapFrontend` maintains a :class:`~repro.mem.swapentry.
SwapEntryTable` in lockstep with the underlying system and renders that
table, so tooling written against the kernel interface runs unchanged
against the simulator.
"""

from __future__ import annotations

from repro.mem.swapentry import FLAG_ACCESSED, SwapEntry, SwapEntryTable
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import CompressedTier


class ZswapFrontend:
    """zswap-style store/load/invalidate API plus pool statistics.

    Args:
        system: The tiered memory system to front.  Every compressed tier
            in the system is one zswap pool.
    """

    def __init__(self, system: TieredMemorySystem) -> None:
        self.system = system
        self.entries = SwapEntryTable()
        self._object_counter = 0
        self._compressed_tiers = [
            (idx, tier)
            for idx, tier in enumerate(system.tiers)
            if isinstance(tier, CompressedTier)
        ]
        if not self._compressed_tiers:
            raise ValueError("system has no compressed tiers to front")

    # -- kernel-shaped operations ---------------------------------------------

    def store(self, page_id: int, tier_name: str) -> float:
        """Compress ``page_id`` into the named pool; returns nanoseconds.

        The kernel analogue: the modified ``madvise()`` sets the page's
        ``tier_id`` and the zswap store path places the object in that
        pool (paper §7.1).
        """
        tier_idx = self.system.tier_index(tier_name)
        tier = self.system.tiers[tier_idx]
        if not isinstance(tier, CompressedTier):
            raise ValueError(f"tier {tier_name!r} is not a zswap pool")
        ns = self.system.move_page(page_id, tier_idx)
        landed = int(self.system.page_location[page_id])
        if landed == tier_idx:
            self.entries.insert(
                page_id,
                SwapEntry(tier_id=tier_idx, object_id=self._next_object_id()),
            )
        return ns

    def load(self, page_id: int) -> float:
        """Fault ``page_id`` back to DRAM; returns the fault latency."""
        if page_id not in self.entries:
            raise KeyError(f"page {page_id} is not in any zswap pool")
        self.entries.mark(page_id, FLAG_ACCESSED)
        self.entries.remove(page_id)
        import numpy as np

        counts = np.zeros(page_id + 1, dtype=np.int64)
        counts[page_id] = 1
        result = self.system.access_batch(counts)
        return result.access_ns

    def invalidate(self, page_id: int) -> None:
        """Drop a stored page without decompressing it (kernel: the page
        was freed by the application)."""
        entry = self.entries.remove(page_id)
        tier = self.system.tiers[entry.tier_id]
        assert isinstance(tier, CompressedTier)
        tier.remove_page(page_id)
        # The page ceases to exist for the app; account it back to DRAM
        # as a fresh (zero) page, which is what the kernel's rmap does.
        self.system.tiers[0].add_pages(1)
        self.system.page_location[page_id] = 0

    def _next_object_id(self) -> int:
        self._object_counter += 1
        return self._object_counter

    # -- statistics -------------------------------------------------------------

    def pool_stats(self) -> list[dict]:
        """Per-pool counters, one row per compressed tier."""
        rows = []
        for idx, tier in self._compressed_tiers:
            rows.append(
                {
                    "tier": idx,
                    "pool": tier.allocator.name,
                    "compressor": tier.algorithm.name,
                    "backing": tier.media.name,
                    "pages": tier.resident_pages,
                    "pool_pages": tier.used_pages,
                    "compressed_bytes": tier.stats.compressed_bytes,
                    "faults": tier.stats.faults,
                }
            )
        return rows

    def format_stats(self) -> str:
        """The artifact's dmesg-style pool dump."""
        lines = [f"zswap: Total zswap pools {len(self._compressed_tiers)}"]
        lines.append(
            "zswap: Tier CData pool compressor backing Pages isCPUComp Faults"
        )
        for row in self.pool_stats():
            lines.append(
                f"zswap: {row['tier']} {row['compressed_bytes']} "
                f"{row['pool']} {row['compressor']} {row['backing']} "
                f"{row['pages']} true {row['faults']}"
            )
        return "\n".join(lines)
