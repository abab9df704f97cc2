"""The migration filter (paper §6.7).

The ILP deliberately omits capacity and contention constraints to stay
cheap; a filter pre-processes its output before migrations trigger:

1. **No-op elision** -- regions already assigned (and still resident) at
   their destination are dropped from the wave.
2. **Capacity bounding** -- the number of regions placed in a tier is
   bounded by the tier's remaining capacity; overflow regions keep their
   current placement.  Coldest regions win the contest for the highest
   TCO-saving tiers (they are the ones the model most wants there).
3. **Pressure avoidance** -- a compressed tier whose demand-fault rate in
   the last window exceeded a threshold is *pressured*: demotions into it
   are dropped for one window, preventing ping-pong when the access
   pattern shifts (the Figure 9 deep-dive behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION
from repro.mem.tier import CompressedTier
from repro.mem.system import TieredMemorySystem
from repro.telemetry.window import ProfileRecord


class MigrationFilter:
    """Pre-processes placement recommendations into a migration wave.

    Args:
        pressure_threshold: A compressed tier is pressured when its faults
            during the last window exceed this fraction of the pages it
            holds.  ``None`` disables pressure avoidance.
        enforce_capacity: Whether to apply capacity bounding (step 2).
    """

    def __init__(
        self,
        pressure_threshold: float | None = 0.5,
        enforce_capacity: bool = True,
    ) -> None:
        if pressure_threshold is not None and pressure_threshold < 0:
            raise ValueError("pressure_threshold must be >= 0 or None")
        self.pressure_threshold = pressure_threshold
        self.enforce_capacity = enforce_capacity
        self._last_faults: dict[str, int] = {}
        self.dropped_capacity = 0
        self.dropped_pressure = 0
        self.dropped_noop = 0

    def apply(
        self,
        moves: dict[int, int],
        record: ProfileRecord,
        system: TieredMemorySystem,
    ) -> dict[int, int]:
        """Filter a recommendation into an executable wave."""
        pressured = self._pressured_tiers(system)
        filtered: dict[int, int] = {}

        # Remaining capacity per tier, in regions.  Byte tiers count free
        # pages; compressed tiers count free *pool* pages, converted at the
        # pessimistic 1:1 ratio (a region never needs more pool pages than
        # its page count).
        remaining = [tier.free_pages // PAGES_PER_REGION for tier in system.tiers]

        if not moves:
            return filtered
        ids = np.fromiter(moves.keys(), np.int64, len(moves))
        dsts = np.fromiter(moves.values(), np.int64, len(moves))
        # Coldest-first, so cold regions claim the scarce TCO-saving
        # slots; ties keep the recommendation's order.
        order = np.argsort(record.hotness[ids], kind="stable")
        ids, dsts = ids[order], dsts[order]
        assigned = system.pt.region_assigned[ids]
        # A move is a no-op when its region is assigned to, and every one
        # of its pages sits in, the destination: one pass over all moves.
        pages = system.page_location.reshape(-1, PAGES_PER_REGION)[ids]
        noop = (dsts == assigned) & (pages == dsts[:, None]).all(axis=1)
        for region_id, dst, is_noop, assigned_tier in zip(
            ids.tolist(), dsts.tolist(), noop.tolist(), assigned.tolist()
        ):
            if is_noop:
                self.dropped_noop += 1
                continue
            if dst in pressured and dst != assigned_tier:
                self.dropped_pressure += 1
                continue
            if self.enforce_capacity:
                if remaining[dst] <= 0 and dst != 0:
                    self.dropped_capacity += 1
                    continue
                remaining[dst] -= 1
            filtered[region_id] = dst
        return filtered

    def _pressured_tiers(self, system: TieredMemorySystem) -> set[int]:
        """Compressed tiers whose last-window fault rate crossed the bar."""
        pressured: set[int] = set()
        if self.pressure_threshold is None:
            self._snapshot_faults(system)
            return pressured
        for idx, tier in enumerate(system.tiers):
            if not isinstance(tier, CompressedTier):
                continue
            delta = tier.stats.faults - self._last_faults.get(tier.name, 0)
            resident = max(tier.resident_pages, 1)
            if delta / resident > self.pressure_threshold:
                pressured.add(idx)
        self._snapshot_faults(system)
        return pressured

    def _snapshot_faults(self, system: TieredMemorySystem) -> None:
        for tier in system.tiers:
            if isinstance(tier, CompressedTier):
                self._last_faults[tier.name] = tier.stats.faults
