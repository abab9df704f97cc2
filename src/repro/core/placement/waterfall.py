"""The Waterfall placement model (paper §6.1, Figure 3).

At the end of every profile window:

* regions hotter than the threshold are promoted to DRAM, wherever they
  currently sit;
* every other region is demoted ("waterfalled") one tier down from its
  current assignment -- DRAM regions go to tier 1, tier 1 regions to
  tier 2, and so on; regions already in the last tier stay there.

Cold data therefore ages gradually through the tier ladder toward the best
TCO-saving tier, giving upfront savings that improve window after window --
but never the direct placement the analytical model achieves (the
"Discussion" trade-off in §6.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import linear_percentile
from repro.core.placement.base import PlacementModel
from repro.mem.system import TieredMemorySystem
from repro.telemetry.window import ProfileRecord


class WaterfallModel(PlacementModel):
    """Hot-up, everything-else-one-tier-down placement.

    Args:
        percentile: Hotness percentile defining hot regions (H_th); the
            evaluation uses 25 (conservative) through 75 (aggressive).
    """

    name = "Waterfall"

    def __init__(self, percentile: float = 25.0) -> None:
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        self.percentile = percentile

    def recommend(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> dict[int, int]:
        hotness = record.hotness
        threshold = linear_percentile(hotness, self.percentile)
        last_tier = len(system.tiers) - 1
        moves = np.minimum(system.pt.region_assigned + 1, last_tier)
        moves[hotness > threshold] = 0
        return dict(enumerate(moves.tolist()))
