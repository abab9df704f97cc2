"""Two-tier baselines: HeMem*, GSwap*, TMO* (paper §8.1).

The prior-work tiering systems the paper compares against all share one
structure: a DRAM tier plus a single slow tier, with a hotness threshold
deciding promotion/demotion.  Following the paper, the threshold is
*percentile-based*: regions whose hotness exceeds the ``percentile``-th
percentile are promoted to DRAM, everything else is demoted to the slow
tier.

* **HeMem\\*** -- the slow tier is byte-addressable NVMM.
* **GSwap\\*** -- the slow tier is a DRAM-backed lzo+zsmalloc compressed
  tier (CT-1).
* **TMO\\*** -- the slow tier is an Optane-backed zstd+zsmalloc compressed
  tier (CT-2).
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import linear_percentile
from repro.core.placement.base import PlacementModel
from repro.mem.system import TieredMemorySystem
from repro.telemetry.window import ProfileRecord


class StaticThresholdPolicy(PlacementModel):
    """Percentile-threshold two-tier policy.

    Args:
        slow_tier: Name of the single slow tier used for demotion.
        percentile: Hotness percentile above which a region is hot
            (promoted to DRAM); the paper's default is the 25th percentile,
            and its aggressive variants use 50/75.
        name: Display name (e.g. ``"HeMem*"``).
    """

    def __init__(
        self, slow_tier: str, percentile: float = 25.0, name: str | None = None
    ) -> None:
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        self.slow_tier = slow_tier
        self.percentile = percentile
        self.name = name or f"threshold({slow_tier}@{percentile:g})"

    def recommend(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> dict[int, int]:
        slow_idx = system.tier_index(self.slow_tier)
        hotness = record.hotness
        threshold = linear_percentile(hotness, self.percentile)
        moves = np.where(hotness > threshold, 0, slow_idx)
        return dict(enumerate(moves.tolist()))
