"""The memory TCO model (paper §6.6, Eqs. 8-10, and Eq. 1).

Two views of TCO exist in the system:

* the **modelled** TCO the ILP plans with -- a function of where each
  region *would* be placed, using each tier's expected per-page cost for
  the region's mean compressibility (Eq. 8's ``P * C * USD`` terms), and
* the **actual** TCO the simulator measures -- byte tiers charge resident
  pages, compressed tiers charge real pool pages
  (:meth:`repro.mem.system.TieredMemorySystem.tco`).

This module implements the modelled view: the cost matrix, ``TCO_max``,
``TCO_min`` and MTS (Eq. 1).
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import PAGES_PER_REGION
from repro.mem.tier import Tier


def cost_matrix(
    tiers: list[Tier], region_compressibility: np.ndarray
) -> np.ndarray:
    """Modelled TCO of each region in each tier.

    Args:
        tiers: The system's tiers, in system order.
        region_compressibility: Mean intrinsic compressibility per region,
            shape ``(R,)``.

    Returns:
        Array of shape ``(R, len(tiers))`` in relative $.
    """
    region_compressibility = np.asarray(region_compressibility, dtype=np.float64)
    out = np.empty((len(region_compressibility), len(tiers)))
    for t, tier in enumerate(tiers):
        out[:, t] = PAGES_PER_REGION * tier.expected_page_costs(
            region_compressibility
        )
    return out


def tco_max(costs: np.ndarray) -> float:
    """TCO with every region in DRAM (tier 0) -- Eq. 1's ``TCO_max``."""
    return float(costs[:, 0].sum())


def tco_min(costs: np.ndarray) -> float:
    """TCO with every region in its cheapest tier -- Eq. 1's ``TCO_min``."""
    return float(costs.min(axis=1).sum())


def mts(costs: np.ndarray) -> float:
    """Maximum TCO savings (Eq. 1): ``TCO_max - TCO_min``."""
    return tco_max(costs) - tco_min(costs)


def placement_tco(costs: np.ndarray, assignment: np.ndarray) -> float:
    """Modelled TCO of a concrete assignment (Eq. 10)."""
    rows = np.arange(costs.shape[0])
    return float(costs[rows, assignment].sum())
