"""The performance-overhead model (paper §6.5, Eqs. 3-7).

``perf_opt`` is the run with every load served from DRAM (Eq. 3); placing a
region elsewhere charges, per expected access,

* a byte-addressable tier its latency delta ``delta = Lat_T - Lat_DRAM``
  (Eq. 6's first term), or
* a compressed tier its full fault latency ``Lat_CT`` (the page must be
  decompressed into DRAM before use -- Eq. 6's second term).

Expected per-region accesses for the next window are extrapolated from the
profiled window (the proportionality assumption the paper states after
Eq. 10), i.e. ``hotness_samples * sampling_rate``.
"""

from __future__ import annotations

import numpy as np

from repro.mem.tier import ByteAddressableTier, CompressedTier, Tier


def per_access_penalty(
    tiers: list[Tier], region_compressibility: np.ndarray
) -> np.ndarray:
    """Per-access overhead of each tier for each region, shape ``(R, T)``.

    For byte tiers the column is constant (the latency delta does not
    depend on the data); for compressed tiers it varies with the region's
    compressibility, since less-compressible data streams a bigger object
    from the backing medium.
    """
    region_compressibility = np.asarray(region_compressibility, dtype=np.float64)
    dram_ns = tiers[0].media.read_ns
    out = np.empty((len(region_compressibility), len(tiers)))
    for t, tier in enumerate(tiers):
        if isinstance(tier, ByteAddressableTier):
            out[:, t] = tier.media.read_ns - dram_ns
        elif isinstance(tier, CompressedTier):
            out[:, t] = tier.fault_latencies_ns(region_compressibility)
        else:  # pragma: no cover - future tier kinds
            raise TypeError(f"unknown tier kind {type(tier).__name__}")
    if (out[:, 0] != 0).any():
        raise ValueError("tier 0 must be the zero-penalty DRAM tier")
    return out


def penalty_matrix(
    per_access: np.ndarray, hotness: np.ndarray, sampling_rate: int
) -> np.ndarray:
    """Eq. 7's ``perf_ovh`` contributions, shape ``(R, T)``.

    Args:
        per_access: :func:`per_access_penalty` of the system's tiers for
            its regions (the planner keeps it per address space, see
            :meth:`~repro.mem.system.TieredMemorySystem.planning_tables`).
        hotness: Cooled sampled access counts per region (from telemetry).
        sampling_rate: PEBS period, to rescale samples to access estimates.
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    expected_accesses = hotness * sampling_rate
    return expected_accesses[:, None] * per_access


def perf_overhead(penalties: np.ndarray, assignment: np.ndarray) -> float:
    """Total modelled overhead of an assignment (Eq. 7), nanoseconds."""
    rows = np.arange(penalties.shape[0])
    return float(penalties[rows, assignment].sum())
