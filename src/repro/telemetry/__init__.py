"""PEBS-style access telemetry and region hotness tracking (paper §7.2).

TS-Daemon profiles application memory accesses with Intel PEBS sampling of
``MEM_INST_RETIRED.ALL_LOADS/ALL_STORES`` at a 1-in-5000 sampling rate and
accumulates the samples into 2 MB region hotness, cooling older windows'
contributions (paper §3.1, §7.2).  This package reproduces that pipeline on
the simulated access stream:

* :class:`~repro.telemetry.pebs.PEBSSampler` -- unbiased Bernoulli thinning
  of the access stream into per-region sample counts,
* :class:`~repro.telemetry.hotness.RegionHotness` -- per-region accumulation
  with EWMA cooling and percentile thresholds,
* :class:`~repro.telemetry.window.Profiler` -- the per-window composition
  the daemon drives.
"""

from repro.telemetry.damon import DamonProfiler
from repro.telemetry.hotness import RegionHotness
from repro.telemetry.idlebit import IdleBitProfiler
from repro.telemetry.pebs import PEBS_DEFAULT_RATE, PEBSSampler
from repro.telemetry.window import Profiler, ProfileRecord

#: Telemetry backend registry: the paper's PEBS pipeline plus the two
#: alternatives its related work discusses (ACCESSED-bit scanning [31,38]
#: and DAMON-style sampling [44]).
PROFILER_KINDS = ("pebs", "idlebit", "damon")


def make_profiler(
    kind: str,
    num_regions: int,
    cooling: float = 0.5,
    sampling_rate: int = 5000,
    seed: int = 0,
    **kwargs,
):
    """Build a telemetry backend by name.

    Args:
        kind: One of :data:`PROFILER_KINDS`.
        num_regions: Regions in the profiled address space.
        cooling: EWMA cooling factor per window.
        sampling_rate: PEBS period (PEBS backend only).
        seed: RNG seed.
        **kwargs: Backend-specific options (``scan_fraction`` for
            idlebit, ``samples_per_region`` for damon).
    """
    if kind == "pebs":
        return Profiler(
            num_regions=num_regions,
            sampling_rate=sampling_rate,
            cooling=cooling,
            seed=seed,
            **kwargs,
        )
    if kind == "idlebit":
        return IdleBitProfiler(
            num_regions=num_regions, cooling=cooling, seed=seed, **kwargs
        )
    if kind == "damon":
        return DamonProfiler(
            num_regions=num_regions, cooling=cooling, seed=seed, **kwargs
        )
    raise KeyError(
        f"unknown telemetry backend {kind!r}; available: {PROFILER_KINDS}"
    )


__all__ = [
    "DamonProfiler",
    "IdleBitProfiler",
    "PEBS_DEFAULT_RATE",
    "PEBSSampler",
    "PROFILER_KINDS",
    "Profiler",
    "ProfileRecord",
    "RegionHotness",
    "make_profiler",
]
