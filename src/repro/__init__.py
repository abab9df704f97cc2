"""TierScape reproduction: multiple compressed memory tiers to tame memory TCO.

This package reproduces the system described in *TierScape: Harnessing
Multiple Compressed Tiers to Tame Server Memory TCO* (EuroSys '26).  It
provides:

* ``repro.compression`` -- compression codecs (from-scratch LZ77/RLE plus a
  zlib-backed deflate) and calibrated analytic latency/ratio models for the
  seven algorithms the paper's Table 1 lists.
* ``repro.allocators`` -- simulations of the Linux zswap pool allocators
  (zbud, z3fold, zsmalloc) on top of a buddy allocator.
* ``repro.mem`` -- a tiered-memory substrate: pages, 2 MB regions, byte
  addressable and compressed tiers, fault handling and page migration.
* ``repro.telemetry`` -- PEBS-style sampled access telemetry with per-region
  hotness tracking and EWMA cooling.
* ``repro.solver`` -- the ILP formulation of the analytical placement model
  and three interchangeable backends (exact Pareto-frontier DP,
  scipy/HiGHS, MCKP greedy).
* ``repro.core`` -- the TierScape cost models (TCO and performance overhead),
  the Waterfall and analytical placement models, the migration filter and the
  TS-Daemon orchestration loop.
* ``repro.workloads`` -- the paper's workload suite re-created as synthetic
  access-trace generators (Memcached/Redis via memtier- and YCSB-style key
  popularity, Ligra BFS/PageRank over rMat graphs, XSBench, GraphSAGE,
  masim).
* ``repro.bench`` -- the experiment harness that regenerates every table and
  figure of the paper's evaluation section.
"""

from repro.core.daemon import TSDaemon, WindowRecord
from repro.core.knob import AM_PERF_ALPHA, AM_TCO_ALPHA, Knob
from repro.core.placement.analytical import AnalyticalModel
from repro.core.placement.static_threshold import StaticThresholdPolicy
from repro.core.placement.waterfall import WaterfallModel
from repro.mem.system import TieredMemorySystem
from repro.bench.configs import (
    characterization_tiers,
    spectrum_mix,
    standard_mix,
)

__version__ = "1.0.0"

__all__ = [
    "AM_PERF_ALPHA",
    "AM_TCO_ALPHA",
    "AnalyticalModel",
    "Knob",
    "StaticThresholdPolicy",
    "TSDaemon",
    "TieredMemorySystem",
    "WaterfallModel",
    "WindowRecord",
    "characterization_tiers",
    "spectrum_mix",
    "standard_mix",
    "__version__",
]
