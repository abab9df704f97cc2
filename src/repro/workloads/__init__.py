"""Workload suite (paper Table 2) as synthetic access-trace generators.

Each workload reproduces the page-access *shape* of its real counterpart --
popularity skew, spatial locality, and temporal drift -- at laptop scale
(see DESIGN.md §2 for the substitution argument):

* :class:`~repro.workloads.kv.KVWorkload` -- Memcached and Redis under
  memtier (Gaussian key popularity) and YCSB (Zipfian) request generators,
  with optional hotspot drift.
* :class:`~repro.workloads.graph.BFSWorkload` /
  :class:`~repro.workloads.graph.PageRankWorkload` -- Ligra-style graph
  kernels over rMat graphs.
* :class:`~repro.workloads.xsbench.XSBenchWorkload` -- Monte Carlo
  cross-section lookups.
* :class:`~repro.workloads.graphsage.GraphSAGEWorkload` -- minibatch
  neighbour-sampling over node features.
* :class:`~repro.workloads.masim.MasimWorkload` -- the artifact's
  microbenchmark.
"""

from repro.workloads.base import Workload
from repro.workloads.colocate import CompositeWorkload, composite_compressibility
from repro.workloads.distributions import (
    ChurningColdSet,
    GaussianGenerator,
    HotspotGenerator,
    HotWarmColdGenerator,
    UniformGenerator,
    ZipfianGenerator,
)
from repro.workloads.trace import (
    TraceMismatchError,
    TraceWorkload,
    open_trace,
    record_trace,
)
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.graph import BFSWorkload, PageRankWorkload
from repro.workloads.graphsage import GraphSAGEWorkload
from repro.workloads.kv import KVWorkload
from repro.workloads.live import (
    FlashCrowdWorkload,
    TenantChurnWorkload,
    diurnal_kv,
    flash_crowd_kv,
)
from repro.workloads.masim import MasimWorkload
from repro.workloads.registry import WORKLOADS, make_workload, workload_table
from repro.workloads.rmat import rmat_edges
from repro.workloads.xsbench import XSBenchWorkload

__all__ = [
    "BFSWorkload",
    "ChurningColdSet",
    "CompositeWorkload",
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "GaussianGenerator",
    "GraphSAGEWorkload",
    "HotWarmColdGenerator",
    "HotspotGenerator",
    "KVWorkload",
    "MasimWorkload",
    "PageRankWorkload",
    "TenantChurnWorkload",
    "TraceMismatchError",
    "TraceWorkload",
    "UniformGenerator",
    "WORKLOADS",
    "Workload",
    "XSBenchWorkload",
    "ZipfianGenerator",
    "composite_compressibility",
    "diurnal_kv",
    "flash_crowd_kv",
    "make_workload",
    "open_trace",
    "record_trace",
    "rmat_edges",
    "workload_table",
]
