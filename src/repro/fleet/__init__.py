"""Fleet simulation: many tiered-memory nodes, one solver service.

The paper's headline claim is about *fleet* TCO (memory is 33-50 % of
server cost at datacenter scale), and its §8.4 / Figure 14 measures the
tax of running the placement ILP on a remote solver.  This package lifts
the single-node reproduction to that level:

* :mod:`repro.fleet.spec` -- declarative fleet description (node count,
  workload profile, per-node scale, spawned seeds),
* :mod:`repro.fleet.service` -- the shared solver service: queueing +
  solve accounting and the timeout-to-greedy fallback,
* :mod:`repro.fleet.scheduler` -- global-DRAM-budget alpha allocation,
* :mod:`repro.fleet.runner` -- parallel node execution (the ordered
  process pool of :func:`repro.engine.grid.ordered_map`) with a
  deterministic result merge,
* :mod:`repro.fleet.metrics` -- fleet rollup tables, dollar projection
  and per-window JSONL event export.

Entry points: ``python -m repro fleet`` and
``examples/fleet_simulation.py``.

Invariants the package maintains (tests in ``tests/test_fleet*.py``
pin them):

* **Merge determinism** -- every per-node result is a pure function of
  the fleet spec, so ``jobs=1`` and ``jobs=J`` produce bit-identical
  node summaries, window rows and merged metrics (volatile wall-clock
  metrics aside); results are always folded in node-id order.
* **Virtual-time coupling** -- all cross-node interaction (service
  queueing, the alpha scheduler) is modeled from the spec alone, never
  from worker timing, so parallelism cannot perturb results.
* **Crash transparency** -- with a chaos plan
  (:class:`~repro.fleet.runner.ChaosOptions`), a node that crashes and
  resumes from its checkpoint yields the same summary and window rows
  as an uninterrupted node; only the chaos counters record that the
  crash happened.
"""

from repro.fleet.metrics import (
    fleet_rollup,
    node_rows,
    rack_rows,
    slowdown_distribution,
)
from repro.fleet.runner import (
    ChaosOptions,
    FleetResult,
    FleetRunner,
    NodeResult,
    ObsOptions,
    merge_metrics_hierarchical,
    service_arrival_ranks,
)
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.service import ServicedAnalyticalModel, SolverServiceConfig
from repro.fleet.spec import FleetSpec, NodeSpec

__all__ = [
    "ChaosOptions",
    "FleetResult",
    "FleetRunner",
    "FleetScheduler",
    "FleetSpec",
    "NodeResult",
    "NodeSpec",
    "ObsOptions",
    "ServicedAnalyticalModel",
    "SolverServiceConfig",
    "fleet_rollup",
    "merge_metrics_hierarchical",
    "node_rows",
    "rack_rows",
    "service_arrival_ranks",
    "slowdown_distribution",
]
