"""Shared solver service: queueing, solve accounting and greedy fallback.

The paper runs the placement ILP either on-box or on a remote solver
machine and measures the tax of each (§8.4, Figure 14).  At fleet scale a
remote solver is *shared*: every node's window-``w`` request lands in the
same batch, so later nodes queue behind earlier ones.  This module models
that service in **virtual time** so results are bit-identical regardless
of how the fleet is executed (serial or process-parallel):

* every request is charged a *modeled* solve cost proportional to the
  ILP size (``regions x tiers``), calibrated to the magnitude of the real
  backends;
* a shared deployment adds a network round trip plus a deterministic
  batch-queue wait of ``(arrival position // servers)`` service slots;
* if the modeled queue + solve + RTT exceeds the service timeout the
  node *actually* falls back to its local greedy solver -- the placement
  changes, not just the accounting -- so one slow ILP cannot stall the
  fleet.

Real solver wall time is still measured and reported separately
(``measured_wall_ns``) for the Figure 14-style tax benchmark; it is kept
out of the :class:`~repro.core.metrics.RunSummary` so fleet runs stay
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.knob import Knob
from repro.core.placement.analytical import AnalyticalModel
from repro.mem.system import TieredMemorySystem
from repro.telemetry.window import ProfileRecord

#: Modeled ILP service cost per (region, tier) cell.  Order of magnitude
#: of scipy/HiGHS on this problem family: a 64-region x 4-tier instance
#: (256 cells) solves in ~10 ms.
ILP_NS_PER_CELL = 40_000.0

#: Modeled cost per region of the local LP-greedy fallback (sort-driven).
GREEDY_NS_PER_REGION = 2_500.0

#: Default network round trip to a remote solver service.
DEFAULT_RTT_NS = 200_000.0


def modeled_ilp_ns(num_regions: int, num_tiers: int) -> float:
    """Deterministic service-time model for one ILP request."""
    return ILP_NS_PER_CELL * num_regions * num_tiers


def modeled_greedy_ns(num_regions: int) -> float:
    """Deterministic cost model for the on-box greedy fallback."""
    return GREEDY_NS_PER_REGION * num_regions


@dataclass(frozen=True)
class SolverServiceConfig:
    """How the fleet's placement problems reach a solver.

    Attributes:
        deployment: ``"local"`` (per-node solver, no queueing -- the
            paper's Local bars) or ``"remote"`` (one shared service --
            the Remote bars, plus fleet-scale queueing).
        servers: Parallel solver workers behind the shared endpoint.
        timeout_ms: Service deadline; a request whose modeled
            queue + solve + RTT exceeds it is solved on-box with the
            greedy backend instead.
        network_rtt_ns: Round trip to the shared service.
        backend: Solver backend the service runs
            (see :mod:`repro.solver.registry`).
        service_slot_ns: Modeled per-request service slot used for the
            queue wait of a shared deployment; defaults to the modeled
            cost of a standard-mix instance (64 regions x 4 tiers).
    """

    deployment: str = "local"
    servers: int = 1
    timeout_ms: float = 50.0
    network_rtt_ns: float = DEFAULT_RTT_NS
    backend: str = "auto"
    service_slot_ns: float = modeled_ilp_ns(64, 4)

    def __post_init__(self) -> None:
        if self.deployment not in ("local", "remote"):
            raise ValueError(
                f"deployment must be 'local' or 'remote', got "
                f"{self.deployment!r}"
            )
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.network_rtt_ns < 0 or self.service_slot_ns <= 0:
            raise ValueError("rtt must be >= 0 and service slot > 0")

    @property
    def remote(self) -> bool:
        return self.deployment == "remote"

    @property
    def timeout_ns(self) -> float:
        return self.timeout_ms * 1e6

    def queue_wait_ns(self, arrival_position: int) -> float:
        """Modeled wait of the request arriving at ``arrival_position``.

        Window batches arrive together (one request per node); with
        ``s`` servers draining fixed service slots, the ``i``-th request
        waits ``floor(i / s)`` slots.  Local deployments never queue.
        """
        if not self.remote:
            return 0.0
        return (arrival_position // self.servers) * self.service_slot_ns


@dataclass
class ServiceEvent:
    """Accounting for one window's solver request from one node.

    Attributes:
        node_id / window: Which request.  ``window`` is the *profile*
            window index (``ProfileRecord.window``), not the request
            ordinal -- under chaos a degraded window emits no request,
            so ordinals and windows drift apart.
        queue_ns: Modeled wait behind earlier arrivals (0 when local or
            when the request fell back).
        solve_ns: Modeled solve cost actually charged (ILP, or greedy
            when the request fell back).
        rtt_ns: Network round trip charged (0 when local/fallback).
        fallback: Whether the timeout pushed this request to the on-box
            greedy solver.
        measured_wall_ns: Real wall time of the solve that ran (not part
            of any deterministic summary).
    """

    node_id: int
    window: int
    queue_ns: float
    solve_ns: float
    rtt_ns: float
    fallback: bool
    measured_wall_ns: int

    @property
    def service_ns(self) -> float:
        """Total modeled solver-service tax of this request."""
        return self.queue_ns + self.solve_ns + self.rtt_ns


@dataclass
class ServiceStats:
    """Cumulative per-node solver-service accounting."""

    requests: int = 0
    fallbacks: int = 0
    queue_ns: float = 0.0
    solve_ns: float = 0.0
    rtt_ns: float = 0.0
    measured_wall_ns: int = 0

    def fold(self, event: ServiceEvent) -> None:
        self.requests += 1
        self.fallbacks += int(event.fallback)
        self.queue_ns += event.queue_ns
        self.solve_ns += event.solve_ns
        self.rtt_ns += event.rtt_ns
        self.measured_wall_ns += event.measured_wall_ns

    @property
    def service_ns(self) -> float:
        return self.queue_ns + self.solve_ns + self.rtt_ns


class ServicedAnalyticalModel(AnalyticalModel):
    """An analytical model whose ILP goes through the solver service.

    Unlike the base model -- which charges *measured* solver wall time --
    this model charges the deterministic modeled service cost to
    ``solver_ns`` (what the daemon and :class:`RunSummary` report), so
    fleet results are reproducible and independent of execution
    parallelism.  Measured wall time accumulates separately in
    ``stats.measured_wall_ns``.

    Args:
        knob: The alpha knob.
        config: Service deployment description.
        node_id: This node's fleet identity (stamped on events).
        name: Display name.
        arrival_rank: This node's arrival position in each window batch
            of the *shared* service -- its rank among the fleet's
            service-using nodes, not its raw node id (a fleet where only
            some nodes run analytical policies must not charge phantom
            queue slots for nodes that never call the service).  Defaults
            to ``node_id`` for single-model and all-analytical uses.
    """

    def __init__(
        self,
        knob: Knob,
        config: SolverServiceConfig,
        node_id: int = 0,
        name: str | None = None,
        arrival_rank: int | None = None,
    ) -> None:
        super().__init__(knob, backend=config.backend, name=name)
        self.config = config
        self.node_id = node_id
        self.arrival_rank = node_id if arrival_rank is None else arrival_rank
        self.stats = ServiceStats()
        self.events: list[ServiceEvent] = []

    @property
    def queue_ns(self) -> float:
        """Cumulative modeled queue wait (read by the daemon summary)."""
        return self.stats.queue_ns

    def recommend(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> dict[int, int]:
        problem = self.build_problem(record, system)
        config = self.config
        queue_ns = config.queue_wait_ns(self.arrival_rank)
        ilp_ns = modeled_ilp_ns(problem.num_regions, problem.num_tiers)
        rtt_ns = config.network_rtt_ns if config.remote else 0.0
        if config.remote and queue_ns + ilp_ns + rtt_ns > config.timeout_ns:
            solution = self.warm_solve(problem, "greedy")
            if self.obs is not None:
                self.obs.registry.counter(
                    "repro_solver_fallbacks_total",
                    "Service requests that fell back to on-box greedy",
                ).inc()
            event = ServiceEvent(
                node_id=self.node_id,
                window=record.window,
                queue_ns=0.0,
                solve_ns=modeled_greedy_ns(problem.num_regions),
                rtt_ns=0.0,
                fallback=True,
                measured_wall_ns=int(solution.solve_wall_ns),
            )
        else:
            solution = self.warm_solve(problem, self.backend)
            event = ServiceEvent(
                node_id=self.node_id,
                window=record.window,
                queue_ns=queue_ns,
                solve_ns=ilp_ns,
                rtt_ns=rtt_ns,
                fallback=False,
                measured_wall_ns=int(solution.solve_wall_ns),
            )
        self.last_solution = solution
        self.solver_ns += event.service_ns
        self.stats.fold(event)
        self.events.append(event)
        return {
            region_id: int(tier_idx)
            for region_id, tier_idx in enumerate(solution.assignment)
        }
