"""Parallel fleet execution with a deterministic result merge.

Every node of the fleet is an independent simulation (its own address
space, tier mix, daemon and workload stream), so nodes parallelise
perfectly across worker processes.  All cross-node coupling -- solver-
service queueing, the alpha scheduler -- is modeled in *virtual time*
from the fleet spec alone, which is what makes ``jobs=1`` and ``jobs=J``
produce bit-identical per-node :class:`~repro.core.metrics.RunSummary`
values: the merge just reassembles results in node order.

Nodes are dispatched through :func:`repro.engine.grid.ordered_map`,
the same order-preserving pool the figure grids and the arena use.

Chaos runs (:class:`ChaosOptions`) thread a per-node
:class:`~repro.chaos.faults.FaultInjector` through each worker.  Nodes
with scheduled ``node_crash`` faults run window by window, checkpointing
every ``checkpoint_every`` windows; a crash discards the live session
and resumes from the last checkpoint, replaying the lost windows.
Because the checkpoint carries the full deterministic simulation state
(see :mod:`repro.chaos.checkpoint`), the resumed node's summary and
per-window rows are identical to an uninterrupted run's, so the merged
fleet rollup is too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.knob import Knob
from repro.core.metrics import RunSummary
from repro.engine import Session, make_policy
from repro.engine.grid import ordered_map
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.service import (
    ServicedAnalyticalModel,
    ServiceEvent,
    ServiceStats,
    SolverServiceConfig,
)
from repro.fleet.spec import FleetSpec, NodeSpec
from repro.obs import MetricsRegistry, Observability, StreamSink
from repro.obs.logs import get_logger

#: Policies that route their ILP through the solver service.
_ANALYTICAL = ("am", "am-tco", "am-perf")

_log = get_logger("fleet.runner")


@dataclass(frozen=True)
class ObsOptions:
    """Per-worker observability switches shipped with each payload.

    Attributes:
        metrics: Collect a per-node metrics registry; the parent merges
            the snapshots deterministically in node-id order.
        tracing: Collect spans (shipped home as dicts, each stamped with
            the node id as the trace ``pid``).
        event_ring: Ring capacity of each worker's event log; fleet
            workers never buffer the whole event stream.
    """

    metrics: bool = True
    tracing: bool = False
    event_ring: int = 64


@dataclass(frozen=True)
class ChaosOptions:
    """Fleet-level fault-injection switches shipped with each payload.

    Attributes:
        plan: A :class:`~repro.chaos.faults.FaultPlan` as a plain dict
            (picklable); each worker builds its node-filtered injector
            from it.  ``None`` disables chaos entirely.
        checkpoint_every: Windows between checkpoints on nodes that can
            crash (or when ``checkpoint_dir`` is set).
        checkpoint_dir: Optional directory; each node's latest
            checkpoint is also persisted there as
            ``node-<id>.ckpt`` (the in-memory blob drives resume).
    """

    plan: dict | None = None
    checkpoint_every: int = 2
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.plan is not None:
            from repro.chaos.faults import FaultPlan

            # Validate eagerly and normalize to the canonical dict form.
            object.__setattr__(
                self, "plan", FaultPlan.from_dict(dict(self.plan)).to_dict()
            )

    def injector_for(self, node_id: int):
        """The node's injector, or ``None`` when chaos is off."""
        if self.plan is None:
            return None
        from repro.chaos.faults import FaultInjector, FaultPlan

        return FaultInjector(FaultPlan.from_dict(self.plan), node=node_id)


@dataclass
class NodeResult:
    """Everything one node brings back from its worker.

    Attributes:
        spec: The node's spec (identity, workload, seed).
        summary: Deterministic run summary (identical for any ``jobs``).
        stats: Solver-service accounting (modeled queue/solve/rtt plus
            measured wall time; empty for non-analytical policies).
        events: Per-window solver-service events.
        window_rows: Flat per-window rows for the JSONL event export.
        metrics: The node's metrics-registry snapshot (empty when the
            run disabled metrics).
        spans: Completed span dicts (empty unless tracing was on).
        chaos_counts: The injector's fault/recovery occurrence counts by
            kind (empty when chaos was off).
        resumes: Times the node crashed and resumed from a checkpoint.
    """

    spec: NodeSpec
    summary: RunSummary
    stats: ServiceStats = field(default_factory=ServiceStats)
    events: list[ServiceEvent] = field(default_factory=list)
    window_rows: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    chaos_counts: dict = field(default_factory=dict)
    resumes: int = 0


@dataclass
class FleetResult:
    """Merged outcome of one fleet run.

    Attributes:
        spec: The fleet spec that was executed.
        nodes: Per-node results, in node-id order.
        jobs: Worker processes used.
        wall_s: Real wall-clock seconds of the execution phase.
        metrics: Fleet-wide (cluster) registry: node snapshots folded
            rack by rack in node-id order -- bit-identical to a flat
            node-order fold (the merge is associative and
            order-preserving) and identical for any ``jobs``.
        rack_metrics: Intermediate rack-level registries, ``rack_size``
            nodes each in node-id order; ``O(nodes / rack_size)`` of
            them, so a 10k-node cluster rolls up hierarchically instead
            of through one flat fold.
        rack_size: Nodes per rack used for the rollup.
    """

    spec: FleetSpec
    nodes: list[NodeResult]
    jobs: int
    wall_s: float
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True)
    )
    rack_metrics: list[MetricsRegistry] = field(default_factory=list)
    rack_size: int = 32

    @property
    def summaries(self) -> list[RunSummary]:
        return [n.summary for n in self.nodes]

    @property
    def spans(self) -> list[dict]:
        """All nodes' spans, in node-id order (one trace pid per node)."""
        return [span for node in self.nodes for span in node.spans]

    @property
    def chaos_counts(self) -> dict:
        """Fleet-wide fault/recovery counts: node counts summed by kind."""
        totals: dict[str, int] = {}
        for node in self.nodes:
            for kind, count in sorted(node.chaos_counts.items()):
                totals[kind] = totals.get(kind, 0) + count
        return totals

    @property
    def resumes(self) -> int:
        """Total node crash/resume cycles across the fleet."""
        return sum(node.resumes for node in self.nodes)


def service_arrival_ranks(specs: list[NodeSpec]) -> dict[int, int]:
    """Each service-using node's arrival position in a window batch.

    Only analytical nodes contact the shared solver service, so the
    ``i``-th *analytical* node in node-id order occupies queue slot
    ``i`` -- a mixed ``am``/``waterfall`` fleet must not charge phantom
    slots for nodes that never send a request.
    """
    ranks: dict[int, int] = {}
    for spec in specs:
        if spec.policy in _ANALYTICAL:
            ranks[spec.node_id] = len(ranks)
    return ranks


def _make_node_model(
    spec: NodeSpec,
    service: SolverServiceConfig,
    arrival_rank: int | None = None,
):
    """Build the node's placement model, service-backed when analytical."""
    if spec.policy in _ANALYTICAL:
        if spec.policy == "am-tco":
            knob, name = Knob.am_tco(), "AM-TCO"
        elif spec.policy == "am-perf":
            knob, name = Knob.am_perf(), "AM-perf"
        else:
            if spec.alpha is None:
                raise ValueError("policy 'am' needs a per-node alpha")
            knob, name = Knob(spec.alpha), None
        return ServicedAnalyticalModel(
            knob,
            service,
            node_id=spec.node_id,
            name=name,
            arrival_rank=arrival_rank,
        )
    return make_policy(
        spec.policy,
        mix=spec.mix,
        percentile=spec.percentile,
        alpha=spec.alpha,
    )


def _run_node(
    payload: tuple[
        NodeSpec,
        SolverServiceConfig,
        ObsOptions,
        ChaosOptions,
        int | None,
    ]
) -> NodeResult:
    """Worker entry point: simulate one node end to end.

    Module-level (picklable) so the worker pool can ship it; also called
    inline for ``jobs=1``, guaranteeing both paths share one code path
    for the determinism contract.

    The worker's event log runs in streaming mode (bounded ring): the
    per-window export rows are collected incrementally by a hook as each
    ``window_end`` fires, so a multi-thousand-window node never holds
    its full event stream in memory.

    With a chaos plan, the node runs its injector-wrapped session; when
    the plan schedules ``node_crash`` faults for this node, the window
    loop runs here (instead of ``session.run``) so a crash can discard
    the live session and resume from the last checkpoint.
    """
    spec, service, obs_options, chaos, arrival_rank = payload
    model = _make_node_model(spec, service, arrival_rank=arrival_rank)
    injector = chaos.injector_for(spec.node_id)

    def _make_obs() -> Observability:
        return Observability(
            metrics=obs_options.metrics,
            tracing=obs_options.tracing,
            pid=spec.node_id,
        )

    window_payloads: list[tuple[int, dict]] = []

    def _collect_window(event) -> None:
        if event.kind == "window_end":
            window_payloads.append((event.window, event.data))

    session = Session(
        spec.to_scenario(),
        policy=model,
        hooks=(_collect_window,),
        obs=_make_obs(),
        sink=StreamSink(ring=obs_options.event_ring),
        injector=injector,
    )
    if injector is not None and (
        injector.has_crashes() or chaos.checkpoint_dir is not None
    ):
        summary, session, resumes = _run_node_with_checkpoints(
            spec, session, chaos, window_payloads, _collect_window, _make_obs,
            ring=obs_options.event_ring,
        )
    else:
        summary = session.run()
        resumes = 0
    # The resilient wrapper is transparent here: service events/stats
    # live on the wrapped primary.
    policy = session.policy
    inner = getattr(policy, "primary", policy)
    events = list(getattr(inner, "events", ()))
    stats = getattr(inner, "stats", None) or ServiceStats()
    # The engine's per-window rows, tagged with node identity and the
    # solver-service view of each window.  Events are keyed by their
    # *profile window*, never by list position: under chaos a degraded
    # window emits no request (and a retried one may emit several), so
    # positional lookup would shift queue/fallback data onto the wrong
    # rows.  Last event wins; earlier ones for the same window are
    # retries, surfaced in the row's ``solver_attempts``.
    event_by_window: dict[int, ServiceEvent] = {}
    attempts_by_window: dict[int, int] = {}
    for event in events:
        event_by_window[event.window] = event
        attempts_by_window[event.window] = (
            attempts_by_window.get(event.window, 0) + 1
        )
    rows = []
    for window, data in window_payloads:
        event = event_by_window.get(window)
        rows.append(
            {
                "node": spec.node_id,
                "workload": session.workload.name,
                "policy": summary.policy,
                "window": window,
                **data,
                "queue_ms": (event.queue_ns / 1e6) if event else 0.0,
                "fallback": bool(event.fallback) if event else False,
                "solver_attempts": attempts_by_window.get(window, 0),
            }
        )
    obs = session.obs
    return NodeResult(
        spec=spec,
        summary=summary,
        stats=stats,
        events=events,
        window_rows=rows,
        metrics=obs.registry.snapshot() if obs_options.metrics else {},
        spans=obs.span_dicts() if obs_options.tracing else [],
        chaos_counts=dict(session.injector.counts)
        if session.injector is not None
        else {},
        resumes=resumes,
    )


def _run_node_with_checkpoints(
    spec: NodeSpec,
    session: Session,
    chaos: ChaosOptions,
    window_payloads: list,
    collect_window,
    make_obs,
    ring: int,
) -> tuple[RunSummary, Session, int]:
    """Window loop with periodic checkpoints and crash/resume.

    A ``node_crash`` fault at window ``w`` throws away the live session
    (modeling the node process dying) and rebuilds one from the last
    checkpoint blob: fresh observability bundle, fresh event sink, same
    deterministic simulation state.  The resumed session replays the
    windows lost since the checkpoint and then survives the crash window
    (``injector.survive_crash``), so the run always completes and its
    outputs match an uninterrupted run's.
    """
    from repro.chaos.checkpoint import (
        capture_session,
        restore_session,
        save_checkpoint,
    )

    ckpt_path = None
    if chaos.checkpoint_dir is not None:
        ckpt_dir = Path(chaos.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / f"node-{spec.node_id:03d}.ckpt"

    def _checkpoint() -> bytes:
        blob = capture_session(session, rows=window_payloads)
        if ckpt_path is not None:
            save_checkpoint(ckpt_path, blob)
        return blob

    windows = session.spec.windows
    blob = _checkpoint()
    resumes = 0
    window = 0
    while window < windows:
        if session.injector.node_crash_at(window):
            crash_window = window
            session, rows, window = restore_session(
                blob, obs=make_obs(), sink=StreamSink(ring=ring)
            )
            session.log.subscribe(collect_window)
            window_payloads[:] = rows
            session.injector.survive_crash(crash_window)
            session.obs.registry.counter(
                "repro_chaos_node_resumes_total",
                "Node crash/resume cycles recovered from a checkpoint",
            ).inc()
            session.injector.note(
                "recovery",
                window,
                kind="node_resumed",
                crash_window=crash_window,
                checkpoint_window=window,
            )
            resumes += 1
            _log.info(
                "node %d crashed at window %d; resumed from checkpoint "
                "window %d",
                spec.node_id,
                crash_window,
                window,
            )
            continue
        session.run_window()
        window += 1
        if window % chaos.checkpoint_every == 0 and window < windows:
            blob = _checkpoint()
    # Zero extra windows: closes the log and aggregates the summary.
    return session.run(0), session, resumes


def merge_metrics_hierarchical(
    snapshots: list[dict], rack_size: int
) -> tuple[MetricsRegistry, list[MetricsRegistry]]:
    """Fold node metric snapshots rack by rack into a cluster registry.

    Nodes ``[i * rack_size, (i + 1) * rack_size)`` (node-id order) form
    rack ``i``; each rack folds its nodes, then the cluster folds the
    rack snapshots in rack order.  Because ``merge_snapshot`` is
    associative and both folds preserve node-id order, the cluster
    registry -- including label-creation order, and therefore exporter
    byte output -- is identical to a flat fold, while a 10k-node merge
    becomes ``O(racks)`` shallow folds over pre-aggregated snapshots
    (the shape a real rack-aggregator deployment would ship home).
    """
    cluster = MetricsRegistry(enabled=True)
    racks: list[MetricsRegistry] = []
    for start in range(0, len(snapshots), rack_size):
        rack = MetricsRegistry(enabled=True)
        for snapshot in snapshots[start : start + rack_size]:
            rack.merge_snapshot(snapshot)
        racks.append(rack)
        cluster.merge_snapshot(rack.snapshot())
    return cluster, racks


class FleetRunner:
    """Execute a fleet spec across worker processes.

    Args:
        spec: A prebuilt :class:`FleetSpec`; alternatively pass ``nodes``
            plus any :class:`FleetSpec` field as keyword arguments
            (``FleetRunner(nodes=8, profile="micro", windows=4)``).
        jobs: Worker processes; 1 runs inline (no pool).
        service: Solver-service deployment (default: local solvers).
        scheduler: Optional :class:`FleetScheduler`; when given, node
            specs are rewritten to per-node analytical knobs before
            execution.
        obs: Per-worker observability switches (metrics on by default;
            tracing off because spans are bulky over IPC).
        chaos: Fleet-level fault-injection switches; default: chaos off.
        rack_size: Nodes per rack in the hierarchical metrics rollup.
    """

    def __init__(
        self,
        spec: FleetSpec | None = None,
        *,
        nodes: int | None = None,
        jobs: int = 1,
        service: SolverServiceConfig | None = None,
        scheduler: FleetScheduler | None = None,
        obs: ObsOptions | None = None,
        chaos: ChaosOptions | None = None,
        rack_size: int = 32,
        **spec_kwargs,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if spec is None:
            if nodes is None:
                raise ValueError("pass a FleetSpec or nodes=N")
            spec = FleetSpec(nodes=nodes, **spec_kwargs)
        elif nodes is not None or spec_kwargs:
            raise ValueError("pass either a FleetSpec or spec kwargs, not both")
        self.spec = spec
        self.jobs = jobs
        self.service = service or SolverServiceConfig()
        self.scheduler = scheduler
        self.obs = obs or ObsOptions()
        self.chaos = chaos or ChaosOptions()
        self.rack_size = rack_size

    def node_specs(self) -> list[NodeSpec]:
        """The expanded (and scheduler-adjusted) per-node specs."""
        specs = self.spec.build()
        if self.scheduler is not None:
            specs = self.scheduler.apply(specs)
        return specs

    def run(self) -> FleetResult:
        """Simulate every node and merge results in node order."""
        specs = self.node_specs()
        ranks = service_arrival_ranks(specs)
        payloads = [
            (s, self.service, self.obs, self.chaos, ranks.get(s.node_id))
            for s in specs
        ]
        jobs = min(self.jobs, len(payloads))
        _log.info(
            "simulating %d node(s) with %d job(s), policy=%s",
            len(payloads),
            jobs,
            self.spec.policy,
        )
        start = time.perf_counter()
        # The map preserves input order, so the merge is deterministic
        # no matter which worker finishes first.
        results = ordered_map(_run_node, payloads, jobs)
        wall_s = time.perf_counter() - start
        # Hierarchical rack -> cluster rollup in node-id order.  The
        # merge is associative and order-preserving, so the cluster
        # registry is bit-identical to a flat node-order fold -- and
        # identical for any `jobs` (volatile wall-time metrics aside).
        merged, racks = merge_metrics_hierarchical(
            [node.metrics for node in results], self.rack_size
        )
        _log.info("fleet run complete in %.2f s wall", wall_s)
        return FleetResult(
            spec=self.spec,
            nodes=results,
            jobs=jobs,
            wall_s=wall_s,
            metrics=merged,
            rack_metrics=racks,
            rack_size=self.rack_size,
        )
