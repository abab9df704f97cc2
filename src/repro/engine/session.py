"""The session: one scenario, one construction path, one window loop.

``Session`` turns a :class:`~repro.engine.spec.ScenarioSpec` into live
simulator objects (workload, tiered system, policy, daemon) and owns the
instrumented window loop that the figure drivers, sweeps, the CLI, the
fleet's per-node worker and the serving daemon all run.  Each window it
emits structured
:class:`~repro.engine.events.EngineEvent` records that the bench
exporters and the fleet's JSONL stream consume directly.

Exotic experiments (hand-built tier sets, composite workloads, serviced
or null policies) pass prebuilt objects as overrides and still run
through the same loop -- the spec then only describes the loop
parameters (windows, telemetry, seeds).
"""

from __future__ import annotations

from repro.core.daemon import TSDaemon, WindowRecord
from repro.core.metrics import RunSummary
from repro.engine.build import build_system, make_policy
from repro.engine.events import EngineEvent, EventHook, EventLog
from repro.engine.spec import ScenarioSpec
from repro.obs import NULL_OBS, Observability
from repro.obs.logs import get_logger
from repro.workloads.registry import make_workload

_log = get_logger("engine.session")

#: A window is a fault burst when its compressed-tier faults exceed this
#: multiple of the trailing per-window mean...
FAULT_BURST_FACTOR = 2.0
#: ...and at least this many pages faulted (suppresses noise bursts).
FAULT_BURST_MIN = 16
#: Windows in the trailing mean.  The history must be bounded: an
#: all-time mean lets a long quiet prefix permanently suppress burst
#: detection late in a run.
FAULT_BURST_WINDOW = 8


class NullModel:
    """Placement model that never moves anything.

    Pass as a ``policy`` override for baseline / profiling-only runs
    (e.g. the TierScape-tax figure's first two configurations).
    """

    name = "baseline"
    solver_ns = 0.0

    def recommend(self, record, system) -> dict[int, int]:
        return {}


class Session:
    """Execute one scenario through the instrumented window loop.

    Args:
        spec: The declarative scenario.
        workload: Prebuilt workload generator; overrides
            ``spec.workload`` construction.
        system: Prebuilt tiered system; overrides the canonical
            ``build_system`` path.
        policy: Prebuilt placement model; overrides ``make_policy``.
        migration_filter: Optional §6.7 filter override for the daemon.
        hooks: Event hooks called synchronously on each emitted event.
        obs: Observability bundle (metrics + tracing); defaults to the
            shared disabled bundle, whose operations are no-ops.
        sink: Optional :class:`~repro.obs.sink.StreamSink` for the event
            log (bounded ring + JSONL spill instead of full buffering).
        injector: Prebuilt :class:`~repro.chaos.faults.FaultInjector`
            (the fleet passes a node-filtered one); by default one is
            built from ``spec.faults`` when present.  When an injector
            is live, the policy is wrapped in a
            :class:`~repro.chaos.policies.ResilientModel` and the
            injector's fault/recovery notes are drained into the event
            log each window.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        workload=None,
        system=None,
        policy=None,
        migration_filter=None,
        hooks: tuple[EventHook, ...] = (),
        obs: Observability | None = None,
        sink=None,
        injector=None,
    ) -> None:
        self.spec = spec
        self.obs = obs if obs is not None else NULL_OBS
        if injector is None:
            plan = spec.fault_plan()
            if plan is not None:
                from repro.chaos.faults import FaultInjector

                injector = FaultInjector(plan)
        self.injector = injector
        self.workload = (
            workload
            if workload is not None
            else make_workload(
                spec.workload, seed=spec.seed, **spec.scaled_workload_kwargs()
            )
        )
        self.system = (
            system
            if system is not None
            else build_system(
                self.workload,
                mix=spec.mix,
                seed=spec.seed,
                fast_same_algo_migration=spec.fast_same_algo_migration,
            )
        )
        if injector is not None:
            injector.validate_against(self.system)
        self.policy = (
            policy
            if policy is not None
            else make_policy(
                spec.policy,
                mix=spec.mix,
                percentile=spec.percentile,
                alpha=spec.alpha,
                solver_backend=spec.solver_backend,
            )
        )
        if policy is None:
            # Registry-built policies may adopt spec-level knob blocks
            # (the adaptive controller's config + derived seed).  Never
            # called for prebuilt overrides: a checkpoint-restored
            # policy must keep its mid-run state, not reset it.
            configure = getattr(self.policy, "configure_from_spec", None)
            if configure is not None:
                configure(spec)
        if injector is not None:
            from repro.chaos.policies import ResilientModel

            if not isinstance(self.policy, ResilientModel):
                self.policy = ResilientModel(
                    self.policy, injector, percentile=spec.percentile
                )
        self.daemon = TSDaemon(
            self.system,
            self.policy,
            migration_filter=migration_filter,
            sampling_rate=spec.sampling_rate,
            cooling=spec.cooling,
            push_threads=spec.push_threads,
            recency_windows=spec.recency_windows,
            prefetch_degree=spec.prefetch_degree,
            telemetry=spec.telemetry,
            seed=spec.resolved_daemon_seed(),
            obs=self.obs,
            injector=injector,
        )
        registry = self.obs.registry
        self.log = EventLog(
            hooks,
            sink=sink,
            error_counter=registry.counter(
                "repro_hook_errors_total",
                "Event hooks that raised (isolated, not fatal)",
            )
            if registry.enabled
            else None,
        )
        self._burst_counter = registry.counter(
            "repro_fault_bursts_total",
            "Windows whose faults spiked above the trailing mean",
        )
        self._fault_history: list[int] = []

    # -- introspection -------------------------------------------------------

    @property
    def events(self) -> list[EngineEvent]:
        """Events emitted so far, in order."""
        return self.log.events

    @property
    def records(self) -> list[WindowRecord]:
        """Per-window daemon records."""
        return self.daemon.records

    # -- the window loop -----------------------------------------------------

    def run_window(
        self, page_ids=None, write_fraction: float | None = None
    ) -> WindowRecord:
        """Run one profile window of the scenario's workload.

        Args:
            page_ids: Prebuilt access batch for this window.  The batch
                loop leaves this ``None`` and pulls the next window from
                the workload generator; the live serving loop
                (:mod:`repro.serve`) passes the page ids it accumulated
                from the event stream instead, so online windows run
                through exactly this code path.
            write_fraction: Store fraction for an injected batch;
                defaults to the workload's.
        """
        window = len(self.daemon.records)
        with self.obs.tracer.span("window", window=window):
            self.log.emit("window_start", window)
            if page_ids is None:
                page_ids = self.workload.next_window()
            if write_fraction is None:
                write_fraction = self.workload.write_fraction
            moved_before = self.daemon.engine.stats.pages_moved
            record = self.daemon.run_window(
                page_ids, write_fraction=write_fraction
            )
        if self.injector is not None:
            for kind, note_window, data in self.injector.drain():
                self.log.emit(kind, note_window, **data)
        faults = int(record.faults.sum())
        self.log.emit(
            "window_end",
            record.window,
            tco_savings_pct=100.0 * record.tco_savings,
            slowdown_proxy_ns=record.access_ns,
            faults=faults,
            migration_ms=record.migration_wall_ns / 1e6,
            solver_ms=record.solver_ns / 1e6,
        )
        pages_moved = self.daemon.engine.stats.pages_moved - moved_before
        if pages_moved:
            self.log.emit(
                "migration",
                record.window,
                pages_moved=pages_moved,
                migration_ms=record.migration_wall_ns / 1e6,
            )
        self._observe_window(record)
        self._check_fault_burst(record.window, faults)
        return record

    def _observe_window(self, record: WindowRecord) -> None:
        """Feed the closed window back to a self-tuning policy.

        Looks through a resilient wrapper to its primary, so the
        adaptive controller keeps learning under chaos.
        """
        policy = self.policy
        observe = getattr(policy, "observe_window", None)
        if observe is None:
            primary = getattr(policy, "primary", None)
            observe = getattr(primary, "observe_window", None)
        if observe is not None:
            observe(record, self.system)

    def _check_fault_burst(self, window: int, faults: int) -> None:
        history = self._fault_history
        if history:
            mean = sum(history) / len(history)
            if faults >= FAULT_BURST_MIN and faults > FAULT_BURST_FACTOR * mean:
                self._burst_counter.inc()
                self.log.emit(
                    "fault_burst", window, faults=faults, trailing_mean=mean
                )
        history.append(faults)
        if len(history) > FAULT_BURST_WINDOW:
            del history[: len(history) - FAULT_BURST_WINDOW]

    def validate_capacity(self) -> None:
        """Reject workloads larger than the system's address space."""
        if self.workload.num_pages > self.system.space.num_pages:
            raise ValueError(
                f"workload touches {self.workload.num_pages} pages but the "
                f"address space has {self.system.space.num_pages}"
            )

    def finish(self) -> None:
        """Close the event log and surface isolated hook failures.

        Shared by :meth:`run` and the live serving drain path, which
        both end a session's window loop.
        """
        if self.log.hook_error_count:
            _log.warning(
                "%d event hook failure(s) were isolated during the run; "
                "first: %s",
                self.log.hook_error_count,
                self.log.hook_errors[0] if self.log.hook_errors else "?",
            )
        self.log.close()

    def run(self, windows: int | None = None) -> RunSummary:
        """Drive the loop for ``windows`` (default: the spec's count)."""
        self.validate_capacity()
        for _ in range(self.spec.windows if windows is None else windows):
            self.run_window()
        self.finish()
        return self.summary()

    def summary(self) -> RunSummary:
        """Aggregate the windows run so far."""
        summary = self.daemon.summary(self.workload.name)
        if self.log.hook_error_count:
            summary.extras["hook_errors"] = self.log.hook_error_count
        return summary


def run_scenario(
    spec: ScenarioSpec,
    hooks: tuple[EventHook, ...] = (),
    obs: Observability | None = None,
) -> tuple[RunSummary, Session]:
    """Build a session for ``spec``, run it, and return both."""
    session = Session(spec, hooks=hooks, obs=obs)
    return session.run(), session
