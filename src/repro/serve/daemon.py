"""The serving daemon: one session, fed by a live event stream.

:class:`ServeDaemon` owns a long-running
:class:`~repro.engine.session.Session` and replaces the batch ``for _ in
range(windows)`` loop with stream ingest: chunks arrive from a
:mod:`~repro.serve.stream` source, a
:class:`~repro.serve.windowing.WindowAccumulator` closes profile windows
per the configured rule, and every closed window's page ids are
counted per page (:func:`~repro.workloads.base.count_ids`) and run
through ``Session.run_window`` -- the *same* instrumented path the
batch engine uses, so placement decisions, migrations, obs
metrics/spans and engine events are identical for identical windows.

On top of the loop:

* **HTTP** -- a :class:`~repro.serve.http.MetricsServer` exposes
  ``/metrics`` (live Prometheus text), ``/healthz`` and ``/status``.
* **Wall-clock chaos** -- ``at_s``/``for_s``-scheduled
  :class:`~repro.chaos.faults.FaultSpec` events in the scenario's fault
  plan are bound to whichever live window overlaps their schedule
  (:meth:`~repro.chaos.faults.FaultInjector.bind_wall_clock`), so
  telemetry dropouts and capacity shocks land mid-serve exactly as the
  RUNBOOK drill describes.
* **Drain** -- SIGTERM/SIGINT (or source exhaustion, or a window limit)
  stops ingest, flushes the final partial window, emits ``drain`` and
  ``checkpoint`` engine events, and captures a PR-5 checkpoint from
  which :meth:`ServeDaemon.from_checkpoint` resumes.

The simulation step itself is synchronous: a slow solver window delays
concurrent scrapes (they are served between windows).  That mirrors the
paper's daemon, whose placement step also runs on the hot loop.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.checkpoint import (
    capture_session,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.obs import Observability, to_prometheus, write_prometheus
from repro.obs.logs import get_logger
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.http import MetricsServer
from repro.serve.stream import (
    GeneratorSource,
    ReplaySource,
    SocketSource,
    StreamSpec,
)
from repro.serve.windowing import WindowAccumulator, WindowRule
from repro.workloads.base import count_ids

_log = get_logger("serve.daemon")


@dataclass(frozen=True)
class ServeOptions:
    """Everything ``repro serve`` configures beyond the scenario.

    Attributes:
        stream: Source spec (:meth:`StreamSpec.parse` string or parsed).
        window: Window-closing rule (:meth:`WindowRule.parse` string or
            parsed).
        rate: Replay pacing, events/second (``replay`` streams only);
            ``None`` replays unpaced.
        virtual_clock: Run on a :class:`~repro.serve.clock.VirtualClock`
            (deterministic, no real sleeps) instead of wall time.
        max_windows: Stop and drain after this many windows (counting
            restored ones); ``None`` serves until the source ends or a
            signal arrives.
        http: Serve the HTTP endpoint.
        http_host / http_port: Bind address; port 0 is ephemeral.
        checkpoint: Path the drain checkpoint is written to; ``None``
            skips checkpointing.
        metrics_out: Prometheus textfile written at drain; ``None``
            skips it.
        on_ready: Called once ingest is live with a dict of bound
            addresses (``http``, and ``stream`` for socket sources).
    """

    stream: StreamSpec | str = "generator"
    window: WindowRule | str = "source"
    rate: float | None = None
    virtual_clock: bool = False
    max_windows: int | None = None
    http: bool = True
    http_host: str = "127.0.0.1"
    http_port: int = 0
    checkpoint: str | Path | None = None
    metrics_out: str | Path | None = None
    on_ready: object = None

    def resolved_stream(self) -> StreamSpec:
        if isinstance(self.stream, StreamSpec):
            return self.stream
        return StreamSpec.parse(self.stream)

    def resolved_window(self) -> WindowRule:
        if isinstance(self.window, WindowRule):
            return self.window
        return WindowRule.parse(self.window)


@dataclass
class DrainReport:
    """What the drain path did (returned by :meth:`ServeDaemon.run`).

    Attributes:
        reason: ``"signal"``, ``"source-end"`` or ``"window-limit"``.
        windows: Total windows completed (including restored ones).
        flushed_events: Events in the final partial window (0 = none).
        checkpoint: Path the checkpoint was saved to, or ``None``.
        metrics_path: Path the drain textfile export was written to.
    """

    reason: str = ""
    windows: int = 0
    flushed_events: int = 0
    checkpoint: Path | None = None
    metrics_path: Path | None = None


class ServeDaemon:
    """Serve one scenario from a live event stream.

    Args:
        spec: The scenario (workload/system/policy/faults); its
            ``windows`` count is *not* a limit here -- live runs are
            bounded by ``options.max_windows``, the source, or a signal.
        options: Serving configuration.
        session: Prebuilt session override (checkpoint resume path).
        windows_done: Windows already completed by a restored session.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        options: ServeOptions | None = None,
        *,
        session: Session | None = None,
        windows_done: int = 0,
    ) -> None:
        self.options = options or ServeOptions()
        self.clock = (
            VirtualClock() if self.options.virtual_clock else WallClock()
        )
        self.stream_spec = self.options.resolved_stream()
        self.window_rule = self.options.resolved_window()
        if (
            windows_done
            and self.stream_spec.kind == "replay"
            and self.window_rule.kind != "source"
        ):
            # A replay resume skips one recorded window per closed one,
            # which holds only when windows close where the trace's do.
            raise ValueError(
                "a replay stream resumes only under the 'source' window "
                f"rule, not {self.window_rule.kind!r}: the checkpoint's "
                f"{windows_done} windows are not recorded windows"
            )
        if session is None:
            session = Session(spec, obs=Observability(metrics=True))
        self.session = session
        self.session.validate_capacity()
        self.restored_windows = windows_done
        self.accumulator = WindowAccumulator(self.window_rule, self.clock)
        self.source = self._build_source()
        self._draining = False
        self._drain_reason = ""
        self._window_opened_s = 0.0
        #: Out-of-range page accesses dropped (socket feeders).
        self.rejected_events = 0
        #: Total events ingested, out-of-range ones included (those are
        #: also counted in ``rejected_events``).
        self.events_ingested = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls, path, options: ServeOptions | None = None
    ) -> "ServeDaemon":
        """Resume a drained serve from its checkpoint file.

        Generator streams resume mid-RNG (the workload pickles its
        stream position); replay streams skip the recorded windows the
        checkpoint already ran, so they resume only under the ``source``
        window rule (any other raises ``ValueError``); socket streams
        just pick up live traffic.  A trace workload is checkpointed by
        reference, so its file must still be there: a missing or
        re-recorded trace raises
        :class:`~repro.workloads.trace.TraceMismatchError`.  A truncated,
        corrupt or foreign file raises
        :class:`~repro.chaos.checkpoint.CheckpointError`.
        """
        session, _rows, windows_done = restore_session(
            load_checkpoint(path), obs=Observability(metrics=True)
        )
        return cls(
            session.spec,
            options,
            session=session,
            windows_done=windows_done,
        )

    def _build_source(self):
        spec = self.stream_spec
        if spec.kind == "generator":
            return GeneratorSource(self.session.workload)
        if spec.kind == "replay":
            return ReplaySource(
                spec.path,
                self.clock,
                rate=self.options.rate,
                skip_windows=self.restored_windows,
            )
        return SocketSource(spec)

    # -- introspection (HTTP handlers) ---------------------------------------

    @property
    def windows_done(self) -> int:
        """Windows completed so far (restored + live)."""
        return len(self.session.daemon.records)

    def metrics_text(self) -> str:
        """Current Prometheus exposition of the live registry."""
        return to_prometheus(self.session.obs.registry)

    def status(self) -> dict:
        """The ``/status`` document (schema: docs/SERVING.md)."""
        system = self.session.system
        placement = system.placement_counts()
        degradation = None
        controller = getattr(self.session.policy, "controller", None)
        # The chaos wrapper's DegradationController has levels; the
        # adaptive policy's AdaptiveController does not -- distinguish
        # by shape, since either may sit at ``policy.controller``.
        if controller is not None and hasattr(controller, "level"):
            degradation = {
                "level": controller.level,
                "mode": controller.mode,
                "transitions": len(controller.transitions),
            }
        adaptive = None
        inner = getattr(self.session.policy, "primary", self.session.policy)
        tuner = getattr(inner, "controller", None)
        if tuner is not None and hasattr(tuner, "alpha"):
            adaptive = {
                "alpha": round(float(tuner.alpha), 6),
                "demotion_percentile": round(
                    float(tuner.demotion_percentile), 3
                ),
                "steps": int(tuner.steps_total),
                "violations": int(tuner.violations),
                "headroom": round(float(tuner.headroom), 6),
            }
        return {
            "windows": self.windows_done,
            "events_ingested": self.events_ingested,
            "pending_events": self.accumulator.pending_events,
            "draining": self._draining,
            "clock_s": round(self.clock.now(), 6),
            "workload": self.session.workload.name,
            "policy": getattr(self.session.policy, "name", "?"),
            "tiers": [
                {
                    "name": tier.name,
                    "used_pages": int(tier.used_pages),
                    "capacity_pages": int(tier.capacity_pages),
                    "app_pages": int(placement[i]),
                }
                for i, tier in enumerate(system.tiers)
            ],
            "degradation": degradation,
            "adaptive": adaptive,
            "stream": {
                "kind": self.stream_spec.kind,
                "rejected_events": self.rejected_events,
                "rejected_lines": getattr(self.source, "rejected_lines", 0),
            },
        }

    def healthy(self) -> bool:
        return not self._draining

    # -- lifecycle -----------------------------------------------------------

    def request_drain(self, reason: str = "signal") -> None:
        """Begin graceful shutdown; idempotent, signal-handler safe."""
        if self._draining:
            return
        self._draining = True
        self._drain_reason = reason
        result = self.source.stop()
        if asyncio.iscoroutine(result):
            # Socket sources stop asynchronously (close + wake consumer).
            asyncio.get_running_loop().create_task(result)

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain, "signal")
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix loops; rely on KeyboardInterrupt there

    def _run_pending(self, pending) -> None:
        """Validate, count and run one closed window through the
        session."""
        num_pages = self.session.system.space.num_pages
        counts, rejected = count_ids(pending.pages, num_pages)
        self.rejected_events += rejected
        if rejected == len(pending.pages):
            return
        injector = self.session.injector
        if injector is not None:
            now = self.clock.now()
            bound = injector.bind_wall_clock(
                self.windows_done, self._window_opened_s, now
            )
            for event in bound:
                _log.info(
                    "wall-clock fault %s bound to window %d",
                    event.kind,
                    self.windows_done,
                )
        self.session.run_window(
            counts, write_fraction=pending.write_fraction
        )
        self._window_opened_s = self.clock.now()

    async def run(self) -> DrainReport:
        """Ingest until drained; returns what the drain did."""
        options = self.options
        http_server = None
        if options.http:
            http_server = MetricsServer(
                self.metrics_text,
                self.status,
                self.healthy,
                host=options.http_host,
                port=options.http_port,
            )
            await http_server.start()
        if isinstance(self.source, SocketSource):
            await self.source.start()
        self._install_signal_handlers()
        if options.on_ready is not None:
            addresses = {}
            if http_server is not None:
                addresses["http"] = http_server.address
            if isinstance(self.source, SocketSource):
                addresses["stream"] = self.source.address
            options.on_ready(addresses)
        self._window_opened_s = self.clock.now()
        try:
            async for chunk in self.source.__aiter__():
                self.events_ingested += len(chunk.pages)
                for pending in self.accumulator.add(chunk):
                    self._run_pending(pending)
                    if (
                        options.max_windows is not None
                        and self.windows_done >= options.max_windows
                    ):
                        self.request_drain("window-limit")
                        break
                if self._draining:
                    break
            if not self._draining:
                self.request_drain("source-end")
            return self._drain()
        finally:
            if http_server is not None:
                await http_server.stop()

    def _drain(self) -> DrainReport:
        """Flush, checkpoint and close -- the graceful-shutdown tail."""
        report = DrainReport(reason=self._drain_reason)
        flushed = self.accumulator.flush()
        report.flushed_events = len(flushed.pages) if flushed else 0
        if flushed is not None:
            self._run_pending(flushed)
        session = self.session
        report.windows = self.windows_done
        session.log.emit(
            "drain",
            self.windows_done,
            reason=self._drain_reason,
            flushed_events=report.flushed_events,
            events_ingested=self.events_ingested,
        )
        if self.options.checkpoint is not None:
            blob = capture_session(session)
            path = save_checkpoint(self.options.checkpoint, blob)
            session.log.emit(
                "checkpoint",
                self.windows_done,
                path=str(path),
                windows_done=self.windows_done,
            )
            report.checkpoint = path
            _log.info("drain checkpoint written to %s", path)
        session.finish()
        if self.options.metrics_out is not None:
            report.metrics_path = write_prometheus(
                session.obs.registry, self.options.metrics_out
            )
        return report


def serve(
    spec: ScenarioSpec, options: ServeOptions | None = None
) -> DrainReport:
    """Run a :class:`ServeDaemon` to completion on a fresh event loop."""
    daemon = ServeDaemon(spec, options)
    return asyncio.run(daemon.run())
