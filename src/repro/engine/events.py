"""Structured engine events: one stream for every consumer.

The session emits a small, flat event per interesting moment of the
window loop:

* ``window_start`` -- a profile window is about to run,
* ``window_end``   -- the window closed; payload carries the headline
  per-window metrics (the shape the fleet's JSONL export and the bench
  exporters both consume),
* ``migration``    -- the migration wave moved pages this window,
* ``fault_burst``  -- this window's compressed-tier faults spiked above
  the run's trailing mean (a thrashing signal),
* ``fault``        -- the chaos injector fired (payload: the fault kind
  and its context -- see :mod:`repro.chaos`),
* ``recovery``     -- the resilience machinery recovered something (a
  degradation level stepped back up, a capacity shock expired, a node
  resumed from its checkpoint),
* ``drain``        -- a live serving loop (:mod:`repro.serve`) stopped
  ingesting and flushed its final partial window,
* ``checkpoint``   -- a session checkpoint was captured (the serving
  loop's drain-and-checkpoint shutdown path),
* ``invariant_violation`` -- a runtime invariant check (the scenario's
  ``check_invariants`` option) failed; payload: the failed assertion.

Events are plain data (kind, window, flat payload), so exporting them is
just :func:`repro.bench.export.export` on the flattened rows -- there is
no bench-private or fleet-private record shape anymore.

Retention has two modes.  By default the log buffers every event (fine
for figure-sized runs, and what ``session.events`` consumers expect).
Long runs pass a :class:`repro.obs.sink.StreamSink` instead: events
stream to a bounded ring plus an optional JSONL spill file, so memory
stays O(ring) no matter how many windows execute.

Hook failures are *isolated*: a raising :data:`EventHook` no longer
aborts the run mid-window.  The exception is recorded (bounded), counted
(optionally into an obs counter), and surfaced by the session at run
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.logs import get_logger

#: The event kinds a session can emit.
EVENT_KINDS = (
    "window_start",
    "window_end",
    "migration",
    "fault_burst",
    "fault",
    "recovery",
    "drain",
    "checkpoint",
    "invariant_violation",
)

#: An event consumer: called synchronously as each event is emitted.
EventHook = Callable[["EngineEvent"], None]

#: Hook tracebacks retained for the run-end report.
MAX_HOOK_ERRORS = 32

_log = get_logger("engine.events")


@dataclass(frozen=True)
class EngineEvent:
    """One structured event from the session's window loop.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        window: Window index the event belongs to.
        data: Flat, JSON-serializable payload.
    """

    kind: str
    window: int
    data: dict = field(default_factory=dict)

    def row(self) -> dict:
        """Flat export row (``event`` + ``window`` + payload)."""
        return {"event": self.kind, "window": self.window, **self.data}


class EventLog:
    """Collects events and fans them out to subscribed hooks.

    Args:
        hooks: Initial hook subscriptions.
        sink: Optional :class:`~repro.obs.sink.StreamSink`; when given,
            events stream through it (``events`` then exposes only the
            ring's recent tail) instead of accumulating unboundedly.
        error_counter: Optional obs counter incremented per hook failure.
    """

    def __init__(
        self,
        hooks: Iterable[EventHook] = (),
        sink=None,
        error_counter=None,
    ) -> None:
        self._events: list[EngineEvent] = []
        self._sink = sink
        self._hooks: list[EventHook] = list(hooks)
        self.error_counter = error_counter
        self.hook_error_count = 0
        self.hook_errors: list[dict] = []

    @property
    def events(self) -> list[EngineEvent]:
        """Retained events: everything (no sink) or the recent ring."""
        if self._sink is not None:
            return self._sink.recent()
        return self._events

    @property
    def event_count(self) -> int:
        """Events emitted so far (including any streamed out of the ring)."""
        if self._sink is not None:
            return self._sink.count
        return len(self._events)

    def subscribe(self, hook: EventHook) -> None:
        self._hooks.append(hook)

    def emit(self, kind: str, window: int, /, **data) -> EngineEvent:
        # kind/window are positional-only so the payload may carry its
        # own "kind"/"window" keys (chaos fault notes do).
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; available: {EVENT_KINDS}"
            )
        event = EngineEvent(kind=kind, window=window, data=data)
        if self._sink is not None:
            self._sink.append(event)
        else:
            self._events.append(event)
        for hook in self._hooks:
            try:
                hook(event)
            except Exception as exc:  # noqa: BLE001 - hook isolation
                self._record_hook_error(hook, event, exc)
        return event

    def _record_hook_error(
        self, hook: EventHook, event: EngineEvent, exc: Exception
    ) -> None:
        self.hook_error_count += 1
        if self.error_counter is not None:
            self.error_counter.inc()
        if len(self.hook_errors) < MAX_HOOK_ERRORS:
            self.hook_errors.append(
                {
                    "hook": getattr(hook, "__name__", repr(hook)),
                    "event": event.kind,
                    "window": event.window,
                    "error": repr(exc),
                }
            )
        _log.debug(
            "event hook %r failed on %s window %d: %r",
            getattr(hook, "__name__", hook),
            event.kind,
            event.window,
            exc,
        )

    def close(self) -> None:
        """Flush the streaming sink, if any."""
        if self._sink is not None:
            self._sink.close()


def window_rows(events: Iterable[EngineEvent]) -> list[dict]:
    """Per-window metric rows: the ``window_end`` payloads, flattened.

    This is the canonical per-window record shape; the fleet prepends
    node identity to each row and the bench exporters write them as-is.
    """
    return [
        {"window": e.window, **e.data}
        for e in events
        if e.kind == "window_end"
    ]


def event_rows(events: Iterable[EngineEvent]) -> list[dict]:
    """Every event as one flat export row, in emission order."""
    return [e.row() for e in events]


def export_events(events: Iterable[EngineEvent], path) -> Path:
    """Persist an event stream (JSONL/JSON/CSV by file suffix)."""
    from repro.bench.export import export

    return export(event_rows(events), path)
