"""Span recording for the traced run, from outside the program.

The traced run times each layer by wrapping the public call the daemon
makes into it.  Wrappers go on the *class* (or module) that defines the
callable, never on an instance: instances are pickled by
``capture_session``, and a closure stored on one cannot be pickled.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, window)``
and written once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; summing self time per layer
over a window's span tree gives back that window's wall time exactly, so
the layer shares add up to 1.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

#: Span name -> the layer its self time is charged to.  The per-window
#: root span ("window") is charged to ``serve`` on the serving workload
#: (stream ingest and window validation run there, outside the engine)
#: and to ``engine`` otherwise; see :func:`layer_metrics`.
SPAN_LAYERS = {
    "workloads.next_window": "workloads",
    "mem.access_batch": "mem",
    "telemetry.record": "telemetry",
    "telemetry.end_window": "telemetry",
    "policy.recommend": "policy",
    "filter.apply": "filter",
    "migration.apply": "migration",
    "adaptive.observe_window": "adaptive",
    "checkpoint.capture": "checkpoint",
    "checkpoint.restore": "checkpoint",
    "engine.run_window": "engine",
}

#: Layers in report order; each reports ``<layer>.share`` of window time.
LAYERS = (
    "workloads",
    "mem",
    "telemetry",
    "policy",
    "filter",
    "migration",
    "adaptive",
    "checkpoint",
    "serve",
    "engine",
)


@dataclass
class Span:
    """One timed call.  ``window`` is ``None`` outside the window loop
    (output checks); ``counts`` holds work counted at the same boundary."""

    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    window: int | None = None
    counts: dict = field(default_factory=dict)


def _defining_owner(obj, attr: str):
    """The class in ``obj``'s MRO whose ``__dict__`` defines ``attr``."""
    for klass in type(obj).__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{type(obj).__name__} has no attribute {attr!r}")


class SpanRecorder:
    """In-memory span store plus the class-level wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Global index of the window being run; ``None`` between windows.
        self.window: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._open_roots: list[int] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter_ns(), parent=parent)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        # Window ids are assigned on close: on the serving path the
        # engine announces a window only after its run_window call began.
        span.window = self.window
        if counts:
            span.counts = counts
        self._stack.pop()
        if span.parent is None and span.window is not None:
            self._open_roots.append(index)

    def close_window(self, window: int, start_ns: int, end_ns: int) -> None:
        """Add ``window``'s root span and adopt its top-level spans."""
        self.spans.append(
            Span("window", start_ns, end_ns, parent=None, window=window)
        )
        root = len(self.spans) - 1
        keep = []
        for index in self._open_roots:
            if self.spans[index].window == window:
                self.spans[index].parent = root
            else:
                keep.append(index)
        self._open_roots = keep

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, before=None):
        """Wrap ``owner.attr`` in a span named ``name``.

        ``before(args)`` runs ahead of the call; ``after(args, result,
        before_state)`` returns the counts recorded on the span.
        """
        original = vars(owner)[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            index = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                recorder._close(index)
                raise
            counts = after(args, result, state) if after is not None else None
            recorder._close(index, counts)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, session) -> None:
        """Wrap every layer entry point ``session``'s daemon calls.

        Idempotent: the wrappers stay on the classes until
        :meth:`uninstall`, so later sessions of the same scenario are
        traced without re-wrapping.
        """
        if self._patches:
            return
        from repro.chaos import checkpoint
        from repro.engine.session import Session
        from repro.serve import daemon as serve_daemon

        daemon = session.daemon
        policy = session.policy
        self._patch(Session, "run_window", "engine.run_window")
        self._patch(
            _defining_owner(session.workload, "next_window"),
            "next_window",
            "workloads.next_window",
        )
        self._patch(
            _defining_owner(session.system, "access_batch"),
            "access_batch",
            "mem.access_batch",
            after=lambda args, batch, _: {"faults": int(batch.faults)},
        )
        for attr in ("record", "end_window"):
            self._patch(
                _defining_owner(daemon.profiler, attr), attr, f"telemetry.{attr}"
            )
        self._patch(
            _defining_owner(policy, "recommend"),
            "recommend",
            "policy.recommend",
        )
        self._patch(
            _defining_owner(daemon.filter, "apply"),
            "apply",
            "filter.apply",
            after=lambda args, wave, _: {
                "recommended": len(args[1]),
                "kept": len(wave),
            },
        )
        self._patch(
            _defining_owner(daemon.engine, "apply"),
            "apply",
            "migration.apply",
            before=lambda args: (
                args[0].stats.pages_moved,
                args[0].system.failed_stores,
            ),
            after=lambda args, _, before: {
                "pages": args[0].stats.pages_moved - before[0],
                "failed_stores": args[0].system.failed_stores - before[1],
            },
        )
        if hasattr(policy, "observe_window"):
            self._patch(
                _defining_owner(policy, "observe_window"),
                "observe_window",
                "adaptive.observe_window",
            )
        # The serving daemon imported capture_session into its own
        # namespace, so both module attributes are patched.
        for module in (checkpoint, serve_daemon):
            self._patch(
                module,
                "capture_session",
                "checkpoint.capture",
                after=lambda args, blob, _: {"bytes": len(blob)},
            )
        self._patch(checkpoint, "restore_session", "checkpoint.restore")

    def uninstall(self) -> None:
        """Put every wrapped callable back, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path, **header) -> None:
        """Write every span, plus ``header`` fields, as one JSON file."""
        document = dict(header)
        document["spans"] = [asdict(span) for span in self.spans]
        with open(path, "w") as handle:
            json.dump(document, handle)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end_ns - span.start_ns for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end_ns - span.start_ns
    return own


def layer_metrics(spans: list[Span], serve: bool) -> dict[str, float]:
    """Per-layer metrics (values only) from a traced run's spans.

    Times are self times in ms per traced window, except the checkpoint
    and restore times, which are ms per call (output checks capture and
    restore outside the window loop too).  Shares are of window wall time.
    """
    own = self_times(spans)
    roots = [s for s in spans if s.name == "window"]
    windows = max(1, len(roots))
    wall_ns = sum(s.end_ns - s.start_ns for s in roots)
    in_window_ns = {layer: 0 for layer in LAYERS}
    by_name_ns: dict[str, int] = {}
    calls: dict[str, list[Span]] = {}
    for span, self_ns in zip(spans, own):
        calls.setdefault(span.name, []).append(span)
        if span.window is None:
            continue
        if span.name == "window":
            layer = "serve" if serve else "engine"
        else:
            layer = SPAN_LAYERS[span.name]
        in_window_ns[layer] += self_ns
        by_name_ns[span.name] = by_name_ns.get(span.name, 0) + self_ns

    def per_window_ms(name: str) -> float:
        return by_name_ns.get(name, 0) / 1e6 / windows

    def per_call_ms(name: str) -> float:
        found = calls.get(name, [])
        if not found:
            return 0.0
        return sum(s.end_ns - s.start_ns for s in found) / 1e6 / len(found)

    def total(name: str, key: str) -> int:
        return sum(
            s.counts.get(key, 0)
            for s in calls.get(name, [])
            if s.window is not None
        )

    recommended = total("filter.apply", "recommended")
    captures = calls.get("checkpoint.capture", [])
    metrics = {
        "workloads.next_window_ms": per_window_ms("workloads.next_window"),
        "mem.access_batch_ms": per_window_ms("mem.access_batch"),
        "mem.faults_per_window": total("mem.access_batch", "faults") / windows,
        "telemetry.record_ms": per_window_ms("telemetry.record"),
        "telemetry.end_window_ms": per_window_ms("telemetry.end_window"),
        "policy.recommend_ms": per_window_ms("policy.recommend"),
        "filter.apply_ms": per_window_ms("filter.apply"),
        # Nothing recommended means no solve work was wasted.
        "filter.kept_ratio": (
            total("filter.apply", "kept") / recommended if recommended else 1.0
        ),
        "migration.apply_ms": per_window_ms("migration.apply"),
        "migration.pages_per_window": total("migration.apply", "pages")
        / windows,
        "migration.failed_stores": total("migration.apply", "failed_stores"),
        "adaptive.observe_window_ms": per_window_ms("adaptive.observe_window"),
        "checkpoint.capture_ms": per_call_ms("checkpoint.capture"),
        "checkpoint.restore_ms": per_call_ms("checkpoint.restore"),
        "checkpoint.bytes": (
            sum(s.counts.get("bytes", 0) for s in captures) / len(captures)
            if captures
            else 0.0
        ),
        "serve.ingest_ms": in_window_ns["serve"] / 1e6 / windows,
        "engine.residual_ms": in_window_ns["engine"] / 1e6 / windows,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (
            in_window_ns[layer] / wall_ns if wall_ns else 0.0
        )
    return metrics
