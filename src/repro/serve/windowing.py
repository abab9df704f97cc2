"""Online window closing: when does a live stream become a window?

The batch engine gets its windows for free -- one generator call each.
A live stream instead accumulates events until a *window rule* says the
profile window is over:

* ``source``    -- close exactly where the source marks boundaries
  (recorded trace windows, generator windows, explicit socket
  boundaries).  The rule that makes replay byte-identical to batch.
* ``events:N``  -- close after every N events, splitting chunks at the
  exact boundary.  Deterministic for any chunking of the same stream --
  the property the hypothesis equivalence test pins.
* ``seconds:S`` -- close when S clock-seconds elapsed since the window
  opened (checked at chunk granularity, like real profilers that
  tick on their sampling interrupt).  Works on wall *and* virtual
  clocks.

:class:`WindowAccumulator` applies a rule to a chunk stream and yields
:class:`PendingWindow` batches of page ids; the serving daemon counts
each one into the per-page counts
:meth:`repro.engine.session.Session.run_window` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.stream import Chunk

#: Window-rule kinds.
WINDOW_RULES = ("source", "events", "seconds")


@dataclass(frozen=True)
class WindowRule:
    """Parsed form of a ``--window`` argument.

    Attributes:
        kind: One of :data:`WINDOW_RULES`.
        events: Events per window (``events`` rule).
        seconds: Seconds per window (``seconds`` rule).
    """

    kind: str = "source"
    events: int = 0
    seconds: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "WindowRule":
        """Parse ``source`` / ``events:N`` / ``seconds:S``."""
        kind, _, rest = text.partition(":")
        if kind == "source":
            if rest:
                raise ValueError(
                    f"window rule 'source' takes no argument, got {text!r}"
                )
            return cls(kind="source")
        if kind == "events":
            try:
                events = int(rest)
            except ValueError:
                raise ValueError(
                    f"window rule 'events' needs an integer, got {text!r}"
                ) from None
            if events < 1:
                raise ValueError("events per window must be >= 1")
            return cls(kind="events", events=events)
        if kind == "seconds":
            try:
                seconds = float(rest)
            except ValueError:
                raise ValueError(
                    f"window rule 'seconds' needs a number, got {text!r}"
                ) from None
            if seconds <= 0:
                raise ValueError("seconds per window must be > 0")
            return cls(kind="seconds", seconds=seconds)
        raise ValueError(
            f"unknown window rule {kind!r}; "
            f"available: {', '.join(WINDOW_RULES)}"
        )


@dataclass(frozen=True)
class PendingWindow:
    """One closed window's access batch, ready to run.

    Attributes:
        pages: The window's page accesses, arrival order.  A window
            built from a single chunk aliases that chunk's array (or a
            slice of it) instead of copying it; readers must not write
            to it.
        write_fraction: Event-weighted store fraction of the
            contributing chunks; ``None`` when no chunk carried one.
    """

    pages: np.ndarray
    write_fraction: float | None


class WindowAccumulator:
    """Buffers chunks and closes windows per the rule.

    Feed chunks with :meth:`add`; each call returns the (possibly
    empty) list of windows that closed.  On drain, :meth:`flush`
    returns the final partial window, if any.

    Args:
        rule: The closing rule.
        clock: Clock for the ``seconds`` rule (ignored otherwise).
    """

    def __init__(self, rule: WindowRule, clock=None) -> None:
        if rule.kind == "seconds" and clock is None:
            raise ValueError("the 'seconds' rule needs a clock")
        self.rule = rule
        self.clock = clock
        self._parts: list[np.ndarray] = []
        self._events = 0
        # (events, write_fraction) per contributing chunk, for the
        # event-weighted mean; None write_fractions contribute nothing.
        self._wf_weights: list[tuple[int, float]] = []
        self._opened_at: float | None = None

    @property
    def pending_events(self) -> int:
        """Events buffered in the currently open window."""
        return self._events

    def _push(self, pages: np.ndarray, write_fraction: float | None) -> None:
        if not len(pages):
            return
        self._parts.append(pages)
        self._events += len(pages)
        if write_fraction is not None:
            self._wf_weights.append((len(pages), write_fraction))

    def _close(self) -> PendingWindow:
        parts = self._parts
        if len(parts) == 1:
            pages = parts[0]
        elif parts:
            pages = np.concatenate(parts)
        else:
            pages = np.empty(0, dtype=np.int64)
        fractions = {f for _, f in self._wf_weights}
        if not fractions:
            wf = None
        elif len(fractions) == 1:
            # Exact, not a (n*f)/n float round-trip: a uniform stream
            # must reproduce the workload's fraction bit-for-bit (the
            # replay-equals-batch guarantee depends on it).
            wf = fractions.pop()
        else:
            weight = sum(n for n, _ in self._wf_weights)
            wf = sum(n * f for n, f in self._wf_weights) / weight
        self._parts = []
        self._events = 0
        self._wf_weights = []
        self._opened_at = None
        return PendingWindow(pages, wf)

    def add(self, chunk: Chunk) -> list[PendingWindow]:
        """Buffer one chunk; returns windows that closed because of it."""
        closed: list[PendingWindow] = []
        if self.rule.kind == "seconds" and self._opened_at is None:
            self._opened_at = self.clock.now()
        if self.rule.kind == "events":
            # Split the chunk at exact event boundaries so the same
            # stream closes the same windows however it was chunked.
            pages = chunk.pages
            offset = 0
            while len(pages) - offset >= self.rule.events - self._events:
                take = self.rule.events - self._events
                self._push(pages[offset : offset + take], chunk.write_fraction)
                offset += take
                closed.append(self._close())
            if offset < len(pages):
                self._push(pages[offset:], chunk.write_fraction)
            return closed
        self._push(chunk.pages, chunk.write_fraction)
        if self.rule.kind == "source":
            if chunk.boundary and self._events:
                closed.append(self._close())
        elif self.rule.kind == "seconds":
            if (
                self._events
                and self.clock.now() - self._opened_at >= self.rule.seconds
            ):
                closed.append(self._close())
        return closed

    def flush(self) -> PendingWindow | None:
        """Close the open window (drain path); ``None`` when empty."""
        if not self._events:
            return None
        return self._close()
