"""Serve ≡ batch: the live path must be the batch path, bit for bit.

Two guarantees pinned here (both acceptance criteria of the serving
subsystem):

1. **Replay equivalence** -- a recorded trace replayed through
   ``ServeDaemon`` with the ``source`` window rule emits byte-identical
   placement/migration event streams to a batch ``Session`` run over
   the same trace, and the live Prometheus exposition matches the
   batch end-of-run export.
2. **Windowing equivalence (property)** -- for *any* chunking of the
   same event stream, the ``events:N`` rule closes exactly the windows
   a batch loop over N-event slices runs, so the daemon's session ends
   up identical to a batch session fed those slices directly.

Everything runs on the virtual clock: no real sleeps, deterministic in
CI.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.obs import Observability, parse_prometheus, to_prometheus
from repro.serve import (
    Chunk,
    QueueSource,
    ServeDaemon,
    ServeOptions,
)
from repro.workloads import make_workload, record_trace

from tests._goldens import golden_text

#: Event kinds only the serving drain path emits -- excluded when
#: comparing against a batch run, which never drains.
SERVE_ONLY_KINDS = ("drain", "checkpoint")


def _event_stream(session: Session) -> str:
    """Normalised text form of a session's engine events."""
    rows = [
        e.row()
        for e in session.events
        if e.kind not in SERVE_ONLY_KINDS
    ]
    return golden_text(rows)


class TestReplayEquivalence:
    def test_replayed_trace_matches_batch_run(self, tmp_path):
        workload = make_workload(
            "diurnal-kv", seed=11, num_pages=1024, ops_per_window=3000
        )
        trace = record_trace(workload, 6, tmp_path / "trace.npz")
        spec = ScenarioSpec(
            workload="trace",
            workload_kwargs={"path": str(trace), "loop": False},
            windows=6,
            policy="waterfall",
            seed=11,
        )

        batch = Session(spec, obs=Observability(metrics=True))
        batch.run()

        daemon = ServeDaemon(
            spec,
            ServeOptions(
                stream=f"replay:{trace}",
                window="source",
                rate=1_000_000.0,
                virtual_clock=True,
                http=False,
            ),
        )
        report = asyncio.run(daemon.run())
        live = daemon.session

        assert report.reason == "source-end"
        assert report.windows == 6
        assert report.flushed_events == 0

        # Byte-identical event streams: every placement decision and
        # migration the live loop made is the batch loop's, verbatim.
        assert _event_stream(live) == _event_stream(batch)

        # The live registry is the batch registry (volatile timing
        # samples excluded -- wall time differs by construction).
        assert to_prometheus(
            live.obs.registry, include_volatile=False
        ) == to_prometheus(batch.obs.registry, include_volatile=False)

        # And the full live exposition -- what /metrics serves --
        # parses cleanly and carries the right window count.
        parsed = parse_prometheus(daemon.metrics_text())
        assert parsed["repro_windows_total"][()] == 6.0


class TestWindowingProperty:
    """events:N windowing is chunking-invariant end to end."""

    SPEC = ScenarioSpec(
        workload="diurnal-kv",
        workload_kwargs={"num_pages": 1024, "ops_per_window": 2000},
        windows=2,
        policy="waterfall",
        seed=3,
    )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        total_events=st.integers(50, 400),
        window_events=st.integers(10, 100),
    )
    def test_chunked_stream_equals_batched_slices(
        self, seed, total_events, window_events
    ):
        rng = np.random.default_rng(seed)
        pages = rng.integers(0, 1024, size=total_events, dtype=np.int64)

        # Batch reference: run N-event slices straight through a
        # session, trailing partial included (the drain flush).
        batch = Session(self.SPEC, obs=Observability(metrics=True))
        batch.validate_capacity()
        for start in range(0, total_events, window_events):
            batch.run_window(
                np.bincount(pages[start : start + window_events], minlength=1024),
                write_fraction=0.1,
            )
        batch.finish()

        # Live: the same stream under an arbitrary chunking.
        cuts = rng.integers(0, total_events, size=rng.integers(0, 8))
        bounds = sorted({0, total_events, *cuts.tolist()})
        chunks = [
            Chunk(pages[a:b], write_fraction=0.1)
            for a, b in zip(bounds, bounds[1:])
        ]

        async def go():
            daemon = ServeDaemon(
                self.SPEC,
                ServeOptions(
                    window=f"events:{window_events}",
                    virtual_clock=True,
                    http=False,
                ),
            )
            source = QueueSource()
            daemon.source = source
            task = asyncio.create_task(daemon.run())
            for chunk in chunks:
                await source.put(chunk)
            await source.stop()
            await task
            return daemon

        daemon = asyncio.run(go())
        live = daemon.session

        assert daemon.events_ingested == total_events
        assert live.daemon.records and len(live.daemon.records) == len(
            batch.daemon.records
        )
        assert _event_stream(live) == _event_stream(batch)
        assert to_prometheus(
            live.obs.registry, include_volatile=False
        ) == to_prometheus(batch.obs.registry, include_volatile=False)
