"""Tests for the live serving subsystem (repro.serve).

Covers the pieces in isolation -- stream-spec parsing, window-closing
rules, the virtual clock, sources, the HTTP endpoint -- and the daemon
end to end: generator/socket ingest, drain-and-checkpoint shutdown,
resume, wall-clock chaos binding, and the CLI's exit-2 conventions.
All async tests run on ``asyncio.run`` with the virtual clock or
loopback sockets: no real sleeps, no fixed ports.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultSpec
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.obs import Observability, parse_prometheus
from repro.serve import (
    Chunk,
    GeneratorSource,
    MetricsServer,
    QueueSource,
    ReplaySource,
    ServeDaemon,
    ServeOptions,
    SocketSource,
    StreamSpec,
    VirtualClock,
    WindowAccumulator,
    WindowRule,
)
from repro.workloads import make_workload, record_trace

SPEC = ScenarioSpec(
    workload="diurnal-kv",
    workload_kwargs={"num_pages": 1024, "ops_per_window": 3000},
    windows=4,
    policy="waterfall",
    seed=5,
)


def drain_source(source):
    """Collect every chunk a source yields."""

    async def go():
        return [chunk async for chunk in source.__aiter__()]

    return asyncio.run(go())


class TestStreamSpec:
    def test_parse_generator(self):
        assert StreamSpec.parse("generator").kind == "generator"

    def test_parse_replay(self):
        spec = StreamSpec.parse("replay:/tmp/t.npz")
        assert (spec.kind, spec.path) == ("replay", "/tmp/t.npz")

    def test_parse_tcp(self):
        spec = StreamSpec.parse("tcp:127.0.0.1:9000")
        assert (spec.kind, spec.host, spec.port) == ("tcp", "127.0.0.1", 9000)

    def test_parse_unix(self):
        spec = StreamSpec.parse("unix:/tmp/serve.sock")
        assert (spec.kind, spec.path) == ("unix", "/tmp/serve.sock")

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "generator:extra",
            "replay:",
            "unix:",
            "tcp:9000",
            "tcp:host:port",
            "tcp:host:99999",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            StreamSpec.parse(text)


class TestWindowRule:
    def test_parse_source(self):
        assert WindowRule.parse("source").kind == "source"

    def test_parse_events(self):
        rule = WindowRule.parse("events:500")
        assert (rule.kind, rule.events) == ("events", 500)

    def test_parse_seconds(self):
        rule = WindowRule.parse("seconds:2.5")
        assert (rule.kind, rule.seconds) == ("seconds", 2.5)

    @pytest.mark.parametrize(
        "text",
        ["bogus", "source:1", "events:zero", "events:0", "seconds:x", "seconds:0"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            WindowRule.parse(text)


class TestVirtualClock:
    def test_starts_at_zero_and_advances_on_sleep(self):
        clock = VirtualClock()
        assert clock.now() == 0.0

        async def go():
            await clock.sleep(2.5)
            await clock.sleep(0.5)

        asyncio.run(go())
        assert clock.now() == 3.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestWindowAccumulator:
    def test_events_rule_splits_chunks_exactly(self):
        acc = WindowAccumulator(WindowRule(kind="events", events=10))
        closed = acc.add(Chunk(np.arange(25)))
        assert [len(w.pages) for w in closed] == [10, 10]
        assert acc.pending_events == 5
        closed = acc.add(Chunk(np.arange(5)))
        assert [len(w.pages) for w in closed] == [10]
        assert acc.flush() is None

    def test_events_rule_chunking_invariant(self):
        """Any chunking of the same stream closes identical windows."""
        pages = np.arange(137) % 50
        rule = WindowRule(kind="events", events=20)
        for sizes in ([137], [1] * 137, [30, 70, 37], [20] * 6 + [17]):
            acc = WindowAccumulator(rule)
            windows = []
            offset = 0
            for size in sizes:
                windows += acc.add(Chunk(pages[offset : offset + size]))
                offset += size
            tail = acc.flush()
            got = [w.pages for w in windows] + (
                [tail.pages] if tail else []
            )
            expected = [pages[i : i + 20] for i in range(0, 137, 20)]
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(g, e)

    def test_source_rule_closes_on_boundaries(self):
        acc = WindowAccumulator(WindowRule(kind="source"))
        assert acc.add(Chunk(np.arange(5))) == []
        closed = acc.add(Chunk(np.arange(3), boundary=True))
        assert len(closed) == 1 and len(closed[0].pages) == 8

    def test_seconds_rule_uses_clock(self):
        clock = VirtualClock()
        acc = WindowAccumulator(
            WindowRule(kind="seconds", seconds=1.0), clock
        )
        assert acc.add(Chunk(np.arange(4))) == []
        clock.advance(1.5)
        closed = acc.add(Chunk(np.arange(2)))
        assert len(closed) == 1 and len(closed[0].pages) == 6

    def test_seconds_rule_needs_clock(self):
        with pytest.raises(ValueError):
            WindowAccumulator(WindowRule(kind="seconds", seconds=1.0))

    def test_uniform_write_fraction_is_exact(self):
        acc = WindowAccumulator(WindowRule(kind="source"))
        acc.add(Chunk(np.arange(3), write_fraction=0.1))
        closed = acc.add(Chunk(np.arange(7), write_fraction=0.1, boundary=True))
        assert closed[0].write_fraction == 0.1  # no float round-trip

    def test_mixed_write_fractions_weighted(self):
        acc = WindowAccumulator(WindowRule(kind="source"))
        acc.add(Chunk(np.arange(1), write_fraction=0.0))
        closed = acc.add(
            Chunk(np.arange(3), write_fraction=1.0, boundary=True)
        )
        assert closed[0].write_fraction == pytest.approx(0.75)

    def test_single_chunk_window_is_not_copied(self):
        acc = WindowAccumulator(WindowRule(kind="source"))
        pages = np.arange(6)
        (window,) = acc.add(Chunk(pages, boundary=True))
        assert window.pages is pages
        acc.add(Chunk(np.arange(2)))
        (window,) = acc.add(Chunk(np.arange(3), boundary=True))
        np.testing.assert_array_equal(window.pages, [0, 1, 0, 1, 2])

    def test_flush_returns_partial(self):
        acc = WindowAccumulator(WindowRule(kind="source"))
        acc.add(Chunk(np.arange(4)))
        tail = acc.flush()
        assert tail is not None and len(tail.pages) == 4
        assert acc.flush() is None


class TestSources:
    def test_generator_source_matches_workload(self):
        workload = make_workload("diurnal-kv", seed=5, num_pages=1024,
                                 ops_per_window=500)
        source = GeneratorSource(workload, windows=3)
        chunks = drain_source(source)
        reference = make_workload("diurnal-kv", seed=5, num_pages=1024,
                                  ops_per_window=500)
        assert len(chunks) == 3
        for chunk in chunks:
            assert chunk.boundary
            np.testing.assert_array_equal(
                np.bincount(chunk.pages, minlength=1024),
                reference.next_window(),
            )

    def test_replay_source_and_skip(self, tmp_path):
        workload = make_workload("diurnal-kv", seed=1, num_pages=1024,
                                 ops_per_window=400)
        trace = record_trace(workload, 5, tmp_path / "t.npz")
        clock = VirtualClock()
        chunks = drain_source(ReplaySource(trace, clock, rate=1000.0))
        assert len(chunks) == 5
        assert clock.now() == pytest.approx(5 * 400 / 1000.0)
        skipped = drain_source(
            ReplaySource(trace, VirtualClock(), skip_windows=3)
        )
        assert len(skipped) == 2
        np.testing.assert_array_equal(skipped[0].pages, chunks[3].pages)

    def test_replay_source_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            ReplaySource(tmp_path / "nope.npz", VirtualClock())

    def test_socket_source_ingests_and_rejects(self, tmp_path):
        sock = str(tmp_path / "serve.sock")

        async def go():
            source = SocketSource(StreamSpec.parse(f"unix:{sock}"))
            await source.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(
                json.dumps({"pages": [1, 2, 3], "write_fraction": 0.2}).encode()
                + b"\n"
            )
            writer.write(b"garbage line\n")
            writer.write(json.dumps({"pages": "nope"}).encode() + b"\n")
            writer.write(
                json.dumps({"pages": [7], "boundary": True}).encode() + b"\n"
            )
            await writer.drain()
            writer.close()
            chunks = []
            async for chunk in source.__aiter__():
                chunks.append(chunk)
                if len(chunks) == 2:
                    await source.stop()
            return source, chunks

        source, chunks = asyncio.run(go())
        np.testing.assert_array_equal(chunks[0].pages, [1, 2, 3])
        assert chunks[0].write_fraction == 0.2
        assert chunks[1].boundary
        assert source.rejected_lines == 2


class TestHTTPServer:
    @staticmethod
    async def _request(address, target, method="GET"):
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return raw.decode()

    def test_routes(self):
        state = {"healthy": True}
        server = MetricsServer(
            metrics_text=lambda: "repro_windows_total 3\n",
            status=lambda: {"windows": 3},
            healthy=lambda: state["healthy"],
        )

        async def go():
            await server.start()
            try:
                metrics = await self._request(server.address, "/metrics")
                status = await self._request(server.address, "/status")
                ok = await self._request(server.address, "/healthz")
                state["healthy"] = False
                drain = await self._request(server.address, "/healthz")
                missing = await self._request(server.address, "/nope")
                post = await self._request(
                    server.address, "/metrics", "POST"
                )
            finally:
                await server.stop()
            return metrics, status, ok, drain, missing, post

        metrics, status, ok, drain, missing, post = asyncio.run(go())
        assert "200" in metrics.splitlines()[0]
        assert "repro_windows_total 3" in metrics
        assert json.loads(status.split("\r\n\r\n", 1)[1]) == {"windows": 3}
        assert "ok" in ok
        assert "503" in drain
        assert "404" in missing
        assert "405" in post


class TestServeDaemon:
    def test_generator_window_limit(self, tmp_path):
        ckpt = tmp_path / "drain.ckpt"
        daemon = ServeDaemon(
            SPEC,
            ServeOptions(
                virtual_clock=True,
                http=False,
                max_windows=3,
                checkpoint=ckpt,
            ),
        )
        report = asyncio.run(daemon.run())
        assert report.reason == "window-limit"
        assert report.windows == 3
        assert report.checkpoint == ckpt and ckpt.exists()
        kinds = [e.kind for e in daemon.session.events]
        assert kinds.count("window_end") == 3
        assert kinds[-2:] == ["drain", "checkpoint"]

    def test_metrics_text_parses_and_counts(self):
        daemon = ServeDaemon(
            SPEC,
            ServeOptions(virtual_clock=True, http=False, max_windows=2),
        )
        asyncio.run(daemon.run())
        parsed = parse_prometheus(daemon.metrics_text())
        assert parsed["repro_windows_total"][()] == 2.0

    def test_status_document(self):
        daemon = ServeDaemon(
            SPEC,
            ServeOptions(virtual_clock=True, http=False, max_windows=2),
        )
        asyncio.run(daemon.run())
        status = daemon.status()
        assert status["windows"] == 2
        assert status["draining"] is True
        tiers = {t["name"]: t for t in status["tiers"]}
        assert "DRAM" in tiers
        assert sum(t["app_pages"] for t in status["tiers"]) == 1024
        assert status["stream"]["kind"] == "generator"

    def test_generator_drain_resume_equals_batch(self, tmp_path):
        """Drain at window 2, resume to 5: same stream as one straight run."""
        batch = Session(SPEC, obs=Observability(metrics=True))
        batch.validate_capacity()
        for _ in range(5):
            batch.run_window()
        reference = [
            (e.kind, e.window, e.data)
            for e in batch.events
            if e.kind == "window_end"
        ]

        ckpt = tmp_path / "mid.ckpt"
        first = ServeDaemon(
            SPEC,
            ServeOptions(
                virtual_clock=True, http=False, max_windows=2, checkpoint=ckpt
            ),
        )
        asyncio.run(first.run())
        resumed = ServeDaemon.from_checkpoint(
            ckpt, ServeOptions(virtual_clock=True, http=False, max_windows=5)
        )
        assert resumed.windows_done == 2
        asyncio.run(resumed.run())
        got = [
            (e.kind, e.window, e.data)
            for e in first.session.events + resumed.session.events
            if e.kind == "window_end"
        ]
        assert got == reference

    def test_out_of_range_events_rejected(self):
        async def go():
            source = QueueSource()
            daemon = ServeDaemon(
                SPEC, ServeOptions(virtual_clock=True, http=False)
            )
            daemon.source = source
            task = asyncio.create_task(daemon.run())
            await source.put(
                Chunk(np.array([5, 9000, -1, 7]), boundary=True)
            )
            await source.stop()
            await task
            return daemon

        daemon = asyncio.run(go())
        assert daemon.rejected_events == 2
        assert daemon.windows_done == 1
        assert daemon.status()["stream"]["rejected_events"] == 2

    @pytest.mark.parametrize(
        "windows,rejected",
        [
            ([[5, 7, 0, 1023]], 0),
            ([[-1, -7, 3]], 2),
            ([[1024, 9000, 3, 4]], 2),
            ([[3, 1024, 1023]], 1),
            ([[-1, 1024], [2, 3]], 2),
            ([[0, -2**40, 2**40, 1023], [-1], [7]], 3),
            # Ascending windows: rejected ends are cut by binary search.
            ([[-3, -1, 0, 5, 5, 1023, 1024, 2**40]], 4),
            ([[-2**40, -1, 0, 0, 1]], 2),
            ([[1020, 1023, 1024, 1024]], 2),
            ([[-5, -2], [1024, 2**40], [3]], 4),
            ([[-1] + [7] * 20_000 + [1024]], 2),
        ],
    )
    def test_rejected_events_counted_exactly(self, windows, rejected):
        async def go():
            source = QueueSource()
            daemon = ServeDaemon(
                SPEC, ServeOptions(virtual_clock=True, http=False)
            )
            daemon.source = source
            task = asyncio.create_task(daemon.run())
            for pages in windows:
                await source.put(Chunk(np.array(pages), boundary=True))
            await source.stop()
            await task
            return daemon

        daemon = asyncio.run(go())
        assert daemon.rejected_events == rejected
        kept = [w for w in windows if any(0 <= p < 1024 for p in w)]
        assert daemon.windows_done == len(kept)
        served = sum(r.accesses for r in daemon.session.records)
        assert served == sum(len(w) for w in windows) - rejected

    def test_replayed_ascending_windows_skip_bincount(
        self, tmp_path, monkeypatch
    ):
        """A recorded window is ascending and holds more than
        ``SEARCH_MIN_IDS_PER_PAGE`` ids per page, so the daemon counts
        it by binary search; a fallback to ``np.bincount`` fails here."""
        from repro.workloads import base

        workload = make_workload(
            "flash-crowd", seed=3, num_pages=1024, ops_per_window=20_000
        )
        assert 20_000 >= base.SEARCH_MIN_IDS_PER_PAGE * 1024
        trace = record_trace(workload, 3, tmp_path / "t.npz")
        spec = SPEC.with_(
            workload="trace",
            workload_kwargs={"path": str(trace), "loop": False},
        )
        reference = Session(spec)
        for _ in range(3):
            reference.run_window()

        class NoBincount:
            def __getattr__(self, name):
                if name == "bincount":
                    raise AssertionError("count_ids fell back to bincount")
                return getattr(np, name)

        monkeypatch.setattr(base, "np", NoBincount())
        daemon = ServeDaemon(
            spec,
            ServeOptions(
                stream=f"replay:{trace}", virtual_clock=True, http=False
            ),
        )
        asyncio.run(daemon.run())
        assert daemon.windows_done == 3
        assert daemon.rejected_events == 0
        served = [r.accesses for r in daemon.session.records]
        assert served == [r.accesses for r in reference.records]
        assert daemon.events_ingested == sum(served)

    def test_http_endpoint_live(self):
        """Scrape the real daemon over loopback while it serves."""

        async def go():
            ready = {}
            daemon = ServeDaemon(
                SPEC,
                ServeOptions(
                    virtual_clock=True,
                    max_windows=3,
                    http=True,
                    http_port=0,
                    on_ready=lambda a: ready.update(a),
                ),
            )
            # Stall ingest until we scraped once: swap in a queue source.
            source = QueueSource()
            daemon.source = source
            task = asyncio.create_task(daemon.run())
            while not ready:
                await asyncio.sleep(0.01)
            host, port = ready["http"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /status HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = (await reader.read()).decode()
            writer.close()
            await source.stop()
            await task
            return raw

        raw = asyncio.run(go())
        body = json.loads(raw.split("\r\n\r\n", 1)[1])
        assert body["windows"] == 0 and body["draining"] is False


class TestWallClockChaos:
    def test_fault_spec_wall_clock_validation(self):
        spec = FaultSpec(kind="capacity_shock", at_s=3.0, for_s=2.0)
        assert spec.is_wall_clock and not spec.covers(0)
        with pytest.raises(ValueError, match="schedule"):
            FaultSpec(kind="capacity_shock")
        with pytest.raises(ValueError, match="pick one"):
            FaultSpec(kind="capacity_shock", window=1, at_s=1.0)
        with pytest.raises(ValueError, match="for_s needs at_s"):
            FaultSpec(kind="capacity_shock", window=1, for_s=1.0)

    def test_bind_wall_clock_overlap_and_idempotence(self):
        plan = FaultPlan(
            events=(
                FaultSpec(kind="telemetry_dropout", at_s=5.0, for_s=3.0),
                FaultSpec(kind="solver_crash", window=0),
            )
        )
        injector = FaultInjector(plan)
        assert injector.bind_wall_clock(0, 0.0, 4.0) == []
        bound = injector.bind_wall_clock(1, 4.0, 6.0)
        assert len(bound) == 1 and bound[0].window == 1
        # Same window again: already bound, nothing new.
        assert injector.bind_wall_clock(1, 4.0, 6.0) == []
        # Interval still overlaps [5, 8): binds to the next window too.
        assert len(injector.bind_wall_clock(2, 6.0, 7.0)) == 1
        # Past the end of the fault: nothing.
        assert injector.bind_wall_clock(3, 8.0, 9.0) == []
        active = [e for e in injector.events if e.kind == "telemetry_dropout"]
        assert {e.window for e in active} == {1, 2}

    def test_point_event_binds_once(self):
        plan = FaultPlan(
            events=(FaultSpec(kind="capacity_shock", at_s=2.0),)
        )
        injector = FaultInjector(plan)
        assert injector.bind_wall_clock(0, 0.0, 2.0) == []  # half-open
        assert len(injector.bind_wall_clock(1, 2.0, 4.0)) == 1
        assert injector.bind_wall_clock(2, 4.0, 6.0) == []

    def test_live_daemon_fires_wall_clock_faults(self, tmp_path):
        # Paced replay on the virtual clock: each window advances the
        # clock, so the wall-clock schedule overlaps real intervals.
        workload = make_workload("diurnal-kv", seed=5, num_pages=1024,
                                 ops_per_window=3000)
        trace = record_trace(workload, 3, tmp_path / "t.npz")
        spec = SPEC.with_(
            workload="trace",
            workload_kwargs={"path": str(trace), "loop": False},
            faults={
                "events": [
                    {
                        "kind": "telemetry_dropout",
                        "at_s": 0.0,
                        "for_s": 1e9,
                        "magnitude": 0.5,
                    }
                ]
            },
        )
        daemon = ServeDaemon(
            spec,
            ServeOptions(
                stream=f"replay:{trace}",
                rate=1000.0,
                virtual_clock=True,
                http=False,
                max_windows=2,
            ),
        )
        asyncio.run(daemon.run())
        fault_kinds = [
            e.data.get("kind")
            for e in daemon.session.events
            if e.kind == "fault"
        ]
        assert "telemetry_dropout" in fault_kinds


class TestServeCLI:
    def test_bad_stream_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        scenario = tmp_path / "s.json"
        scenario.write_text(SPEC.to_json())
        assert main(["serve", str(scenario), "--stream", "bogus:x"]) == 2
        assert "invalid stream spec" in capsys.readouterr().err

    def test_bad_window_rule_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        scenario = tmp_path / "s.json"
        scenario.write_text(SPEC.to_json())
        assert main(["serve", str(scenario), "--window", "events:0"]) == 2
        assert "invalid window rule" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "serve needs a scenario" in capsys.readouterr().err

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"workload": "no-such"}))
        assert main(["serve", str(scenario)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_serve_happy_path(self, tmp_path, capsys):
        from repro.cli import main

        scenario = tmp_path / "s.json"
        scenario.write_text(SPEC.to_json())
        metrics = tmp_path / "serve.prom"
        code = main(
            [
                "serve",
                str(scenario),
                "--virtual-clock",
                "--no-http",
                "--max-windows",
                "2",
                "--metrics",
                str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "drained (window-limit): 2 window(s)" in out
        parsed = parse_prometheus(metrics.read_text())
        assert parsed["repro_windows_total"][()] == 2.0

    def test_list_mentions_serve(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "serve" in capsys.readouterr().out
