"""A trace workload checkpoints by reference, not by value.

``TraceWorkload`` is a lazy view of its ``.npz`` file: construction
reads only the header, a checkpoint carries the path, fingerprint and
cursor, and restore re-checks the fingerprint.  Pinned here:

* resume ≡ uninterrupted on both trace paths (serve replay drain and a
  batch session), and the drain checkpoint does not grow with the trace;
* a missing or re-recorded trace fails at restore with
  :class:`TraceMismatchError`;
* the committed ``checkpoint_trace_ref.ckpt`` fixture resumes like a
  fresh run.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.checkpoint import (
    capture_session,
    load_checkpoint,
    restore_session,
)
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.serve import ServeDaemon, ServeOptions
from repro.workloads import make_workload, record_trace
from repro.workloads.trace import (
    TraceMismatchError,
    TraceWorkload,
    open_trace,
)

from tests._goldens import VOLATILE_KEYS

FIXTURES = Path(__file__).parent / "fixtures"


def _trace(tmp_path, windows: int, seed: int = 11, name: str = "t.npz"):
    workload = make_workload(
        "diurnal-kv", seed=seed, num_pages=1024, ops_per_window=2000
    )
    return record_trace(workload, windows, tmp_path / name)


def _spec(trace: Path, windows: int, seed: int = 11) -> ScenarioSpec:
    return ScenarioSpec(
        workload="trace",
        workload_kwargs={"path": str(trace), "loop": False},
        windows=windows,
        policy="waterfall",
        seed=seed,
    )


def _serve(spec, trace, checkpoint=None, max_windows=None) -> ServeDaemon:
    daemon = ServeDaemon(
        spec,
        ServeOptions(
            stream=f"replay:{trace}",
            virtual_clock=True,
            http=False,
            max_windows=max_windows,
            checkpoint=checkpoint,
        ),
    )
    asyncio.run(daemon.run())
    return daemon


def _record_key(records) -> str:
    return json.dumps(
        [
            {
                k: ("0" if k in VOLATILE_KEYS else str(v))
                for k, v in r.__dict__.items()
            }
            for r in records
        ],
        sort_keys=True,
    )


def _summary_key(session) -> dict:
    return {
        k: (0.0 if k in VOLATILE_KEYS else v)
        for k, v in session.summary().row().items()
    }


def _assert_same_run(got: Session, want: Session) -> None:
    assert len(got.records) == len(want.records)
    assert _record_key(got.records) == _record_key(want.records)
    assert _summary_key(got) == _summary_key(want)


class TestLazyTrace:
    def test_header_only_construction(self, tmp_path):
        # Windows of different lengths and a non-int64 dtype, as a
        # hand-converted trace might have.
        windows = [np.arange(n, dtype=np.int32) % 512 for n in (5, 17, 9)]
        path = tmp_path / "uneven.npz"
        np.savez_compressed(
            path,
            meta=np.array([1024, 3, 250], dtype=np.int64),
            **{f"window_{w}": arr for w, arr in enumerate(windows)},
        )
        info = open_trace(path)
        assert info.lengths == (5, 17, 9)
        replay = TraceWorkload(path)
        assert replay.ops_per_window == 17
        assert replay.write_fraction == 0.25
        assert replay._windows is None
        for want in windows:
            got = replay.next_window()
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.bincount(want, minlength=1024))

    def test_fingerprint_tracks_content(self, tmp_path):
        first = open_trace(_trace(tmp_path, 2, seed=1, name="a.npz"))
        again = open_trace(_trace(tmp_path, 2, seed=1, name="b.npz"))
        other = open_trace(_trace(tmp_path, 2, seed=2, name="c.npz"))
        assert first.fingerprint == again.fingerprint
        assert first.fingerprint != other.fingerprint


class TestResumeEqualsUninterrupted:
    def test_serve_replay_drain_resume(self, tmp_path):
        trace = _trace(tmp_path, 6)
        spec = _spec(trace, 6)
        full = _serve(spec, trace)

        ckpt = tmp_path / "drain.ckpt"
        first = _serve(spec, trace, checkpoint=ckpt, max_windows=2)
        assert first.windows_done == 2
        resumed = ServeDaemon.from_checkpoint(
            ckpt,
            ServeOptions(
                stream=f"replay:{trace}", virtual_clock=True, http=False
            ),
        )
        assert resumed.windows_done == 2
        report = asyncio.run(resumed.run())
        assert report.reason == "source-end"
        assert report.windows == 6
        _assert_same_run(resumed.session, full.session)

    @pytest.mark.parametrize("drain_at", [1, 3, 5])
    def test_serve_replay_resume_from_v3_blobs(self, tmp_path, drain_at):
        trace = _trace(tmp_path, 6)
        spec = _spec(trace, 6)
        full = _serve(spec, trace)

        ckpt = tmp_path / "drain.ckpt"
        _serve(spec, trace, checkpoint=ckpt, max_windows=drain_at)
        assert ckpt.read_bytes()[:8] == b"TSCKPT\r\n"
        resumed = ServeDaemon.from_checkpoint(
            ckpt,
            ServeOptions(
                stream=f"replay:{trace}", virtual_clock=True, http=False
            ),
        )
        assert resumed.windows_done == drain_at
        asyncio.run(resumed.run())
        _assert_same_run(resumed.session, full.session)

    def test_batch_session_checkpoint_restore(self, tmp_path):
        trace = _trace(tmp_path, 5)
        spec = _spec(trace, 5)
        full = Session(spec)
        full.run()

        partial = Session(spec)
        for _ in range(2):
            partial.run_window()
        resumed, _rows, done = restore_session(capture_session(partial))
        assert done == 2
        # The restored workload reloads its windows from the file lazily.
        assert resumed.workload._windows is None
        assert resumed.workload.window == 2
        for _ in range(spec.windows - done):
            resumed.run_window()
        _assert_same_run(resumed, full)

    @pytest.mark.parametrize("window", ["events:5000", "seconds:0.5"])
    def test_replay_resume_needs_source_windows(
        self, tmp_path, window, capsys
    ):
        """Closed windows are recorded windows only under the ``source``
        rule; resuming under another would replay events twice, so it is
        refused, and ``repro serve --resume`` exits 2 with one line."""
        from repro.cli import main

        workload = make_workload(
            "flash-crowd", seed=3, num_pages=1024, ops_per_window=2000
        )
        trace = record_trace(workload, 8, tmp_path / "flash.npz")
        ckpt = tmp_path / "drain.ckpt"
        daemon = ServeDaemon(
            _spec(trace, 8, seed=3),
            ServeOptions(
                stream=f"replay:{trace}",
                window=window,
                virtual_clock=True,
                http=False,
                max_windows=3,
                checkpoint=ckpt,
            ),
        )
        asyncio.run(daemon.run())
        options = ServeOptions(
            stream=f"replay:{trace}",
            window=window,
            virtual_clock=True,
            http=False,
        )
        with pytest.raises(ValueError, match="'source' window rule"):
            ServeDaemon.from_checkpoint(ckpt, options)
        code = main(
            [
                "serve", "--resume", str(ckpt), "--stream", f"replay:{trace}",
                "--window", window, "--virtual-clock", "--no-http",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "'source' window rule" in err
        assert len(err.strip().splitlines()) == 1

    def test_drain_checkpoint_does_not_grow_with_trace(self, tmp_path):
        sizes = {}
        for windows in (4, 40):
            trace = _trace(tmp_path, windows, name=f"t{windows}.npz")
            ckpt = tmp_path / f"drain{windows}.ckpt"
            _serve(_spec(trace, windows), trace, checkpoint=ckpt)
            sizes[windows] = ckpt.stat().st_size
        assert sizes[40] < 1_000_000
        assert abs(sizes[40] - sizes[4]) < 64 * 1024


class TestTraceMismatch:
    def _blob(self, tmp_path):
        trace = _trace(tmp_path, 4)
        session = Session(_spec(trace, 4))
        for _ in range(2):
            session.run_window()
        return trace, session.workload.info, capture_session(session)

    def test_missing_trace_fails_at_restore(self, tmp_path):
        trace, info, blob = self._blob(tmp_path)
        trace.unlink()
        with pytest.raises(TraceMismatchError) as excinfo:
            restore_session(blob)
        message = str(excinfo.value)
        assert str(trace) in message and info.fingerprint in message

    def test_rerecorded_trace_fails_at_restore(self, tmp_path):
        trace, info, blob = self._blob(tmp_path)
        _trace(tmp_path, 4, seed=99)
        new = open_trace(trace).fingerprint
        assert new != info.fingerprint
        with pytest.raises(TraceMismatchError) as excinfo:
            restore_session(blob)
        message = str(excinfo.value)
        assert str(trace) in message
        assert info.fingerprint in message and new in message

    def test_serve_resume_fails_with_typed_error(self, tmp_path, capsys):
        from repro.cli import main

        trace = _trace(tmp_path, 4)
        ckpt = tmp_path / "drain.ckpt"
        _serve(_spec(trace, 4), trace, checkpoint=ckpt, max_windows=2)
        trace.unlink()
        with pytest.raises(TraceMismatchError):
            ServeDaemon.from_checkpoint(ckpt)
        code = main(
            ["serve", "--resume", str(ckpt), "--virtual-clock", "--no-http"]
        )
        assert code == 2
        assert "re-recorded" in capsys.readouterr().err


class TestInlineCheckpointCompat:
    """The committed trace fixture: ``checkpoint_trace_ref.ckpt`` replays
    ``checkpoint_trace_inline.npz`` (512 pages, 400 accesses per window,
    6 windows; path relative to the fixtures) and was captured after
    window 3 of a waterfall run, seed 5."""

    def test_recaptured_reference_resumes_like_a_fresh_run(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        blob = load_checkpoint("checkpoint_trace_ref.ckpt")
        resumed, _rows, done = restore_session(blob)
        assert done == 3
        assert resumed.workload.info is not None
        companion = Path("checkpoint_trace_inline.npz")
        assert resumed.spec == _spec(companion, 6, seed=5)
        for _ in range(resumed.spec.windows - done):
            resumed.run_window()
        full = Session(_spec(companion, 6, seed=5))
        full.run()
        _assert_same_run(resumed, full)
