"""Checkpoint format v4: the framed blob and its checks.

Pinned here:

* a truncated, foreign or tampered blob raises :class:`CheckpointError`
  and never reaches ``pickle.loads``;
* restored arrays are writable, 64-byte aligned views;
* the frame count does not grow with the windows done, and window
  records round-trip field for field, scalar types included;
* v4 is the only format: a plain pickle fails the magic check like any
  other foreign bytes, and its ``__reduce__`` never runs;
* ``repro serve --resume`` on a bad file exits 2 with one line.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.chaos.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    capture_session,
    read_frames,
    restore_session,
)
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec

SPEC = ScenarioSpec(
    workload="masim",
    workload_kwargs={"num_pages": 1024, "ops_per_window": 2000},
    policy="waterfall",
    windows=40,
    seed=4,
)


def _session(windows: int) -> Session:
    session = Session(SPEC)
    for _ in range(windows):
        session.run_window()
    return session


@pytest.fixture(scope="module")
def blob() -> bytes:
    return capture_session(_session(3))


def _layout(blob: bytes) -> tuple[int, list[int], list[int]]:
    """Frame count, offsets and lengths, read straight off the header."""
    count = struct.unpack_from("<I", blob, 16)[0]
    lengths = list(struct.unpack_from(f"<{count}Q", blob, 20))
    offsets = []
    end = -(-(20 + 8 * count) // 64) * 64
    for nbytes in lengths:
        offsets.append(end)
        end += -(-nbytes // 64) * 64
    assert end == len(blob)
    return count, offsets, lengths


@pytest.fixture
def no_unpickle(monkeypatch):
    """Fail the test if anything reaches ``pickle.loads`` (checked at
    teardown too, in case the caller swallowed the error)."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("pickle.loads reached")

    monkeypatch.setattr(pickle, "loads", refuse)
    yield
    assert not calls, "pickle.loads reached"


#: Every call :class:`_SideEffect` made on being unpickled.
_SIDE_EFFECTS: list[str] = []


def _side_effect(tag: str) -> None:
    _SIDE_EFFECTS.append(tag)


class _SideEffect:
    """Unpickling it calls :func:`_side_effect`."""

    def __reduce__(self):
        return _side_effect, ("unpickled",)


#: Plain pickles are foreign bytes: they fail the magic check.
_PICKLES = {
    "pickled-list": pickle.dumps([1, 2, 3]),
    "pickled-version-dict": pickle.dumps({"version": 999}),
    "pickled-spec-dict": pickle.dumps({"spec": {}}),
    "pickle-then-garbage": b"\x80\x05" + b"garbage" * 10,
    "truncated-pickle": pickle.dumps(
        {"version": 2, "graph": b"", "columns": []}
    )[:20],
}


class TestVerifiedBeforeUnpickle:
    def test_blob_layout(self, blob):
        assert blob[:8] == b"TSCKPT\r\n"
        assert struct.unpack_from("<I", blob, 12)[0] == CHECKPOINT_VERSION
        assert struct.unpack_from("<I", blob, 8)[0] == zlib.crc32(blob[12:])
        count, offsets, _ = _layout(blob)
        assert count > 1
        assert all(offset % 64 == 0 for offset in offsets)

    def test_truncation_at_every_frame_boundary(self, blob, no_unpickle):
        _, offsets, lengths = _layout(blob)
        cuts = {0, 1, 8, 16, 20, len(blob) - 1}
        for offset, nbytes in zip(offsets, lengths):
            cuts.update({offset, offset + nbytes})
        cuts.add(int(np.random.default_rng(7).integers(21, len(blob))))
        cuts.discard(len(blob))
        for cut in sorted(cuts):
            with pytest.raises(CheckpointError):
                restore_session(blob[:cut])

    @pytest.mark.parametrize(
        "foreign",
        [
            b"",
            b"hello, world\n" * 8,
            b"PK\x03\x04" + bytes(200),
            bytes(np.random.default_rng(3).integers(0, 128, 100, dtype=np.uint8)),
            *(pytest.param(data, id=name) for name, data in _PICKLES.items()),
        ],
    )
    def test_foreign_bytes(self, foreign, no_unpickle):
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            restore_session(foreign)

    @pytest.mark.parametrize("envelope", ["bare", "v2"])
    def test_pickle_side_effect_never_runs(self, envelope):
        payload = pickle.dumps(_SideEffect())
        if envelope == "v2":
            payload = pickle.dumps(
                {"version": 2, "graph": payload, "columns": []}
            )
        _SIDE_EFFECTS.clear()
        with pytest.raises(CheckpointError, match="bad magic"):
            restore_session(payload)
        assert _SIDE_EFFECTS == []

    def test_wrong_magic(self, blob, no_unpickle):
        with pytest.raises(CheckpointError, match="magic"):
            restore_session(b"TSCKPX\r\n" + blob[8:])

    @pytest.mark.parametrize("version", [2, 3, 5])
    def test_wrong_version_with_a_valid_digest(self, blob, version, no_unpickle):
        tampered = bytearray(blob)
        struct.pack_into("<I", tampered, 12, version)
        struct.pack_into("<I", tampered, 8, zlib.crc32(tampered[12:]))
        with pytest.raises(CheckpointError, match=f"version {version}"):
            restore_session(bytes(tampered))

    def test_zero_frames_with_a_valid_digest(self, no_unpickle):
        body = struct.pack("<II", CHECKPOINT_VERSION, 0) + bytes(44)
        header = b"TSCKPT\r\n" + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointError, match="0-frame header"):
            restore_session(header + body)

    @pytest.mark.parametrize("where", ["graph", "column", "length"])
    def test_one_flipped_byte(self, blob, where, no_unpickle):
        _, offsets, lengths = _layout(blob)
        if where == "graph":
            position = offsets[0] + lengths[0] // 2
        elif where == "column":
            largest = int(np.argmax(lengths[1:])) + 1
            position = offsets[largest] + lengths[largest] - 1
        else:
            position = 20
        tampered = bytearray(blob)
        tampered[position] ^= 0x01
        with pytest.raises(CheckpointError):
            restore_session(bytes(tampered))
        with pytest.raises(CheckpointError):
            read_frames(bytes(tampered))


class TestRestoredArrays:
    def test_columns_are_writable_and_aligned(self, blob):
        restored, _, _ = restore_session(blob)
        table = restored.system.pt
        for name, column in table.columns().items():
            assert column.flags.writeable, name
            assert column.flags.aligned, name
        # Page columns are frames; the two-region columns stay in-band.
        for name in table.PAGE_COLUMNS:
            assert getattr(table, name).ctypes.data % 64 == 0, name
        for record in restored.records:
            assert record.hotness.flags.writeable
            assert record.hotness.flags.aligned

    def test_frames_are_aligned_views_of_one_buffer(self, blob):
        frames = read_frames(blob)
        assert len({id(frame.obj) for frame in frames}) == 1
        for frame in frames:
            assert not frame.readonly
            assert np.frombuffer(frame, dtype=np.uint8).ctypes.data % 64 == 0

    def test_frame_count_does_not_grow_with_windows(self):
        session = Session(SPEC)
        counts = {}
        for window in range(1, 41):
            session.run_window()
            if window in (4, 40):
                counts[window] = len(read_frames(capture_session(session)))
        assert counts[40] == counts[4]


def _assert_records_identical(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert type(x) is type(y), (field.name, type(x), type(y))
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape, field.name
                assert np.array_equal(x, y), field.name
            else:
                assert x == y, field.name


class TestRecordColumns:
    def test_live_records_round_trip_exactly(self):
        session = _session(5)
        restored, _, done = restore_session(capture_session(session))
        assert done == 5
        _assert_records_identical(restored.records, session.records)

    def test_mixed_and_unusual_types_round_trip_exactly(self):
        session = _session(4)
        live = session.daemon.records
        crafted = [
            dataclasses.replace(
                record,
                # Mixed Python and NumPy scalars in one field.
                tco=float(record.tco) if i % 2 else np.float64(record.tco),
                # A Python int beyond int64.
                accesses=2**70 + i,
                # A uniform non-default NumPy scalar type.
                migration_wall_ns=np.float32(i + 0.5),
                # Arrays whose shape changes between windows.
                hotness=np.arange(i + 1, dtype=np.float32),
                # A uniform Python-int field.
                window=i,
            )
            for i, record in enumerate(live)
        ]
        session.daemon.records = crafted
        restored, _, _ = restore_session(capture_session(session))
        _assert_records_identical(restored.records, crafted)

    def test_no_records(self):
        session = Session(SPEC)
        restored, _, done = restore_session(capture_session(session))
        assert done == 0 and restored.records == []


class TestServeResumeCLI:
    def _resume(self, path, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--resume", str(path), "--virtual-clock", "--no-http"]
        )
        return code, capsys.readouterr().err

    def test_truncated_file_exits_2(self, tmp_path, blob, capsys):
        path = tmp_path / "t.ckpt"
        path.write_bytes(blob[:1000])
        code, err = self._resume(path, capsys)
        assert code == 2
        assert str(path) in err and "length mismatch" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_foreign_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.ckpt"
        path.write_bytes(bytes(range(1, 101)))
        code, err = self._resume(path, capsys)
        assert code == 2
        assert str(path) in err and "not a checkpoint" in err
        assert len(err.strip().splitlines()) == 1
