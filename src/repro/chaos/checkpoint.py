"""Node checkpoint/resume: pickle the simulation, not the harness.

A checkpoint is one ``pickle.dumps`` of the session's *deterministic*
simulation state: workload stream (mid-RNG), tiered system, placement
model (with its injector), profiler, migration filter (its pressure
check reads the previous window's fault counts), migration stats,
window records and a metrics snapshot.  Everything harness-shaped --
the observability bundle, event hooks, the streaming sink -- is
deliberately excluded: those hold process-local resources (registries,
open files, closures) and are rebuilt fresh on restore.  A replayed
trace workload is carried by reference (path, fingerprint, cursor)
rather than its windows, so restoring it needs the unchanged trace file
(:class:`~repro.workloads.trace.TraceWorkload`).

The resume contract: a session restored from the window-``k`` checkpoint
and run to completion produces byte-identical records, summaries and
fault events to the uninterrupted run -- the crash only discards work
after ``k``, never state before it.  Metrics survive because the
checkpoint carries a registry *snapshot* which is merged into the fresh
registry on restore, so counters accumulated before the crash are not
double- or under-counted.

Format v4 (framed).  A blob is a fixed header followed by 64-byte
aligned frames::

    offset  size  field
    0       8     magic ``b"TSCKPT\\r\\n"``
    8       4     crc32 of every byte from offset 12 to the end
    12      4     format version (4)
    16      4     frame count ``n`` (at least 1)
    20      8*n   frame lengths (little-endian u64, unpadded)
    ...           zero padding to a 64-byte boundary, then each frame,
                  itself zero-padded to a 64-byte boundary

Frame 0 is the state graph, pickled with protocol 5.  Every array of at
least :data:`OUT_OF_BAND_MIN_BYTES` leaves that pickle through
``buffer_callback`` and becomes the next frame, so megabyte page-table
columns are copied once, into the blob, and never walked by pickle.
The window-record history travels as one column per
:class:`~repro.core.daemon.WindowRecord` field (array fields stacked
row per window, scalar fields as one typed array), and each array
column is always a frame of its own: the frame count and the graph do
not grow with the number of windows done.

:func:`restore_session` checks the magic, the version, that the frame
lengths add up to the blob's length and the crc32, in that order, before
anything is unpickled; any failure raises :class:`CheckpointError`.  It
then copies the payload once into a 64-byte aligned buffer: restored
arrays are writable, aligned views into it.  v4 is the only format
that loads: a blob without the magic, or of another version, fails
before any unpickling.  (v4 frames v3's layout; the version moved
when the zsmalloc pool state dropped its buddy arena.)
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.core.daemon import WindowRecord
from repro.workloads.trace import TraceMismatchError

CHECKPOINT_VERSION = 4

#: First eight bytes of a v4 blob (the CR LF catches text-mode newline
#: mangling).
MAGIC = b"TSCKPT\r\n"

#: Magic, crc32, version, frame count; the frame lengths follow.
_PREFIX = struct.Struct("<8sIII")

#: Offset of the first byte the crc32 covers (just past the crc field).
_CRC_START = 12

#: Frame alignment within the blob and within the restored buffer.
ALIGN = 64

#: Arrays at least this large leave the graph pickle as frames; smaller
#: ones stay in-band, where a frame's length entry and padding would
#: cost more than the copy they save.
OUT_OF_BAND_MIN_BYTES = 1024

_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(WindowRecord))


class CheckpointError(ValueError):
    """A checkpoint blob failed verification or is not a checkpoint."""


def _padded(nbytes: int) -> int:
    return -(-nbytes // ALIGN) * ALIGN


def _frame(frames: list) -> bytes:
    """Header plus 64-byte aligned frames, as one blob."""
    count = len(frames)
    lengths = [memoryview(frame).nbytes for frame in frames]
    table = struct.pack(f"<II{count}Q", CHECKPOINT_VERSION, count, *lengths)
    head_pad = _padded(_PREFIX.size + 8 * count) - _PREFIX.size - 8 * count
    parts = [table, bytes(head_pad)]
    for frame, nbytes in zip(frames, lengths):
        parts.append(frame)
        parts.append(bytes(_padded(nbytes) - nbytes))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([MAGIC, struct.pack("<I", crc), *parts])


def read_frames(blob) -> list[memoryview]:
    """Verify a v4 blob and return its frames.

    Checks the magic, the version, that the frame lengths account for
    every byte of the blob, and the crc32, before anything is
    unpickled.  The payload is then copied once into a 64-byte aligned,
    writable buffer, and each frame is a view into it.

    Raises:
        CheckpointError: The blob fails any of the checks.
    """
    blob = memoryview(blob).cast("B")
    size = blob.nbytes
    if size < _PREFIX.size or blob[:8] != MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    _, crc, version, count = _PREFIX.unpack_from(blob)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} is not {CHECKPOINT_VERSION}"
        )
    head = _PREFIX.size + 8 * count
    if not count or head > size:
        raise CheckpointError(
            f"truncated checkpoint: {size} bytes cannot hold a "
            f"{count}-frame header"
        )
    lengths = struct.unpack_from(f"<{count}Q", blob, _PREFIX.size)
    offsets = []
    end = _padded(head)
    for nbytes in lengths:
        offsets.append(end)
        end += _padded(nbytes)
    if end != size:
        raise CheckpointError(
            f"checkpoint length mismatch: frames need {end} bytes, "
            f"blob has {size}"
        )
    if zlib.crc32(blob[_CRC_START:]) != crc:
        raise CheckpointError("checkpoint digest mismatch (crc32)")
    raw = np.empty(size + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    arena = raw[start : start + size]
    arena[:] = np.frombuffer(blob, dtype=np.uint8)
    view = memoryview(arena)
    return [
        view[offset : offset + nbytes]
        for offset, nbytes in zip(offsets, lengths)
    ]


def _record_columns(records) -> dict:
    """The record history as one column per :class:`WindowRecord` field.

    A field whose values are all arrays of one dtype and shape becomes
    their stack, one row per window; one whose values all share a
    scalar type becomes a typed array, tagged so that NumPy scalars come
    back as NumPy scalars and Python ones as Python ones.  Either array
    is wrapped in a :class:`pickle.PickleBuffer` so that it always
    leaves the graph as a frame.  Anything else (mixed types, say)
    travels as the plain list.
    """
    columns = {}
    for name in _RECORD_FIELDS:
        values = [getattr(record, name) for record in records]
        tag, array = "list", None
        kinds = {type(value) for value in values}
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is np.ndarray:
            layouts = {(v.dtype, v.shape) for v in values}
            dtype, shape = next(iter(layouts))
            if len(layouts) == 1 and shape and dtype.kind in "biufc":
                tag, array = "items", np.array(values)
        elif kind is not None and issubclass(kind, np.generic):
            if values[0].dtype.kind in "biufc":
                tag, array = "items", np.array(values, dtype=values[0].dtype)
        elif kind is float or kind is int:
            try:
                array = np.array(
                    values, dtype=np.float64 if kind is float else np.int64
                )
                tag = "py"
            except OverflowError:
                pass
        columns[name] = (
            (tag, values)
            if array is None
            else (tag, pickle.PickleBuffer(array), array.dtype, array.shape)
        )
    return columns


def _records_from_columns(columns: dict) -> list[WindowRecord]:
    decoded = []
    for name in _RECORD_FIELDS:
        tag, data, *layout = columns[name]
        if tag != "list":
            dtype, shape = layout
            data = np.frombuffer(data, dtype=dtype).reshape(shape)
            data = data.tolist() if tag == "py" else list(data)
        decoded.append(data)
    return [
        WindowRecord(**dict(zip(_RECORD_FIELDS, row)))
        for row in zip(*decoded)
    ]


def _unpickle(data, buffers=None):
    """``pickle.loads``, with any failure but a trace mismatch raised as
    :class:`CheckpointError`."""
    try:
        return pickle.loads(data, buffers=buffers)
    except TraceMismatchError:
        raise
    except Exception as exc:  # a corrupt pickle may fail anywhere
        raise CheckpointError(
            f"checkpoint does not unpickle: {type(exc).__name__}: {exc}"
        ) from exc


def _wrapped_models(policy) -> list:
    """The policy plus any models a resilient wrapper delegates to."""
    models = [policy]
    primary = getattr(policy, "primary", None)
    if primary is not None:
        models.append(primary)
        models.extend(getattr(policy, "_fallbacks", {}).values())
    return models


def capture_session(session, rows=()) -> bytes:
    """Serialize a session's simulation state to one checkpoint blob.

    Args:
        session: A live :class:`~repro.engine.session.Session`.
        rows: Caller-accumulated per-window payloads to carry across the
            resume (the fleet worker's export rows).
    """
    models = _wrapped_models(session.policy)
    saved_obs = [(model, model.obs) for model in models]
    for model in models:
        model.obs = None
    try:
        state = {
            "spec": session.spec.to_dict(),
            "windows_done": len(session.daemon.records),
            "workload": session.workload,
            "system": session.system,
            "policy": session.policy,
            "profiler": session.daemon.profiler,
            "prefetcher": session.daemon.prefetcher,
            "filter": session.daemon.filter,
            "engine_stats": session.daemon.engine.stats,
            "prev_faults": session.daemon._prev_faults,
            "latencies": session.daemon._latencies,
            "records": _record_columns(session.daemon.records),
            "fault_history": session._fault_history,
            "injector": session.injector,
            "metrics": session.obs.registry.snapshot(),
            "rows": list(rows),
        }
        # The record columns' own buffers leave the graph at any size.
        record_buffers = {
            id(column[1])
            for column in state["records"].values()
            if column[0] != "list"
        }
        buffers = []

        def out_of_band(buf) -> bool:
            raw = buf.raw()
            if (
                raw.nbytes < OUT_OF_BAND_MIN_BYTES
                and id(buf) not in record_buffers
            ):
                return True  # in-band
            buffers.append(raw)
            return False

        graph = pickle.dumps(state, protocol=5, buffer_callback=out_of_band)
        return _frame([graph, *buffers])
    finally:
        for model, obs in saved_obs:
            model.obs = obs


def restore_session(blob: bytes, *, hooks=(), obs=None, sink=None):
    """Rebuild a runnable session from a checkpoint blob.

    The session is constructed through the normal
    :class:`~repro.engine.session.Session` path with the checkpointed
    objects passed as prebuilt overrides, then its daemon's mutable
    loop state (profiler, filter, stats, records) is swapped for the
    checkpointed versions.  A fresh observability bundle absorbs the
    checkpoint's metrics snapshot.

    Returns:
        ``(session, rows, windows_done)`` -- the restored session, the
        caller rows captured with the checkpoint, and how many windows
        the checkpoint had completed.

    Raises:
        CheckpointError: The blob is truncated, corrupt, foreign or of an
            unknown version.
        TraceMismatchError: The session replays a trace file (checkpointed
            by reference) that is gone or was re-recorded.
    """
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    frames = read_frames(blob)
    state = _unpickle(frames[0], frames[1:])
    state["records"] = _records_from_columns(state["records"])
    spec = ScenarioSpec.from_dict(state["spec"])
    session = Session(
        spec,
        workload=state["workload"],
        system=state["system"],
        policy=state["policy"],
        hooks=hooks,
        obs=obs,
        sink=sink,
        injector=state["injector"],
    )
    daemon = session.daemon
    daemon.profiler = state["profiler"]
    if state["prefetcher"] is not None:
        daemon.prefetcher = state["prefetcher"]
    daemon.filter = state["filter"]
    daemon.engine.stats = state["engine_stats"]
    daemon._prev_faults = state["prev_faults"]
    daemon._latencies = state["latencies"]
    daemon.records = state["records"]
    session._fault_history = state["fault_history"]
    if session.obs.registry.enabled and state["metrics"]:
        session.obs.registry.merge_snapshot(state["metrics"])
    return session, list(state["rows"]), int(state["windows_done"])


def save_checkpoint(path, blob: bytes) -> Path:
    """Write a checkpoint blob to disk (atomic rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)
    return path


def load_checkpoint(path) -> bytes:
    """Read a checkpoint blob from disk."""
    return Path(path).read_bytes()
