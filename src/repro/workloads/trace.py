"""Access-trace recording and replay.

Downstream users often want to (a) capture a workload's access stream
once and replay it deterministically across many policy runs, or (b)
bring their *own* traces (e.g. converted from real PEBS dumps) into the
simulator.  This module provides both directions:

* :func:`record_trace` runs a generator for N windows and saves each
  window's page ids to a compressed ``.npz`` file (a generated window
  is per-page counts, so its ids are stored in ascending page order),
* :func:`open_trace` reads a trace's header -- meta fields, per-window
  lengths and a content fingerprint -- without decompressing any window,
  and :func:`read_windows` decompresses the windows,
* :class:`TraceWorkload` is a :class:`~repro.workloads.base.Workload`
  that replays such a file window by window (looping if asked for more
  windows than recorded).

File format: ``numpy.savez_compressed`` with keys ``window_<i>`` plus a
``meta`` array ``[num_pages, num_windows, write_fraction_milli]``.

A :class:`TraceWorkload` is a lazy view of its file: it decompresses the
windows on first use and pickles (checkpoints) by reference -- path,
fingerprint and cursor, no window data.  Unpickling re-checks the
fingerprint, so a checkpoint whose trace is gone or was re-recorded
fails at restore with :class:`TraceMismatchError`.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.workloads.base import Workload, expand_counts


class TraceMismatchError(ValueError):
    """A checkpointed trace reference no longer matches its file."""


@dataclass(frozen=True)
class TraceInfo:
    """A recorded trace's header (see :func:`open_trace`).

    Attributes:
        path: The ``.npz`` file.
        num_pages: Page-id space the trace was recorded over.
        num_windows: Recorded windows.
        write_fraction: Recorded store fraction.
        lengths: Accesses in each window, read from the ``.npy`` headers.
        fingerprint: blake2b digest of the zip central directory's
            (member name, CRC-32, size) entries.
    """

    path: Path
    num_pages: int
    num_windows: int
    write_fraction: float
    lengths: tuple[int, ...]
    fingerprint: str


def record_trace(workload: Workload, num_windows: int, path) -> Path:
    """Run ``workload`` for ``num_windows`` windows and save the trace.

    Returns:
        The path written.
    """
    if num_windows < 1:
        raise ValueError("num_windows must be >= 1")
    path = Path(path)
    arrays = {}
    for w in range(num_windows):
        arrays[f"window_{w}"] = expand_counts(workload.next_window())
    arrays["meta"] = np.array(
        [
            workload.num_pages,
            num_windows,
            int(round(workload.write_fraction * 1000)),
        ],
        dtype=np.int64,
    )
    np.savez_compressed(path, **arrays)
    # np.savez appends .npz when missing; normalise the returned path.
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _fingerprint(archive: zipfile.ZipFile) -> str:
    """Digest of the central directory; reads no array data."""
    digest = hashlib.blake2b(digest_size=16)
    for entry in archive.infolist():
        digest.update(
            f"{entry.filename}\0{entry.CRC:08x}\0{entry.file_size}\n".encode()
        )
    return digest.hexdigest()


def _open_archive(path: Path) -> zipfile.ZipFile:
    if not path.exists():
        raise ValueError(f"trace file not found: {path}")
    try:
        return zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise ValueError(f"{path} is not a recorded trace") from None


def _member(archive: zipfile.ZipFile, path: Path, key: str):
    try:
        return archive.open(f"{key}.npy")
    except KeyError:
        raise ValueError(f"{path} is not a recorded trace: no {key}") from None


def _read_array(archive: zipfile.ZipFile, path: Path, key: str) -> np.ndarray:
    with _member(archive, path, key) as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def _window_length(archive: zipfile.ZipFile, path: Path, key: str) -> int:
    """One window's length from its ``.npy`` header alone."""
    with _member(archive, path, key) as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, _order, _dtype = np.lib.format.read_array_header_1_0(fh)
        else:
            shape, _order, _dtype = np.lib.format.read_array_header_2_0(fh)
    return shape[0]


def open_trace(path) -> TraceInfo:
    """Read a trace's meta fields, window lengths and fingerprint.

    Decompresses only the ``meta`` array and each window's ``.npy``
    header.

    Raises:
        ValueError: The file is missing or is not a recorded trace.
    """
    path = Path(path)
    with _open_archive(path) as archive:
        meta = _read_array(archive, path, "meta").tolist()
        num_pages, num_windows, write_milli = meta
        lengths = tuple(
            _window_length(archive, path, f"window_{w}")
            for w in range(num_windows)
        )
        fingerprint = _fingerprint(archive)
    return TraceInfo(
        path=path,
        num_pages=int(num_pages),
        num_windows=int(num_windows),
        write_fraction=write_milli / 1000.0,
        lengths=lengths,
        fingerprint=fingerprint,
    )


def _check_trace(info: TraceInfo) -> None:
    """Raise :class:`TraceMismatchError` unless ``info.path`` still holds
    the trace ``info`` was read from."""
    try:
        with _open_archive(info.path) as archive:
            found = _fingerprint(archive)
    except ValueError:
        found = "no readable trace"
    if found != info.fingerprint:
        raise TraceMismatchError(
            f"trace {info.path} is gone or was re-recorded: fingerprint "
            f"{info.fingerprint} expected, {found} found"
        )


def read_windows(info: TraceInfo) -> list[np.ndarray]:
    """Decompress every window of the trace ``info`` describes.

    Windows are returned as ``int64`` (no copy when recorded that way,
    as :func:`record_trace` does).

    Raises:
        TraceMismatchError: The file is gone or changed since
            :func:`open_trace`.
    """
    _check_trace(info)
    with _open_archive(info.path) as archive:
        return [
            np.asarray(
                _read_array(archive, info.path, f"window_{w}"), dtype=np.int64
            )
            for w in range(info.num_windows)
        ]


class TraceWorkload(Workload):
    """Replays a recorded trace file.

    Construction reads only the trace header (:func:`open_trace`); the
    first window decompresses the whole trace.  Pickling drops the
    decompressed windows, and unpickling re-checks the file's
    fingerprint, raising :class:`TraceMismatchError` when the trace is
    gone or was re-recorded.

    Args:
        path: ``.npz`` file from :func:`record_trace`.
        loop: Whether to wrap around after the last recorded window;
            when False, requesting more windows raises ``IndexError``.
        seed: Accepted for registry/scenario compatibility (every
            ``make_workload`` factory receives one); replay is fully
            deterministic regardless, since the windows are recorded.
    """

    def __init__(self, path, loop: bool = True, seed: int = 0) -> None:
        info = open_trace(path)
        self.name = f"trace:{info.path.stem}"
        self.loop = loop
        self.info = info
        self.num_windows = info.num_windows
        self._windows: list[np.ndarray] | None = None
        super().__init__(info.num_pages, max((1, *info.lengths)), seed)
        self.write_fraction = info.write_fraction

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_windows"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        _check_trace(self.info)

    def _generate(self, rng: np.random.Generator) -> np.ndarray:
        if self._windows is None:
            self._windows = read_windows(self.info)
        index = self.window
        if index >= self.num_windows:
            if not self.loop:
                raise IndexError(
                    f"trace has {self.num_windows} windows; "
                    f"window {index} requested with loop=False"
                )
            index %= self.num_windows
        return self._windows[index]
