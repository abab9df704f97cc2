"""Event-stream sources: where live access traffic comes from.

A source is an async iterable of :class:`Chunk` objects -- batches of
page accesses, in arrival order.  Three sources cover the serving
stories (all selected by one ``StreamSpec`` string, see
:meth:`StreamSpec.parse`):

* ``generator`` -- drive the scenario's own workload generator
  in-process, one chunk per generated window (its per-page counts
  expanded to page ids in ascending order).  The "serve the synthetic
  service" mode: live diurnal/churn traffic with no external feeder.
* ``replay:PATH`` -- replay a recorded ``.npz`` trace (from
  :func:`repro.workloads.trace.record_trace`), paced at a configurable
  event rate against the daemon's clock.  Replayed chunks mark the
  recorded window boundaries, so a ``source`` window rule reproduces
  the batch run's windows exactly.
* ``tcp:HOST:PORT`` / ``unix:PATH`` -- a newline-delimited-JSON socket
  listener for external feeders.  Each line is an object with a
  ``pages`` array of page ids, optionally ``write_fraction`` (float)
  and ``boundary`` (bool, "close the window after this batch").

Sources do not validate page ids -- the daemon does, so a misbehaving
socket client is counted and dropped instead of crashing the loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

from repro.obs.logs import get_logger
from repro.workloads.base import expand_counts
from repro.workloads.trace import open_trace, read_windows

_log = get_logger("serve.stream")

#: Kinds a stream spec can name.
STREAM_KINDS = ("generator", "replay", "tcp", "unix")

#: Sentinel queued by the socket listener when ingest stops.
_EOF = object()


@dataclass(frozen=True)
class Chunk:
    """One batch of access events from a source.

    Attributes:
        pages: Accessed page ids, arrival order, with repeats.
        write_fraction: Store fraction for these events; ``None`` means
            "use the workload's default".
        boundary: The source asserts a window boundary right after this
            chunk (recorded trace windows, generator windows, or an
            explicit ``boundary`` flag from a socket feeder).
    """

    pages: np.ndarray
    write_fraction: float | None = None
    boundary: bool = False


@dataclass(frozen=True)
class StreamSpec:
    """Parsed form of a ``--stream`` argument.

    Attributes:
        kind: One of :data:`STREAM_KINDS`.
        path: Trace path (``replay``) or socket path (``unix``).
        host / port: TCP endpoint (``tcp``).
    """

    kind: str = "generator"
    path: str = ""
    host: str = ""
    port: int = 0

    @classmethod
    def parse(cls, text: str) -> "StreamSpec":
        """Parse ``generator`` / ``replay:PATH`` / ``tcp:HOST:PORT`` /
        ``unix:PATH``; raises ``ValueError`` on anything else."""
        kind, _, rest = text.partition(":")
        if kind == "generator":
            if rest:
                raise ValueError(
                    f"stream 'generator' takes no argument, got {text!r}"
                )
            return cls(kind="generator")
        if kind == "replay":
            if not rest:
                raise ValueError("stream 'replay' needs a trace path")
            return cls(kind="replay", path=rest)
        if kind == "unix":
            if not rest:
                raise ValueError("stream 'unix' needs a socket path")
            return cls(kind="unix", path=rest)
        if kind == "tcp":
            host, sep, port = rest.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"stream 'tcp' needs HOST:PORT, got {text!r}"
                )
            try:
                port_num = int(port)
            except ValueError:
                raise ValueError(f"bad tcp port {port!r}") from None
            if not 0 <= port_num <= 65535:
                raise ValueError(f"tcp port {port_num} out of range")
            return cls(kind="tcp", host=host, port=port_num)
        raise ValueError(
            f"unknown stream kind {kind!r}; "
            f"available: {', '.join(STREAM_KINDS)}"
        )


class GeneratorSource:
    """Drive the session's own workload generator, one chunk per window.

    Args:
        workload: The (already mid-stream, if restored) generator.
        windows: Windows to emit; ``None`` streams until stopped.
    """

    def __init__(self, workload, windows: int | None = None) -> None:
        self.workload = workload
        self.windows = windows
        self._stopped = False

    def stop(self) -> None:
        """Stop after the chunk currently being produced."""
        self._stopped = True

    async def __aiter__(self):
        emitted = 0
        while not self._stopped:
            if self.windows is not None and emitted >= self.windows:
                return
            pages = expand_counts(self.workload.next_window())
            emitted += 1
            yield Chunk(
                pages,
                write_fraction=self.workload.write_fraction,
                boundary=True,
            )
            await asyncio.sleep(0)  # let HTTP / signal handlers breathe


class ReplaySource:
    """Replay a recorded trace, paced against the daemon's clock.

    Args:
        path: ``.npz`` file from :func:`repro.workloads.trace.record_trace`.
        clock: :class:`~repro.serve.clock.WallClock` or ``VirtualClock``.
        rate: Event pacing in accesses/second; each recorded window
            sleeps ``len(window)/rate`` before its chunk is delivered.
            ``None`` replays as fast as the loop can drain.
        skip_windows: Recorded windows to skip before emitting (resume
            from a drain checkpoint taken mid-trace).
    """

    def __init__(
        self,
        path,
        clock,
        rate: float | None = None,
        skip_windows: int = 0,
    ) -> None:
        info = open_trace(path)
        if rate is not None and rate <= 0:
            raise ValueError("replay rate must be > 0 events/second")
        if skip_windows < 0:
            raise ValueError("skip_windows must be >= 0")
        self.num_pages = info.num_pages
        self.num_windows = info.num_windows
        self.write_fraction = info.write_fraction
        # Eager on purpose: decompressing inside __aiter__ would land in
        # window time.
        self._windows = read_windows(info)
        self.clock = clock
        self.rate = rate
        self.skip_windows = skip_windows
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    async def __aiter__(self):
        for index in range(self.skip_windows, self.num_windows):
            if self._stopped:
                return
            pages = self._windows[index]
            if self.rate is not None:
                await self.clock.sleep(len(pages) / self.rate)
            else:
                await asyncio.sleep(0)
            if self._stopped:
                return
            yield Chunk(
                pages, write_fraction=self.write_fraction, boundary=True
            )


class SocketSource:
    """Newline-delimited-JSON listener on a TCP or unix socket.

    Each client line::

        {"pages": [17, 17, 523], "write_fraction": 0.1, "boundary": false}

    Bad lines (unparseable JSON, missing/invalid ``pages``) are counted
    in :attr:`rejected_lines` and dropped; the connection stays up.

    Args:
        spec: A ``tcp`` or ``unix`` :class:`StreamSpec`.
        queue_size: Chunks buffered before the listener back-pressures.
    """

    def __init__(self, spec: StreamSpec, queue_size: int = 1024) -> None:
        if spec.kind not in ("tcp", "unix"):
            raise ValueError(f"SocketSource needs tcp/unix, got {spec.kind}")
        self.spec = spec
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._server: asyncio.AbstractServer | None = None
        self._stopped = False
        self.rejected_lines = 0
        #: Actual bound address, available after :meth:`start`
        #: (``("host", port)`` for tcp -- useful with port 0).
        self.address: tuple | str | None = None

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self.spec.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._serve_client, path=self.spec.path
            )
            self.address = self.spec.path
        else:
            self._server = await asyncio.start_server(
                self._serve_client, host=self.spec.host, port=self.spec.port
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]

    async def _serve_client(self, reader, writer) -> None:
        try:
            while not self._stopped:
                line = await reader.readline()
                if not line:
                    break
                chunk = self._parse_line(line)
                if chunk is None:
                    continue
                await self._queue.put(chunk)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    def _parse_line(self, line: bytes) -> Chunk | None:
        line = line.strip()
        if not line:
            return None
        try:
            obj = json.loads(line)
            pages = np.asarray(obj["pages"], dtype=np.int64)
            if pages.ndim != 1:
                raise ValueError("pages must be a flat array")
            wf = obj.get("write_fraction")
            if wf is not None:
                wf = float(wf)
            boundary = bool(obj.get("boundary", False))
        except (ValueError, TypeError, KeyError, json.JSONDecodeError):
            self.rejected_lines += 1
            _log.debug("rejected stream line: %r", line[:120])
            return None
        return Chunk(pages, write_fraction=wf, boundary=boundary)

    async def stop(self) -> None:
        """Stop accepting traffic and wake the consumer."""
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.put(_EOF)

    async def __aiter__(self):
        if self._server is None:
            await self.start()
        while True:
            chunk = await self._queue.get()
            if chunk is _EOF:
                return
            yield chunk


@dataclass
class QueueSource:
    """In-process queue source (tests push chunks directly)."""

    _queue: asyncio.Queue = field(default_factory=asyncio.Queue)

    async def put(self, chunk: Chunk) -> None:
        await self._queue.put(chunk)

    async def stop(self) -> None:
        await self._queue.put(_EOF)

    async def __aiter__(self):
        while True:
            chunk = await self._queue.get()
            if chunk is _EOF:
                return
            yield chunk
