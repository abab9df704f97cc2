#!/usr/bin/env python
"""End-to-end smoke test for the live serving daemon (CI `serve-smoke`).

Exercises the operator path the unit tests can't: a real ``repro serve``
subprocess on a loopback TCP socket, fed a recorded trace over NDJSON,
scraped over live HTTP, shut down with SIGTERM, and resumed from its
drain checkpoint.

Steps (each asserted):

1. Record a short diurnal-KV trace.
2. Start ``python -m repro serve`` with ``--stream tcp:127.0.0.1:0``
   and an ephemeral ``--http`` port; parse both bound addresses from
   its ready lines.
3. Feed half the trace through the socket, scrape ``/metrics`` until
   ``repro_windows_total`` reaches it, feed the rest, scrape again --
   the two samples must be monotone (and hit the full window count).
4. Check ``/healthz``, the ``/status`` document, and that the
   accounting invariants (checked after every window) never failed.
5. SIGTERM the daemon; it must exit 0 after a graceful drain.
6. Restore the drain checkpoint and verify it carries every window.

Run from the repository root::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WINDOWS = 6
FEED_FIRST = 3
TIMEOUT_S = 60.0


def log(message: str) -> None:
    print(f"[serve-smoke] {message}", flush=True)


def fail(message: str) -> None:
    print(f"[serve-smoke] FAIL: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def scrape(http_addr: str, path: str) -> str:
    with urllib.request.urlopen(f"http://{http_addr}{path}", timeout=10) as rsp:
        return rsp.read().decode()


def windows_total(http_addr: str) -> float:
    from repro.obs import parse_prometheus

    parsed = parse_prometheus(scrape(http_addr, "/metrics"))
    return parsed.get("repro_windows_total", {}).get((), 0.0)


def wait_for_windows(http_addr: str, count: int) -> float:
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        total = windows_total(http_addr)
        if total >= count:
            return total
        time.sleep(0.1)
    fail(f"timed out waiting for repro_windows_total >= {count}")
    raise AssertionError  # unreachable


def read_addresses(proc: subprocess.Popen) -> tuple[str, str]:
    """Parse the daemon's flushed ready lines for both bound ports."""
    http_addr = stream_addr = None
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline and not (http_addr and stream_addr):
        line = proc.stdout.readline()
        if not line:
            break
        line = line.strip()
        log(f"daemon: {line}")
        if line.startswith("serving http on "):
            http_addr = line.rpartition(" ")[2]
        elif line.startswith("stream listening on "):
            stream_addr = line.rpartition(" ")[2]
    if not (http_addr and stream_addr):
        fail("daemon never announced its addresses")
    return http_addr, stream_addr


def main() -> None:
    sys.path.insert(0, str(REPO / "src"))
    from repro.engine import ScenarioSpec
    from repro.serve import ServeDaemon, ServeOptions
    from repro.workloads import make_workload, record_trace

    workdir = Path(tempfile.mkdtemp(prefix="serve_smoke_"))
    log(f"workdir {workdir}")

    # 1. A short recorded trace + the scenario that consumes it.
    workload = make_workload(
        "diurnal-kv", seed=11, num_pages=1024, ops_per_window=3000
    )
    trace = record_trace(workload, WINDOWS, workdir / "trace.npz")
    spec = ScenarioSpec(
        workload="trace",
        workload_kwargs={"path": str(trace), "loop": False},
        windows=WINDOWS,
        policy="waterfall",
        seed=11,
        check_invariants=1,
    )
    scenario = workdir / "scenario.json"
    scenario.write_text(spec.to_json())
    checkpoint = workdir / "drain.ckpt"

    # 2. The daemon subprocess, everything on ephemeral loopback ports.
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(scenario),
            "--stream",
            "tcp:127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
            "--checkpoint",
            str(checkpoint),
        ],
        cwd=REPO,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        http_addr, stream_addr = read_addresses(proc)
        host, port = stream_addr.rsplit(":", 1)

        # 3. Feed the recorded windows over NDJSON; two monotone scrapes.
        import numpy as np

        data = np.load(trace)
        feeder = socket.create_connection((host, int(port)), timeout=10)
        with feeder, feeder.makefile("wb") as pipe:
            for index in range(FEED_FIRST):
                pipe.write(
                    json.dumps(
                        {
                            "pages": data[f"window_{index}"].tolist(),
                            "boundary": True,
                        }
                    ).encode()
                    + b"\n"
                )
            pipe.flush()
            first = wait_for_windows(http_addr, FEED_FIRST)
            log(f"first scrape: repro_windows_total={first}")
            for index in range(FEED_FIRST, WINDOWS):
                pipe.write(
                    json.dumps(
                        {
                            "pages": data[f"window_{index}"].tolist(),
                            "boundary": True,
                        }
                    ).encode()
                    + b"\n"
                )
            pipe.flush()
            second = wait_for_windows(http_addr, WINDOWS)
            log(f"second scrape: repro_windows_total={second}")
        if not (first <= second and second == WINDOWS):
            fail(f"window counter not monotone: {first} -> {second}")

        # 4. Health + status while live.
        if scrape(http_addr, "/healthz").strip() != "ok":
            fail("/healthz did not report ok")
        status = json.loads(scrape(http_addr, "/status"))
        if status["windows"] != WINDOWS or status["draining"]:
            fail(f"unexpected /status: {status}")
        log(f"status ok: {status['windows']} windows, "
            f"{status['events_ingested']} events")
        from repro.obs import parse_prometheus

        metrics = parse_prometheus(scrape(http_addr, "/metrics"))
        checks = metrics.get("repro_invariant_checks_total", {}).get((), 0.0)
        violations = metrics.get("repro_invariant_violations_total", {}).get(
            (), 0.0
        )
        if checks != WINDOWS or violations:
            fail(f"invariant checks {checks}, violations {violations}")
        log(f"invariants ok: {checks:.0f} checks, no violations")

        # 5. Graceful SIGTERM drain.
        proc.send_signal(signal.SIGTERM)
        tail, _ = proc.communicate(timeout=TIMEOUT_S)
        for line in tail.splitlines():
            log(f"daemon: {line}")
        if proc.returncode != 0:
            fail(f"daemon exited {proc.returncode} after SIGTERM")
        if "drained (signal)" not in tail:
            fail("daemon did not report a signal drain")
    finally:
        if proc.poll() is None:
            proc.kill()

    # 6. The drain checkpoint restores cleanly with every window.
    if not checkpoint.exists():
        fail("drain checkpoint was not written")
    resumed = ServeDaemon.from_checkpoint(
        checkpoint, ServeOptions(http=False, virtual_clock=True)
    )
    if resumed.windows_done != WINDOWS:
        fail(
            f"checkpoint restored {resumed.windows_done} windows, "
            f"expected {WINDOWS}"
        )
    log(f"checkpoint restored cleanly at window {resumed.windows_done}")
    log("PASS")


if __name__ == "__main__":
    main()
