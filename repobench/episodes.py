"""Closed-loop episodes, their output checks, and the timed phase loop.

The loop is closed: one process drives one scenario, and the next window
starts only after the previous one (including its checkpoint, and on the
serving path its ingest) has finished.  Host time is measured per window
with ``time.perf_counter``; set-up (building the ``Session`` or
``ServeDaemon``, trace load included) and the output checks run outside
the window timings.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.chaos import checkpoint
from repro.chaos.invariants import check_capacity
from repro.engine.session import Session
from repro.obs import Observability
from repro.serve import ServeDaemon, ServeOptions

from repobench.workloads import BenchWorkload, sub_seed

#: ``RunSummary`` fields that are simulated, hence bit-identical for one
#: scenario seed.  ``solver_ns`` is host wall time and is left out.
SIM_FIELDS = (
    "slowdown",
    "tco_savings",
    "final_tco_savings",
    "avg_latency_ns",
    "p95_latency_ns",
    "p999_latency_ns",
    "total_faults",
    "migration_ns",
    "profiling_ns",
    "windows",
)


#: Median of :func:`reference_seconds` on the host the bounds in
#: BENCHMARK.json were set on (2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.024


def reference_seconds() -> float:
    """Time a fixed numpy + interpreter kernel that shares no code with
    the program under test, to track how fast the host runs right now.

    Other tenants of a shared host slow every process on it for minutes
    at a time; the host-time metrics are rescaled by this kernel's median
    time in the run (see README.md).
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    values = rng.random(150_000)
    order = np.argsort(values, kind="stable")
    np.bincount((values * 4096).astype(np.int64), minlength=4096)
    values[order].cumsum()
    table: dict[int, int] = {}
    for i in range(15_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


@dataclass
class Episode:
    """One episode's timings and check outcome."""

    index: int
    setup_s: float
    window_s: list[float]
    reference_s: float = 0.0
    adaptive_steps: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def sim_fingerprint(summary) -> dict:
    return {name: getattr(summary, name) for name in SIM_FIELDS}


def check_episode(session, blob: bytes, windows: int, accesses: int) -> list:
    """Output checks for one finished episode; returns the problems found.

    * the capacity/accounting invariants hold,
    * every requested window ran and served every requested access,
    * the last checkpoint restores to a session whose summary equals the
      live one.
    """
    problems = []
    try:
        check_capacity(session.system)
    except AssertionError as exc:
        problems.append(f"capacity invariant: {exc}")
    records = session.records
    if len(records) != windows:
        problems.append(f"ran {len(records)} windows, requested {windows}")
    served = sum(record.accesses for record in records)
    if served != accesses:
        problems.append(f"served {served} accesses, requested {accesses}")
    if session.system.clock.total_accesses != accesses:
        problems.append(
            f"clock counted {session.system.clock.total_accesses} accesses, "
            f"requested {accesses}"
        )
    try:
        restored, _rows, done = checkpoint.restore_session(blob)
    except Exception as exc:  # a corrupt blob may fail anywhere in unpickling
        problems.append(f"checkpoint restore: {type(exc).__name__}: {exc}")
        return problems
    if done != windows:
        problems.append(f"checkpoint holds {done} windows, expected {windows}")
    if restored.summary() != session.summary():
        problems.append("restored checkpoint summary differs from live run")
    return problems


class EpisodeRunner:
    """Runs episodes of one workload; holds per-run state.

    Args:
        bench: The workload.
        seed: Benchmark seed; episode ``i`` uses sub-seed
            ``i % bench.sub_seeds``.
        traces: Recorded traces, one per sub-seed (serving workload only).
        work_dir: Where the serving drain checkpoint is written.
    """

    def __init__(self, bench: BenchWorkload, seed: int, traces=(), work_dir=None):
        self.bench = bench
        self.seed = seed
        self.traces = list(traces)
        self.work_dir = work_dir
        #: Sub-seed index -> simulated fingerprint of its first episode.
        self.fingerprints: dict[int, dict] = {}
        self.windows_run = 0
        self._loop = asyncio.new_event_loop() if bench.serve else None

    def close(self) -> None:
        if self._loop is not None:
            self._loop.close()

    def run_phase(self, seconds: float, min_episodes: int, recorder=None):
        """Run episodes until ``seconds`` of wall time have passed and at
        least ``min_episodes`` have finished."""
        episodes = []
        start = time.perf_counter()
        while (
            len(episodes) < min_episodes
            or time.perf_counter() - start < seconds
        ):
            episodes.append(self.run_episode(len(episodes), recorder))
        return episodes

    def run_episode(self, index: int, recorder=None) -> Episode:
        k = index % self.bench.sub_seeds
        reference_s = reference_seconds()
        if self.bench.serve:
            episode, session = self._serve_episode(index, k, recorder)
        else:
            episode, session = self._batch_episode(index, k, recorder)
        episode.reference_s = reference_s
        fingerprint = sim_fingerprint(session.summary())
        first = self.fingerprints.setdefault(k, fingerprint)
        if first != fingerprint:
            episode.problems.append(
                f"simulated results of sub-seed {k} differ between "
                f"repeats: {first} != {fingerprint}"
            )
        controller = getattr(session.policy, "controller", None)
        episode.adaptive_steps = int(getattr(controller, "steps_total", 0))
        return episode

    # -- batch path ----------------------------------------------------------

    def _batch_episode(self, index: int, k: int, recorder):
        bench = self.bench
        windows = bench.episode_windows
        start = time.perf_counter()
        session = Session(bench.spec(sub_seed(self.seed, k)))
        session.validate_capacity()
        setup_s = time.perf_counter() - start
        if recorder is not None:
            recorder.install(session)
        window_s = []
        blob = None
        for w in range(windows):
            if recorder is not None:
                recorder.window = self.windows_run
            t0 = time.perf_counter_ns()
            session.run_window()
            if bench.checkpoint_every and (w + 1) % bench.checkpoint_every == 0:
                blob = checkpoint.capture_session(session)
            t1 = time.perf_counter_ns()
            window_s.append((t1 - t0) / 1e9)
            if recorder is not None:
                recorder.window = None
                recorder.close_window(self.windows_run, t0, t1)
            self.windows_run += 1
        session.finish()
        if not bench.checkpoint_every or windows % bench.checkpoint_every:
            # No checkpoint at the last window: take one for the check.
            blob = checkpoint.capture_session(session)
        problems = check_episode(
            session, blob, windows, windows * bench.accesses_per_window
        )
        if session.workload.window != windows:
            problems.append(
                f"workload generated {session.workload.window} windows, "
                f"requested {windows}"
            )
        return Episode(index, setup_s, window_s, problems=problems), session

    # -- serving path --------------------------------------------------------

    def _serve_episode(self, index: int, k: int, recorder):
        trace = self.traces[k]
        base = self.windows_run
        ends: list[int] = []

        def on_event(event) -> None:
            if event.kind == "window_end":
                ends.append(time.perf_counter_ns())
            elif event.kind == "window_start" and recorder is not None:
                recorder.window = base + event.window

        spec = self.bench.spec(sub_seed(self.seed, k), trace_path=trace.path)
        ckpt_path = self.work_dir / "drain.ckpt"
        start = time.perf_counter()
        session = Session(
            spec, obs=Observability(metrics=True), hooks=(on_event,)
        )
        daemon = ServeDaemon(
            spec,
            ServeOptions(
                stream=f"replay:{trace.path}",
                virtual_clock=True,
                http=False,
                checkpoint=ckpt_path,
            ),
            session=session,
        )
        setup_s = time.perf_counter() - start
        if recorder is not None:
            recorder.install(session)
        t0 = time.perf_counter_ns()
        report = self._loop.run_until_complete(daemon.run())
        t_end = time.perf_counter_ns()
        if recorder is not None:
            recorder.window = None
        # A window's wall time runs from the previous window's end; the
        # last one also carries the drain (checkpoint capture + close).
        bounds = [t0] + ends[:-1] + [t_end]
        window_s = [(b - a) / 1e9 for a, b in zip(bounds, bounds[1:])]
        if recorder is not None:
            for w, (a, b) in enumerate(zip(bounds, bounds[1:])):
                recorder.close_window(base + w, a, b)
        self.windows_run += len(window_s)
        problems = check_episode(
            session, ckpt_path.read_bytes(), trace.windows, trace.events
        )
        if report.windows != trace.windows or len(ends) != trace.windows:
            problems.append(
                f"served {report.windows} windows, trace has {trace.windows}"
            )
        if daemon.events_ingested != trace.events or daemon.rejected_events:
            problems.append(
                f"ingested {daemon.events_ingested} events "
                f"({daemon.rejected_events} rejected), trace has "
                f"{trace.events}"
            )
        return Episode(index, setup_s, window_s, problems=problems), session
