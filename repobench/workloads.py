"""The benchmark's four workloads and the inputs each derives from a seed.

Each workload is one ``ScenarioSpec`` run in *episodes*: a fresh session
(the set-up the ``setup_s`` metric times) followed by a fixed number of
windows.  Episode ``i`` of a run uses sub-seed ``i % sub_seeds``, so the
simulated metrics are a mean over ``sub_seeds`` independent scenarios
(one draw of a scenario is noisy across seeds, see README.md), and every
later episode repeats a sub-seed already run: its simulated results must
then be bit-identical, which is the determinism check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload.

    Attributes:
        name: Workload name on the command line.
        workload: Registry workload the access stream comes from.
        workload_kwargs: Input size, stated explicitly.
        accesses_per_op: Accesses the generator emits per operation, so
            a window requests ``ops_per_window * accesses_per_op``.
        policy: Placement policy.
        episode_windows: Windows per episode.
        sub_seeds: Distinct scenarios the simulated metrics average over.
        checkpoint_every: ``capture_session`` cadence inside the window
            loop (0: never; a checkpoint is still taken after the loop
            for the restore check).
        serve: Replay a recorded trace through ``ServeDaemon`` instead of
            driving ``Session.run_window`` directly.
    """

    name: str
    workload: str
    workload_kwargs: dict = field(default_factory=dict)
    accesses_per_op: int = 1
    policy: str = "waterfall"
    episode_windows: int = 40
    sub_seeds: int = 6
    checkpoint_every: int = 0
    serve: bool = False

    def spec(self, seed: int, trace_path: Path | None = None):
        """The scenario one episode runs."""
        from repro.engine.spec import ScenarioSpec

        if trace_path is None:
            workload, kwargs = self.workload, dict(self.workload_kwargs)
        else:
            workload = "trace"
            kwargs = {"path": str(trace_path), "loop": False}
        return ScenarioSpec(
            name=self.name,
            workload=workload,
            workload_kwargs=kwargs,
            policy=self.policy,
            windows=self.episode_windows,
            seed=seed,
        )

    @property
    def accesses_per_window(self) -> int:
        return self.workload_kwargs["ops_per_window"] * self.accesses_per_op


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's Fig. 8 scenario: workload generation dominates.
        BenchWorkload(
            name="ycsb-waterfall",
            workload="memcached-ycsb",
            workload_kwargs={"num_pages": 16384, "ops_per_window": 500_000},
            policy="waterfall",
            episode_windows=40,
            sub_seeds=16,
        ),
        # Same sub-seeds and stream as ycsb-waterfall under the ILP, so
        # the difference between the two isolates the solve layer.
        BenchWorkload(
            name="ycsb-amtco",
            workload="memcached-ycsb",
            workload_kwargs={"num_pages": 16384, "ops_per_window": 500_000},
            policy="am-tco",
            episode_windows=40,
            sub_seeds=12,
        ),
        # Largest address space; checkpoints every 4 windows like
        # ``fleet --checkpoint-every``.
        BenchWorkload(
            name="xsbench-ckpt",
            workload="xsbench",
            workload_kwargs={"num_pages": 32768, "ops_per_window": 25_000},
            accesses_per_op=7,
            policy="waterfall",
            episode_windows=40,
            sub_seeds=6,
            checkpoint_every=4,
        ),
        # A recorded flash-crowd trace replayed unpaced through the
        # serving daemon (metrics on) under the adaptive controller.
        BenchWorkload(
            name="serve-flash-adaptive",
            workload="flash-crowd",
            workload_kwargs={"num_pages": 4096, "ops_per_window": 120_000},
            policy="adaptive",
            episode_windows=40,
            sub_seeds=6,
            serve=True,
        ),
    )
}


def sub_seed(seed: int, index: int) -> int:
    """The scenario seed of sub-seed ``index`` of benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class TraceInput:
    """A recorded trace and the work it requests."""

    path: Path
    windows: int
    events: int


def prepare_traces(bench: BenchWorkload, seed: int, cache: Path) -> list:
    """Record (or reuse) one trace per sub-seed of ``seed``.

    Traces are keyed by sub-seed and input size and written once; traces
    of other seeds are removed so the cache stays a few files.
    """
    from repro.workloads.registry import make_workload
    from repro.workloads.trace import record_trace

    cache.mkdir(parents=True, exist_ok=True)
    size = bench.workload_kwargs
    inputs = []
    for index in range(bench.sub_seeds):
        scenario_seed = sub_seed(seed, index)
        stem = (
            f"{bench.workload}-{scenario_seed}-{bench.episode_windows}w-"
            f"{size['num_pages']}p-{size['ops_per_window']}o"
        )
        path, sidecar = cache / f"{stem}.npz", cache / f"{stem}.json"
        if not (path.exists() and sidecar.exists()):
            generator = make_workload(
                bench.workload, seed=scenario_seed, **size
            )
            record_trace(generator, bench.episode_windows, path)
            with np.load(path) as data:
                events = sum(
                    data[f"window_{w}"].size
                    for w in range(bench.episode_windows)
                )
            sidecar.write_text(
                json.dumps(
                    {"windows": bench.episode_windows, "events": int(events)}
                )
            )
        meta = json.loads(sidecar.read_text())
        inputs.append(TraceInput(path, meta["windows"], meta["events"]))
    keep = {p for t in inputs for p in (t.path, t.path.with_suffix(".json"))}
    for stale in cache.iterdir():
        if stale not in keep:
            stale.unlink()
    return inputs
