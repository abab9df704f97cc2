"""Shared golden-file helpers for the engine-refactor equivalence tests.

The goldens under ``tests/goldens/`` were captured from the pre-refactor
drivers (the seed commit's hand-wired ``bench/experiments.py``) at fixed
seeds.  ``normalise`` maps a driver result to plain JSON types with full
float precision so "byte-identical" can be asserted on the serialized
form; ``golden_text`` produces the exact bytes stored on disk.
``exp_sla.json`` was captured the same way from ``exp_sla`` before SLA
tuning moved onto the adaptive controller (``python tests/_goldens.py
sla``).  Every golden was re-recorded once with these helpers when
windows became per-page counts, which redraws the access stream and the
PEBS samples.  The small presets of the other Session-driven drivers
(see ``PINNED``) were captured from the per-figure loops before every
driver moved onto :func:`repro.engine.grid.run_grid`
(``python tests/_goldens.py NAME...`` re-records only those names).
``python tests/_goldens.py fixtures`` writes the format-v4 checkpoint
fixtures (``FIXTURE_SPECS``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The pinned drivers: name -> (driver kwargs).  The first three mirror
#: each driver's signature so the captured run is the documented default
#: run; the rest are small presets (3 windows, Figs. 7 and 13 on two
#: workloads) that pin every other Session-driven driver cheaply.
PINNED = {
    "fig08_waterfall_trace": {"windows": 15, "seed": 0},
    "fig10_knob_sweep": {"windows": 10, "seed": 0},
    "fig14_tax": {"windows": 10, "seed": 0},
    "fig01_motivation": {"windows": 3, "seed": 0},
    "fig07_standard_mix": {
        "workloads": ("memcached-ycsb", "bfs"), "windows": 3, "seed": 0,
    },
    "fig09_analytical_trace": {"windows": 3, "seed": 0},
    "fig11_tail_latency": {"windows": 3, "seed": 0},
    "fig12_spectrum_placement": {"windows": 3, "seed": 0},
    "fig13_spectrum": {
        "workloads": ("memcached-ycsb", "bfs"), "windows": 3, "seed": 0,
    },
    "ablation_filter": {"windows": 3, "seed": 0},
    "ablation_cooling": {"windows": 3, "seed": 0},
    "ablation_tier_count": {"windows": 3, "seed": 0},
    "ablation_prefetch": {"windows": 3, "seed": 0},
    "ablation_fast_migration": {"windows": 3, "seed": 0},
    "ablation_tier_selection": {"windows": 3, "seed": 0},
    "ablation_telemetry": {"windows": 3, "seed": 0},
    "ablation_granularity": {"windows": 3, "seed": 0},
    "ablation_solver": {"windows": 3, "seed": 0},
    "exp_extended_baselines": {"windows": 3, "seed": 0},
    "exp_iaa_tier": {"windows": 3, "seed": 0},
    "exp_colocation": {"windows": 3, "seed": 0},
}


#: Keys holding *measured* wall-clock time (the solver backends time the
#: real ILP solve) -- nondeterministic even on identical code, so they
#: are zeroed before comparison.  Everything else is virtual-time and
#: must match byte for byte.
VOLATILE_KEYS = {
    "solver_ms",
    "solver_ns",
    "tax_pct_of_app",  # derived from solver_ns for the -Local configs
    "solver_queue_ns",
}

#: Latency-statistic keys.  Their values depend on the latency
#: accumulator's *representation* (the log-binned histogram quantizes
#: percentiles; running sums reassociate the mean), so they are zeroed
#: in the byte-identical goldens and pinned with a relative tolerance in
#: ``goldens/latency_stats.json`` instead.
LATENCY_KEYS = {
    "avg_latency_ns",
    "p95_latency_ns",
    "p999_latency_ns",
    "p95_ns",
    "p999_ns",
}

#: Relative tolerance for the latency sibling golden: the histogram's
#: worst-case percentile error is sqrt(1.005) - 1 ~ 0.25 % (see
#: ``repro.core.daemon``); the ISSUE budget is < 0.5 %.
LATENCY_RTOL = 5e-3


def normalise(value, zeroed: frozenset | set | None = None):
    """Recursively convert a driver result to plain JSON types.

    ``zeroed`` keys are replaced by ``0.0``; the default zeroes both the
    wall-clock keys and the representation-dependent latency keys.
    """
    if zeroed is None:
        zeroed = VOLATILE_KEYS | LATENCY_KEYS
    if is_dataclass(value) and not isinstance(value, type):
        return normalise(asdict(value), zeroed)
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return normalise(value.tolist(), zeroed)
    if isinstance(value, dict):
        return {
            str(k): 0.0 if str(k) in zeroed else normalise(v, zeroed)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [normalise(v, zeroed) for v in value]
    if isinstance(value, float):
        # repr round-trips doubles exactly; json.dumps uses it already.
        return value
    return value


def latency_entries(value, prefix: str = "") -> dict[str, float]:
    """Flatten every latency-stat field into ``{path: value}``.

    Paths are slash-joined key/index chains, stable across runs because
    the driver output structure is deterministic.
    """
    entries: dict[str, float] = {}
    if isinstance(value, dict):
        for k, v in value.items():
            path = f"{prefix}/{k}" if prefix else str(k)
            if str(k) in LATENCY_KEYS:
                entries[path] = float(v)
            else:
                entries.update(latency_entries(v, path))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            entries.update(latency_entries(v, f"{prefix}/{i}" if prefix else str(i)))
    return entries


def golden_text(result) -> str:
    """The canonical serialized form compared byte-for-byte."""
    return json.dumps(normalise(result), indent=2, sort_keys=True) + "\n"


#: The pinned ``exp_sla`` run, stored in ``goldens/exp_sla.json`` with
#: each target's per-window alpha trajectory beside the rows.
SLA_KWARGS = {"windows": 15, "seed": 0}


def sla_result() -> dict:
    """``exp_sla`` rows plus the alpha every window ran at, per target.

    The trajectory is read off the session policy's knob just before
    each :meth:`~repro.engine.session.Session.run_window`, so it pins
    what the placement solved at without depending on which controller
    chose it.
    """
    from repro.bench import experiments
    from repro.engine.session import Session

    trajectories: list[list[float]] = []
    original = Session.run_window

    def spy(self, *args, **kwargs):
        if not self.daemon.records:
            trajectories.append([])
        trajectories[-1].append(self.policy.knob.alpha)
        return original(self, *args, **kwargs)

    Session.run_window = spy
    try:
        rows = experiments.exp_sla(**SLA_KWARGS)
    finally:
        Session.run_window = original
    return {
        "rows": rows,
        "alphas": {
            repr(row["sla_slowdown_pct"]): alphas
            for row, alphas in zip(rows, trajectories)
        },
    }


def capture_sla() -> None:
    """Write ``goldens/exp_sla.json`` from the current ``exp_sla``."""
    path = GOLDEN_DIR / "exp_sla.json"
    path.write_text(golden_text(sla_result()))
    print(f"captured {path}")


def capture(names=None) -> None:
    """Write goldens from the *current* drivers (run once, pre-refactor).

    ``names`` limits the capture to those pinned drivers; the latency
    entries of the others are kept as they are.
    """
    from repro.bench import experiments

    GOLDEN_DIR.mkdir(exist_ok=True)
    stats_path = GOLDEN_DIR / "latency_stats.json"
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    for name in names or PINNED:
        driver = getattr(experiments, name)
        result = driver(**PINNED[name])
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(golden_text(result))
        stats[name] = latency_entries(normalise(result, zeroed=VOLATILE_KEYS))
        print(f"captured {path}")
    stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"captured {stats_path}")


#: The committed format-v4 checkpoint fixtures, each captured after
#: window 3 of 6 with rows ``{"w": 0..2}``: file name -> spec kwargs.
#: The trace spec's path is relative to ``tests/fixtures``.
FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_SPECS = {
    "checkpoint_counts.ckpt": {
        "workload": "memcached-ycsb",
        "workload_kwargs": {"num_pages": 4096, "ops_per_window": 20_000},
        "policy": "waterfall",
        "windows": 6,
        "seed": 7,
    },
    "checkpoint_trace_ref.ckpt": {
        "workload": "trace",
        "workload_kwargs": {
            "path": "checkpoint_trace_inline.npz",
            "loop": False,
        },
        "policy": "waterfall",
        "windows": 6,
        "seed": 5,
    },
}
FIXTURE_WINDOWS = 3


def capture_fixtures() -> None:
    """Write the checkpoint fixtures as v4 blobs (run from any cwd)."""
    import os

    from repro.chaos.checkpoint import capture_session, save_checkpoint
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    cwd = os.getcwd()
    os.chdir(FIXTURE_DIR)
    try:
        for name, kwargs in FIXTURE_SPECS.items():
            session = Session(ScenarioSpec(**kwargs))
            for _ in range(FIXTURE_WINDOWS):
                session.run_window()
            rows = [{"w": w} for w in range(FIXTURE_WINDOWS)]
            path = save_checkpoint(name, capture_session(session, rows))
            print(f"captured {FIXTURE_DIR / path}")
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["sla"]:
        capture_sla()
    elif sys.argv[1:] == ["fixtures"]:
        capture_fixtures()
    else:
        capture(sys.argv[1:])
