"""repro.engine -- the declarative scenario layer.

One seam under every harness: a :class:`ScenarioSpec` describes a run
(tiers, workload + size scale, policy + knobs, telemetry, windows,
seeds), a :class:`Session` owns the canonical construction path and the
single instrumented window loop, :func:`~repro.engine.grid.run_grid`
runs a list of scenario cells inline or in an ordered process pool,
and structured
:class:`~repro.engine.events.EngineEvent` hooks feed the bench exporters
and the fleet's JSONL stream.

    spec = ScenarioSpec(workload="memcached-ycsb", policy="waterfall")
    summary, session = run_scenario(spec)
    export_events(session.events, "run_events.jsonl")
"""

from repro.engine.build import MIXES, build_system, make_policy
from repro.engine.events import (
    EVENT_KINDS,
    EngineEvent,
    EventLog,
    event_rows,
    export_events,
    window_rows,
)
from repro.engine.session import NullModel, Session, run_scenario
from repro.engine.spec import ScenarioSpec, scale_workload_kwargs

__all__ = [
    "EVENT_KINDS",
    "EngineEvent",
    "EventLog",
    "MIXES",
    "NullModel",
    "ScenarioSpec",
    "Session",
    "build_system",
    "event_rows",
    "export_events",
    "make_policy",
    "run_scenario",
    "scale_workload_kwargs",
    "window_rows",
]
