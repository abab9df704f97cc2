"""Integration contracts for repro.chaos: replay, resume, fleet parity.

These tests pin the acceptance criteria of the chaos subsystem:

* the shipped ``examples/scenario_chaos.json`` runs, injects several
  fault kinds, recovers, and replays identically (volatile wall-clock
  fields aside, per the repo's determinism doctrine in
  ``tests/_goldens.py``);
* a session restored from a checkpoint finishes with the same records
  and events as the uninterrupted run;
* a fleet with a chaos plan is ``jobs``-independent, and a node that
  crashes and resumes merges to the same rollup as one that never
  crashed.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import capture_session, restore_session
from repro.engine import ScenarioSpec, Session, event_rows
from repro.fleet import ChaosOptions, FleetRunner
from repro.obs import Observability
from repro.obs.report import run_totals
from tests._goldens import VOLATILE_KEYS

EXAMPLE = Path(__file__).parent.parent / "examples" / "scenario_chaos.json"

CHAOS_MASIM = dict(
    workload="masim",
    workload_kwargs={"num_pages": 1024, "ops_per_window": 10_000},
    windows=8,
    seed=0,
    faults={
        "seed": 11,
        "max_retries": 2,
        "recover_windows": 2,
        "events": [
            {"kind": "solver_timeout", "window": 1, "attempts": 1},
            {"kind": "solver_crash", "window": 3},
            {"kind": "migration_partial", "window": 2, "magnitude": 0.5},
            {"kind": "telemetry_dropout", "window": 5},
            {"kind": "capacity_shock", "window": 4, "duration": 2,
             "magnitude": 0.5},
        ],
    },
)

FLEET_PLAN = {
    "seed": 3,
    "events": [
        {"kind": "solver_timeout", "window": 1, "attempts": 1},
        {"kind": "migration_partial", "window": 2, "magnitude": 0.5},
        {"kind": "node_crash", "window": 3, "node": 1},
    ],
}


def _stable_rows(events) -> str:
    """Event rows as canonical JSON, volatile wall-clock keys zeroed."""
    rows = [
        {k: (0.0 if k in VOLATILE_KEYS else v) for k, v in row.items()}
        for row in event_rows(events)
    ]
    return json.dumps(rows, sort_keys=True)


class TestExampleScenario:
    def test_example_runs_and_recovers(self):
        spec = ScenarioSpec.load(EXAMPLE)
        assert len(spec.fault_plan().kinds()) >= 3
        session = Session(spec)
        summary = session.run()
        assert summary.windows == spec.windows
        counts = session.injector.counts
        # Every scheduled kind actually fired...
        for kind in spec.fault_plan().kinds():
            assert counts.get(kind, 0) >= 1, f"{kind} never injected"
        # ...and the resilience machinery recovered.
        assert counts.get("recovered", 0) >= 1
        assert session.daemon.engine.stats.rollbacks >= 1

    def test_example_replays_identically(self):
        spec = ScenarioSpec.load(EXAMPLE)
        streams = []
        for _ in range(2):
            session = Session(spec)
            session.run()
            streams.append(_stable_rows(session.events))
        assert streams[0] == streams[1]

    def test_report_totals_count_recovery_events(self):
        spec = ScenarioSpec.load(EXAMPLE)
        session = Session(spec)
        session.run()
        totals = run_totals(event_rows(session.events))
        assert totals["faults_injected"] >= 3
        assert totals["recoveries"] >= 1
        assert len(totals["faults_by_kind"]) >= 3


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self):
        spec = ScenarioSpec(**CHAOS_MASIM)

        full = Session(spec)
        full.run()

        partial = Session(spec)
        for _ in range(3):
            partial.run_window()
        blob = capture_session(partial)
        # Simulate the crash: run the original two windows further (work
        # that will be discarded), then resume from the checkpoint.
        partial.run_window()
        partial.run_window()
        resumed, rows, done = restore_session(blob)
        assert done == 3 and rows == []
        for _ in range(spec.windows - done):
            resumed.run_window()
        resumed.log.close()

        # The resumed log holds exactly the post-checkpoint windows.
        assert _stable_rows(resumed.events) == _stable_rows(
            [e for e in full.events if e.window >= done]
        )
        def record_key(records):
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

        assert record_key(resumed.records) == record_key(full.records)
        resumed_summary = {
            k: (0.0 if k in VOLATILE_KEYS else v)
            for k, v in resumed.summary().row().items()
        }
        full_summary = {
            k: (0.0 if k in VOLATILE_KEYS else v)
            for k, v in full.summary().row().items()
        }
        assert resumed_summary == full_summary

    @pytest.mark.parametrize("capture_at", [1, 4, 7])
    def test_resume_from_v3_blobs_at_several_windows(self, capture_at):
        spec = ScenarioSpec(**CHAOS_MASIM)
        full = Session(spec)
        full.run()

        partial = Session(spec)
        for _ in range(capture_at):
            partial.run_window()
        resumed, _rows, done = restore_session(capture_session(partial))
        assert done == capture_at
        for _ in range(spec.windows - done):
            resumed.run_window()
        resumed.log.close()
        assert _record_key(resumed.records) == _record_key(full.records)
        assert _stable_rows(resumed.events) == _stable_rows(
            [e for e in full.events if e.window >= done]
        )

    def test_checkpoint_carries_metrics_snapshot(self):
        spec = ScenarioSpec(**CHAOS_MASIM)
        session = Session(spec, obs=Observability(metrics=True))
        for _ in range(4):
            session.run_window()
        blob = capture_session(session)
        resumed, _, _ = restore_session(blob, obs=Observability(metrics=True))
        before = session.obs.registry.snapshot(include_volatile=False)
        after = resumed.obs.registry.snapshot(include_volatile=False)
        assert after == before
        # The original session's obs wiring survived the capture.
        assert session.policy.obs is session.obs

    def test_version_mismatch_rejected(self):
        import pickle

        blob = pickle.dumps({"version": 999})
        with pytest.raises(ValueError, match="bad magic"):
            restore_session(blob)


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


def _fleet(plan, jobs=1, **kwargs):
    return FleetRunner(
        nodes=3,
        profile="micro",
        windows=6,
        jobs=jobs,
        chaos=ChaosOptions(plan=plan) if plan is not None else None,
        **kwargs,
    ).run()


def _fleet_key(result):
    rows = [
        [
            {k: (0.0 if k in VOLATILE_KEYS else v) for k, v in row.items()}
            for row in node.window_rows
        ]
        for node in result.nodes
    ]
    summaries = [
        {k: (0.0 if k in VOLATILE_KEYS else v) for k, v in s.row().items()}
        for s in result.summaries
    ]
    return json.dumps({"rows": rows, "summaries": summaries}, sort_keys=True)


class TestFleetChaos:
    def test_jobs_independence_with_chaos(self):
        serial = _fleet(FLEET_PLAN, jobs=1)
        parallel = _fleet(FLEET_PLAN, jobs=2)
        assert _fleet_key(serial) == _fleet_key(parallel)
        assert serial.resumes == parallel.resumes == 1

    def test_crash_resume_matches_uninterrupted(self):
        no_crash_plan = {
            "seed": FLEET_PLAN["seed"],
            "events": [
                e for e in FLEET_PLAN["events"] if e["kind"] != "node_crash"
            ],
        }
        crashed = _fleet(FLEET_PLAN)
        smooth = _fleet(no_crash_plan)
        assert _fleet_key(crashed) == _fleet_key(smooth)
        assert crashed.resumes == 1 and smooth.resumes == 0
        assert crashed.chaos_counts["node_resumed"] == 1

    @pytest.mark.parametrize(
        "crash_window,every", [(1, 1), (3, 2), (5, 2), (5, 4)]
    )
    def test_crash_resume_from_v3_blobs(self, crash_window, every):
        def run(crash):
            events = [{"kind": "migration_partial", "window": 2, "magnitude": 0.5}]
            if crash:
                events.append(
                    {"kind": "node_crash", "window": crash_window, "node": 1}
                )
            chaos = ChaosOptions(
                plan={"seed": 3, "events": events}, checkpoint_every=every
            )
            return FleetRunner(
                nodes=3, profile="micro", windows=6, chaos=chaos
            ).run()

        crashed = run(True)
        smooth = run(False)
        assert _fleet_key(crashed) == _fleet_key(smooth)
        assert crashed.resumes == 1 and smooth.resumes == 0

    def test_chaos_off_by_default(self):
        result = _fleet(None)
        assert result.chaos_counts == {}
        assert result.resumes == 0
        assert all(n.chaos_counts == {} for n in result.nodes)

    def test_checkpoint_dir_persists_blobs(self, tmp_path):
        result = FleetRunner(
            nodes=2,
            profile="micro",
            windows=4,
            chaos=ChaosOptions(
                plan=FLEET_PLAN,
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
            ),
        ).run()
        assert result.summaries
        blobs = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert blobs == ["node-000.ckpt", "node-001.ckpt"]

    def test_node_pinned_fault_only_hits_that_node(self):
        result = _fleet(FLEET_PLAN)
        crashed_node = result.nodes[1]
        untouched = result.nodes[0]
        assert crashed_node.resumes == 1
        assert untouched.resumes == 0
