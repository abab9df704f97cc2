"""The engine layer: ScenarioSpec round-trips, validation, Session events.

Covers the declarative seam end to end: property-based dict/JSON
round-trips, the TOML path (3.11+ only), eager rejection of unknown
names, the session's structured event stream, and the CLI's
scenario-file entry point (exit 0 on success, exit 2 on any bad spec,
matching the fleet CLI's convention).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.daemon import TSDaemon
from repro.engine import (
    EVENT_KINDS,
    MIXES,
    ScenarioSpec,
    Session,
    run_scenario,
    scale_workload_kwargs,
)
from repro.engine.spec import HAS_TOML
from repro.mem.page import PAGES_PER_REGION
from repro.policies import policy_names
from repro.telemetry import PROFILER_KINDS, IdleBitProfiler
from repro.workloads.registry import WORKLOADS

#: A small, fast scenario most Session tests share.
FAST = dict(
    workload="masim",
    workload_kwargs={"num_pages": 2 * PAGES_PER_REGION, "ops_per_window": 2000},
    windows=3,
    policy="waterfall",
)


def spec_strategy():
    """Valid ScenarioSpecs across the whole name/knob space."""
    policies = st.sampled_from(policy_names())
    return policies.flatmap(
        lambda policy: st.builds(
            ScenarioSpec,
            name=st.sampled_from(["", "demo", "node-3"]),
            workload=st.sampled_from(sorted(WORKLOADS)),
            workload_kwargs=st.sampled_from([{}, {"num_pages": 4096}]),
            scale=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
            mix=st.sampled_from(sorted(MIXES)),
            policy=st.just(policy),
            percentile=st.sampled_from([25.0, 50.0, 75.0]),
            # 'am' requires an explicit alpha; others may omit it.
            alpha=(
                st.sampled_from([0.1, 0.5, 0.9])
                if policy == "am"
                else st.sampled_from([None, 0.5])
            ),
            telemetry=st.sampled_from(PROFILER_KINDS),
            sampling_rate=st.integers(min_value=1, max_value=10**6),
            cooling=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            windows=st.integers(min_value=1, max_value=64),
            seed=st.integers(min_value=0, max_value=2**31),
            prefetch_degree=st.sampled_from([None, 4]),
            daemon_seed=st.sampled_from([None, 7]),
        )
    )


class TestScenarioSpecRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=spec_strategy())
    def test_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(spec=spec_strategy())
    def test_json_round_trip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.skipif(not HAS_TOML, reason="tomllib needs Python 3.11+")
    @settings(max_examples=30, deadline=None)
    @given(spec=spec_strategy())
    def test_toml_round_trip(self, spec):
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_save_load_both_formats(self, tmp_path):
        spec = ScenarioSpec(name="rt", policy="gswap", windows=4)
        loaded = ScenarioSpec.load(spec.save(tmp_path / "s.json"))
        assert loaded == spec
        if HAS_TOML:
            assert ScenarioSpec.load(spec.save(tmp_path / "s.toml")) == spec

    def test_with_revalidates(self):
        spec = ScenarioSpec()
        assert spec.with_(windows=5).windows == 5
        with pytest.raises(ValueError, match="unknown policy"):
            spec.with_(policy="bogus")


class TestScenarioSpecValidation:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("workload", "hadoop", "unknown workload"),
            ("mix", "exotic", "unknown mix"),
            ("policy", "numa-balancing", "unknown policy"),
            ("telemetry", "ebpf", "unknown telemetry"),
            ("windows", 0, "windows must be >= 1"),
            ("scale", 0.0, "scale must be > 0"),
            ("sampling_rate", 0, "sampling_rate must be >= 1"),
            ("cooling", 1.5, r"cooling must be in \[0, 1\]"),
            ("solver_backend", "highs", "unknown solver backend 'highs'; available: auto"),
        ],
    )
    def test_bad_field_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(**{field: value})

    def test_am_requires_alpha(self):
        with pytest.raises(ValueError, match="requires an alpha"):
            ScenarioSpec(policy="am")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"polcy": "am-tco"})

    def test_daemon_seed_resolution(self):
        assert ScenarioSpec(seed=9).resolved_daemon_seed() == 10
        assert ScenarioSpec(seed=9, daemon_seed=3).resolved_daemon_seed() == 3

    def test_scale_keeps_regions_aligned(self):
        scaled = scale_workload_kwargs({"num_pages": 4 * PAGES_PER_REGION}, 0.6)
        assert scaled["num_pages"] % PAGES_PER_REGION == 0
        assert scaled["num_pages"] >= PAGES_PER_REGION


class TestDaemonValidation:
    def test_daemon_rejects_bad_sampling_rate(self):
        session = Session(ScenarioSpec(**FAST))
        with pytest.raises(ValueError, match="sampling_rate"):
            TSDaemon(session.system, session.policy, sampling_rate=0)

    def test_daemon_rejects_bad_cooling(self):
        session = Session(ScenarioSpec(**FAST))
        with pytest.raises(ValueError, match="cooling"):
            TSDaemon(session.system, session.policy, cooling=-0.1)


class TestSessionEvents:
    def test_event_stream_structure(self):
        summary, session = run_scenario(ScenarioSpec(**FAST))
        kinds = [e.kind for e in session.events]
        assert all(k in EVENT_KINDS for k in kinds)
        assert kinds.count("window_start") == FAST["windows"]
        assert kinds.count("window_end") == FAST["windows"]
        # Every window_end carries the exporter row fields.
        ends = [e for e in session.events if e.kind == "window_end"]
        assert [e.window for e in ends] == list(range(FAST["windows"]))
        for event in ends:
            assert set(event.data) == {
                "tco_savings_pct",
                "slowdown_proxy_ns",
                "faults",
                "migration_ms",
                "solver_ms",
            }
        assert summary.policy == "Waterfall"

    def test_migration_events_track_daemon_stats(self):
        _, session = run_scenario(ScenarioSpec(**FAST))
        moved = sum(
            e.data["pages_moved"]
            for e in session.events
            if e.kind == "migration"
        )
        assert moved == session.daemon.engine.stats.pages_moved > 0

    def test_hooks_see_every_event(self):
        seen = []
        session = Session(ScenarioSpec(**FAST), hooks=(seen.append,))
        session.run()
        assert seen and seen == session.events

    def test_deterministic_across_sessions(self):
        spec = ScenarioSpec(**FAST)
        a, _ = run_scenario(spec)
        b, _ = run_scenario(spec)
        assert a.slowdown == b.slowdown
        assert a.tco_savings == b.tco_savings

    def test_fault_burst_mean_is_trailing_not_all_time(self):
        """A late burst must be judged against the *trailing* window.

        The all-time mean bug: a long busy prefix inflated the mean
        forever, so a burst after things went quiet never fired.
        """
        from repro.engine.session import FAULT_BURST_WINDOW

        session = Session(ScenarioSpec(**FAST))
        window = 0
        for _ in range(50):  # long busy prefix
            session._check_fault_burst(window, 500)
            window += 1
        for _ in range(FAULT_BURST_WINDOW):  # system goes quiet
            session._check_fault_burst(window, 0)
            window += 1
        session._check_fault_burst(window, 100)  # late burst
        bursts = [e for e in session.events if e.kind == "fault_burst"]
        assert bursts, "late burst suppressed by pre-window history"
        last = bursts[-1]
        assert last.data["faults"] == 100
        assert last.data["trailing_mean"] == 0.0  # mean of the quiet window
        assert len(session._fault_history) <= FAULT_BURST_WINDOW

    def test_spec_threads_fast_same_algo_migration(self):
        on = Session(ScenarioSpec(**FAST, fast_same_algo_migration=True))
        off = Session(ScenarioSpec(**FAST))
        assert on.system.fast_same_algo_migration is True
        assert off.system.fast_same_algo_migration is False

    def test_spec_threads_telemetry_and_prefetch(self):
        spec = ScenarioSpec(**FAST, telemetry="idlebit", prefetch_degree=4)
        session = Session(spec)
        session.run()
        assert isinstance(session.daemon.profiler, IdleBitProfiler)
        assert session.daemon.prefetcher is not None


class TestScenarioCLI:
    def _write(self, tmp_path, **overrides):
        data = {**FAST, **overrides}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_scenario_file(self, tmp_path, capsys):
        assert main(["run", self._write(tmp_path, name="cli-demo")]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out and "per-window events" in out

    def test_run_scenario_with_export(self, tmp_path, capsys):
        out_file = tmp_path / "events.jsonl"
        code = main(["run", self._write(tmp_path), "--out", str(out_file)])
        assert code == 0
        lines = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert lines[0]["event"] == "window_start"

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        code = main(["run", self._write(tmp_path, policy="bogus")])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_missing_scenario_file_exits_2(self, capsys):
        assert main(["run", "no/such/scenario.json"]) == 2
        assert "not found" in capsys.readouterr().err
