"""Tests for the adaptive control loop (repro.adaptive).

Covers the pieces in isolation -- config validation, the hysteresis
controller (including a hypothesis property that the knobs never leave
their clamp ranges under adversarial signal sequences, and one that the
MIMD preset walks alpha exactly like the original single-knob SLA
controller), the Markov
hotness forecaster against a pinned golden trajectory -- and the loop
end to end: a session whose alpha trajectory is a pure function of the
seed, the arena's adaptive row extras, and a drained-and-resumed serve
run continuing the decision trace bit-identically.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    ALPHA_METRIC,
    MIMD_CONFIG,
    STEPS_METRIC,
    AdaptiveConfig,
    AdaptiveController,
    AdaptivePolicy,
    HotnessForecaster,
)
from repro.arena import ArenaSpec, run_arena
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.obs import Observability
from repro.serve import ServeDaemon, ServeOptions
from repro.workloads.masim import MasimWorkload

ADAPTIVE_SPEC = ScenarioSpec(
    workload="diurnal-kv",
    workload_kwargs={"num_pages": 1024, "ops_per_window": 3000},
    windows=6,
    policy="adaptive",
    seed=5,
    adaptive={"target_slowdown": 0.4, "signal": "mean"},
)


class TestConfig:
    def test_roundtrip(self):
        config = AdaptiveConfig(target_slowdown=0.5, signal="mean")
        assert AdaptiveConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive keys"):
            AdaptiveConfig.from_dict({"target_slodown": 0.5})

    @pytest.mark.parametrize(
        "changes",
        [
            {"target_slowdown": -1.0},
            {"signal": "p50"},
            {"comfort_ratio": 1.5},
            {"backoff_gain": 0.0},
            {"harvest_step": 0.0},
            {"harvest_jitter": 1.0},
            {"min_alpha": 0.5, "max_alpha": 0.3},
            {"start_alpha": 0.01},
            {"demotion_percentile": 80.0},
            {"violation_windows": 0},
            {"hysteresis_windows": 0},
            {"cooldown_windows": -1},
            {"history_limit": 0},
            {"forecast_states": 1},
            {"forecast_ewma": 0.0},
            {"promote_threshold": 1.5},
            {"max_speculative": -1},
            {"backoff_gain": 1.5},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            AdaptiveConfig(**changes)

    def test_scenario_spec_normalizes_block(self):
        spec = ScenarioSpec(adaptive={"target_slowdown": 0.4})
        assert spec.adaptive["target_slowdown"] == 0.4
        assert spec.adaptive["signal"] == "p99"  # defaults filled in

    def test_scenario_spec_rejects_bad_block(self):
        with pytest.raises(ValueError, match="unknown adaptive keys"):
            ScenarioSpec(adaptive={"nope": 1})


def _reference_mimd_step(alpha, signal, target, lo, hi):
    """The original single-knob SLA controller's step, kept as oracle."""
    if signal > target:
        alpha += (1.0 - alpha) * 0.5
    elif signal < 0.8 * target:
        alpha -= 0.05
    return min(hi, max(lo, alpha))


@st.composite
def _mimd_cases(draw):
    """(alpha, lo, hi, target, signals) with boundary-hugging signals."""
    lo = draw(st.floats(min_value=0.0, max_value=1.0))
    hi = draw(st.floats(min_value=lo, max_value=1.0))
    alpha = draw(st.floats(min_value=0.0, max_value=1.0))
    target = draw(st.floats(min_value=0.0, max_value=5.0))
    signal = st.one_of(
        st.floats(min_value=-1.0, max_value=10.0, allow_nan=False),
        st.sampled_from([target, 0.8 * target, 0.0, -1e-12]),
    )
    signals = draw(st.lists(signal, min_size=1, max_size=12))
    return alpha, lo, hi, target, signals


class TestControllerProperties:
    """Satellite 5: the knobs never escape their clamp ranges."""

    @settings(max_examples=60, deadline=None)
    @given(
        signals=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_knobs_stay_in_bounds(self, signals, seed):
        config = AdaptiveConfig(
            target_slowdown=0.5,
            signal="mean",
            min_alpha=0.1,
            max_alpha=0.95,
            start_alpha=0.5,
            cooldown_windows=0,
            hysteresis_windows=1,
        )
        controller = AdaptiveController(config, seed=seed)
        for signal in signals:
            controller.observe(0.0, mean_slowdown=signal)
            assert config.min_alpha <= controller.alpha <= config.max_alpha
            assert (
                config.min_demotion_percentile
                <= controller.demotion_percentile
                <= config.max_demotion_percentile
            )

    @settings(max_examples=30, deadline=None)
    @given(
        signals=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_trace_is_deterministic_per_seed(self, signals, seed):
        def run():
            controller = AdaptiveController(
                AdaptiveConfig(target_slowdown=0.5, signal="mean"), seed=seed
            )
            for signal in signals:
                controller.observe(0.0, mean_slowdown=signal)
            return controller.decision_trace()

        assert run() == run()

    @settings(max_examples=300, deadline=None)
    @given(case=_mimd_cases())
    def test_mimd_preset_matches_reference_step(self, case):
        """The MIMD preset is the original SLA controller, step for step."""
        alpha, lo, hi, target, signals = case
        start = min(hi, max(lo, alpha))
        controller = AdaptiveController(
            MIMD_CONFIG.with_(
                target_slowdown=target,
                start_alpha=start,
                min_alpha=lo,
                max_alpha=hi,
            )
        )
        expected = start
        for signal in signals:
            controller.observe(0.0, mean_slowdown=signal)
            expected = _reference_mimd_step(expected, signal, target, lo, hi)
            assert controller.alpha == expected
            assert controller.history[-1][1] == signal
        assert controller.violations == sum(s > target for s in signals)
        assert len(controller.history) == len(signals)


class TestControllerBehaviour:
    CONFIG = AdaptiveConfig(
        target_slowdown=1.0,
        signal="mean",
        start_alpha=0.5,
        harvest_jitter=0.0,
        cooldown_windows=0,
    )

    def test_backoff_on_violation(self):
        controller = AdaptiveController(self.CONFIG, seed=0)
        assert controller.observe(0.0, mean_slowdown=5.0)
        assert controller.alpha > 0.5
        assert controller.trace[-1]["action"] == "backoff"
        assert controller.violations == 1

    def test_harvest_needs_hysteresis(self):
        controller = AdaptiveController(self.CONFIG, seed=0)
        assert not controller.observe(0.0, mean_slowdown=0.1)
        assert controller.trace[-1]["action"] == "hold"
        assert controller.observe(0.0, mean_slowdown=0.1)
        assert controller.trace[-1]["action"] == "harvest"
        assert controller.alpha < 0.5
        assert controller.demotion_percentile > 25.0

    def test_cooldown_blocks_consecutive_steps(self):
        config = self.CONFIG.with_(cooldown_windows=2)
        controller = AdaptiveController(config, seed=0)
        controller.observe(0.0, mean_slowdown=5.0)
        stepped = controller.observe(0.0, mean_slowdown=5.0)
        assert not stepped
        assert controller.trace[-1]["action"] == "cooldown"

    def test_saturated_at_min_alpha(self):
        config = self.CONFIG.with_(
            start_alpha=0.05,
            demotion_percentile=60.0,
            max_demotion_percentile=60.0,
        )
        controller = AdaptiveController(config, seed=0)
        controller.observe(0.0, mean_slowdown=0.1)
        assert not controller.observe(0.0, mean_slowdown=0.1)
        assert controller.trace[-1]["action"] == "saturated"
        assert controller.alpha == pytest.approx(0.05)

    def test_history_and_trace_ring_caps(self):
        config = self.CONFIG.with_(history_limit=8, trace_limit=5)
        controller = AdaptiveController(config, seed=0)
        for _ in range(40):
            controller.observe(0.0, mean_slowdown=5.0)
        assert len(controller.history) == 8
        assert len(controller.trace) == 5
        assert controller.violations == 40  # survives the ring buffer

    # The MIMD preset reacts to a single window: no hysteresis and no
    # cooldown between steps.
    MIMD = MIMD_CONFIG.with_(target_slowdown=0.05, start_alpha=0.5)

    @pytest.mark.parametrize(
        "signal, action",
        [(0.20, "backoff"), (0.001, "harvest"), (0.045, "hold")],
        ids=["violation", "headroom", "near-target"],
    )
    def test_mimd_single_step(self, signal, action):
        controller = AdaptiveController(self.MIMD)
        controller.observe(0.0, mean_slowdown=signal)
        assert controller.trace[-1]["action"] == action
        if action == "backoff":
            assert controller.alpha > 0.5
        elif action == "harvest":
            assert controller.alpha < 0.5
        else:  # within the 80 % comfort band
            assert controller.alpha == 0.5

    def test_mimd_clamping(self):
        controller = AdaptiveController(self.MIMD.with_(start_alpha=0.06))
        for _ in range(10):
            controller.observe(0.0, mean_slowdown=0.0)
        assert controller.alpha == pytest.approx(0.05)
        for _ in range(10):
            controller.observe(0.0, mean_slowdown=1.0)
        assert controller.alpha <= 1.0


class TestForecasterGolden:
    """Satellite 5: one pinned Markov-transition trajectory.

    Region 0 pins the peak, region 1 climbs through every state
    (teaching the 0->1->2->3 transitions), region 2 lags one window
    behind -- so by the last window the model has seen 2->hot exactly
    once and region 2 (mid-state, rising) is the one speculative
    promotion candidate.
    """

    SEQUENCE = (
        (9.0, 2.0, 0.0),
        (9.0, 4.0, 2.0),
        (9.0, 6.0, 4.0),
        (9.0, 8.0, 6.0),
    )

    def _run(self):
        forecaster = HotnessForecaster(3, num_states=4, ewma=0.5)
        for hotness in self.SEQUENCE:
            predicted = forecaster.observe(np.array(hotness))
        return forecaster, predicted

    def test_slope_and_prediction(self):
        forecaster, predicted = self._run()
        np.testing.assert_allclose(forecaster.slope, [0.0, 1.75, 1.75])
        np.testing.assert_allclose(predicted, [9.0, 9.75, 7.75])

    def test_transition_matrix(self):
        forecaster, _ = self._run()
        np.testing.assert_allclose(
            forecaster.transition_matrix(),
            [
                [1 / 3, 2 / 3, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        )

    def test_promotion_candidates(self):
        forecaster, _ = self._run()
        np.testing.assert_allclose(forecaster.hot_probability(), [1, 1, 1])
        # Region 0 is flat and region 1 already hot; only region 2 is a
        # not-yet-hot riser with enough modeled transition mass.
        np.testing.assert_array_equal(
            forecaster.promotion_candidates(0.6), [False, False, True]
        )

    def test_rejects_wrong_shape(self):
        forecaster = HotnessForecaster(3)
        with pytest.raises(ValueError):
            forecaster.observe(np.zeros(4))


class TestSLOControllerRegression:
    """The unbounded-history leak, pinned fixed on the MIMD preset."""

    MIMD = MIMD_CONFIG.with_(target_slowdown=0.05)

    def test_history_ring_capped(self):
        controller = AdaptiveController(self.MIMD.with_(history_limit=16))
        for _ in range(100):
            controller.observe(0.0, mean_slowdown=0.2)
        assert len(controller.history) == 16
        assert controller.violations == 100

    def test_checkpoint_roundtrip_keeps_counts(self):
        import pickle

        controller = AdaptiveController(self.MIMD.with_(history_limit=4))
        for _ in range(10):
            controller.observe(0.0, mean_slowdown=0.2)
        clone = pickle.loads(pickle.dumps(controller))
        assert clone.violations == 10
        assert clone.history == controller.history
        assert clone.config.history_limit == 4


class TestEndToEnd:
    def test_session_steps_and_exports_metrics(self):
        obs = Observability(metrics=True)
        session = Session(ADAPTIVE_SPEC, obs=obs)
        session.run()
        policy = session.policy
        assert isinstance(policy, AdaptivePolicy)
        assert policy.controller.steps_total > 0
        assert len(policy.decision_trace()) == ADAPTIVE_SPEC.windows
        snapshot = obs.registry.snapshot()
        assert sum(snapshot[STEPS_METRIC]["series"].values()) > 0
        assert ALPHA_METRIC in snapshot

    def test_alpha_trajectory_reproducible_from_seed(self):
        def run():
            session = Session(ADAPTIVE_SPEC, obs=Observability())
            session.run()
            return session.policy.decision_trace()

        assert run() == run()

    def test_mimd_preset_harvests_tco_within_sla(self, system):
        workload = MasimWorkload(
            num_pages=system.space.num_pages, ops_per_window=20_000, seed=3
        )
        spec = ScenarioSpec(
            policy="adaptive",
            adaptive=MIMD_CONFIG.with_(target_slowdown=0.10).to_dict(),
            windows=8,
            seed=1,
            daemon_seed=1,
        )
        session = Session(spec, workload=workload, system=system)
        summary = session.run()
        controller = session.policy.controller
        alphas = [alpha for alpha, _ in controller.history]
        # The controller explores downward from its safe start.
        assert min(alphas) < alphas[0]
        assert summary.tco_savings > 0.05
        # Violations are transient, not persistent.
        assert controller.violations < len(alphas)

    def test_forecast_off_builds_no_forecaster(self):
        spec = ADAPTIVE_SPEC.with_(
            adaptive={**ADAPTIVE_SPEC.adaptive, "forecast": False}
        )
        session = Session(spec, obs=Observability())
        session.run()
        policy = session.policy
        assert policy.forecaster is None
        assert policy.speculative_promotions == 0
        assert policy.extra_demotions == 0
        # The default (forecast on) run does build one.
        session = Session(ADAPTIVE_SPEC, obs=Observability())
        session.run()
        assert session.policy.forecaster is not None

    def test_spec_alpha_seeds_start_alpha(self):
        spec = ScenarioSpec(
            workload="diurnal-kv",
            workload_kwargs={"num_pages": 256, "ops_per_window": 500},
            windows=1,
            policy="adaptive",
            alpha=0.4,
            seed=5,
        )
        session = Session(spec, obs=Observability())
        assert session.policy.controller.alpha == pytest.approx(0.4)

    def test_arena_adaptive_row_extras(self):
        spec = ArenaSpec(
            policies=("adaptive", "am"),
            workloads=("diurnal-kv",),
            alphas=(0.5,),
            windows=3,
            scale=1.0,
            seed=11,
            target_slowdown=0.5,
            workload_kwargs={"num_pages": 1024, "ops_per_window": 2000},
        )
        arena = run_arena(spec)
        assert arena.all_ok
        rows = {c.policy: c.row for c in arena.cells}
        adaptive = rows["adaptive"]
        assert adaptive["alpha_trace"] == [
            round(a, 9) for a in adaptive["alpha_trace"]
        ]
        assert len(adaptive["alpha_trace"]) == 3
        assert adaptive["alpha_final"] == adaptive["alpha_trace"][-1]
        # Every cell gets the SLA verdict, static alphas included.
        for row in rows.values():
            assert 0 <= row["sla_violations"] <= 3

    def test_arena_without_budget_has_no_sla_column(self):
        spec = ArenaSpec(
            policies=("am",),
            workloads=("pingpong",),
            alphas=(0.5,),
            windows=1,
            scale=1.0,
            seed=11,
            workload_kwargs={"num_pages": 512, "ops_per_window": 500},
        )
        arena = run_arena(spec)
        assert "sla_violations" not in arena.cells[0].row


class TestServeResume:
    def test_resume_continues_alpha_trajectory_bit_identically(
        self, tmp_path
    ):
        """Satellite 5: drain at window 2, resume to 6 -- the decision
        trace must equal one uninterrupted run's, float for float."""
        batch = Session(ADAPTIVE_SPEC, obs=Observability())
        batch.run()
        reference = batch.policy.decision_trace()

        ckpt = tmp_path / "mid.ckpt"
        first = ServeDaemon(
            ADAPTIVE_SPEC,
            ServeOptions(
                virtual_clock=True, http=False, max_windows=2, checkpoint=ckpt
            ),
        )
        asyncio.run(first.run())
        resumed = ServeDaemon.from_checkpoint(
            ckpt,
            ServeOptions(
                virtual_clock=True,
                http=False,
                max_windows=ADAPTIVE_SPEC.windows,
            ),
        )
        assert resumed.windows_done == 2
        asyncio.run(resumed.run())
        assert resumed.session.policy.decision_trace() == reference

    def test_status_reports_live_alpha(self):
        daemon = ServeDaemon(
            ADAPTIVE_SPEC,
            ServeOptions(virtual_clock=True, http=False, max_windows=2),
        )
        asyncio.run(daemon.run())
        adaptive = daemon.status()["adaptive"]
        assert adaptive is not None
        assert 0.0 < adaptive["alpha"] <= 1.0
        assert adaptive["steps"] >= 0
        assert "demotion_percentile" in adaptive
        assert "headroom" in adaptive
