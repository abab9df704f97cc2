"""Windowed multi-knob controller: the repo's one alpha feedback loop.

The paper's alpha knob (§6.3) trades TCO for performance but leaves
choosing it to the operator.  :class:`AdaptiveController` closes that
loop.  Its simplest form is a damped MIMD walk on one knob (alpha) from
one signal (mean slowdown): back off sharply toward 1.0 on an SLA
violation, harvest gently toward 0.0 under headroom.  That walk is the
:data:`MIMD_CONFIG` preset, which SLA auto-tuning (``exp_sla``) and the
fleet scheduler's rebalance step run.  The full controller, the one the
serving stack runs, adds:

* **two knobs** -- alpha (the paper's TCO-vs-performance dial) and the
  waterfall demotion percentile (how much of the cold tail the policy
  pushes a tier colder each window) walk *together*: a backoff protects
  the SLA on both axes, a harvest leans on both;
* **obs-sourced signals** -- the p99 slowdown read off the window's
  latency histogram (``WindowRecord.p99_latency_ns``) and the modeled
  $/GB-hour savings rate from :mod:`repro.core.dollars`;
* **hysteresis** -- a backoff fires after ``violation_windows``
  consecutive SLA violations, a harvest only after
  ``hysteresis_windows`` consecutive comfortable windows, and every
  step is followed by ``cooldown_windows`` of mandatory hold, so the
  controller cannot thrash the knob faster than the system can show
  the effect of the last move;
* **a seeded, deterministic decision trace** -- every window appends a
  JSON-safe entry (window, signals, action, knob values) to
  :attr:`AdaptiveController.trace`; harvest steps are jittered from a
  ``numpy`` generator seeded at construction, so the full alpha
  trajectory is a pure function of ``(config, seed, signal sequence)``
  and a resumed run replays it bit-identically.

The controller is transport-free: it never touches the system or obs
directly.  :class:`~repro.adaptive.policy.AdaptivePolicy` feeds it each
window and installs the resulting knobs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

#: Signals :attr:`AdaptiveConfig.signal` may select.
SIGNALS = ("p99", "mean")

#: Decision-trace actions.
ACTIONS = ("backoff", "harvest", "hold", "cooldown", "saturated")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Every knob of the adaptive loop, serializable to a plain dict.

    Attributes:
        target_slowdown: SLA budget on the selected signal (fractional
            slowdown vs all-DRAM; e.g. 3.0 allows a 4x p99).
        signal: ``"p99"`` (tail latency, the serving SLA) or ``"mean"``
            (throughput-weighted, the batch SLA).
        comfort_ratio: A window is *comfortable* (eligible to count
            toward a harvest) when its signal is below
            ``comfort_ratio * target_slowdown``.
        backoff_gain: Multiplicative alpha step toward 1.0 on backoff.
        harvest_step: Additive alpha step toward 0.0 on harvest.
        harvest_jitter: Fractional jitter on each harvest step, drawn
            from the seeded generator (0 disables; 0.25 means steps
            span ``[0.75, 1.25] * harvest_step``).  Deterministic per
            seed; decorrelates fleets that share a config.
        min_alpha / max_alpha: Clamp range for alpha.
        start_alpha: Initial alpha (performance-safe by default).
        demotion_percentile: Initial waterfall demotion percentile (the
            cold-tail fraction pushed one tier colder each window).
        demotion_step: Additive percentile step per harvest/backoff.
        min_demotion_percentile / max_demotion_percentile: Clamp range.
        violation_windows: Consecutive violating windows before a
            backoff fires (1 = react to the first violation).
        hysteresis_windows: Consecutive comfortable windows before a
            harvest fires.
        cooldown_windows: Mandatory hold windows after any step.
        history_limit: Ring-buffer cap on the observation history (long
            serve runs observe once per window forever, and every drain
            checkpoint carries the history).
        trace_limit: Ring-buffer cap on the decision trace.
        forecast: Enable the predictive hotness forecaster.
        forecast_states: Markov states the forecaster discretizes
            region hotness into.
        forecast_ewma: EWMA weight of the newest hotness delta in the
            forecaster's slope estimate.
        promote_threshold: Minimum modeled hot-transition probability
            for a speculative promotion.
        max_speculative: Cap on speculative promotions per window.
    """

    target_slowdown: float = 3.0
    signal: str = "p99"
    comfort_ratio: float = 0.7
    backoff_gain: float = 0.3
    harvest_step: float = 0.05
    harvest_jitter: float = 0.25
    min_alpha: float = 0.05
    max_alpha: float = 1.0
    start_alpha: float = 0.9
    demotion_percentile: float = 25.0
    demotion_step: float = 5.0
    min_demotion_percentile: float = 5.0
    max_demotion_percentile: float = 60.0
    violation_windows: int = 1
    hysteresis_windows: int = 2
    cooldown_windows: int = 1
    history_limit: int = 512
    trace_limit: int = 1024
    forecast: bool = True
    forecast_states: int = 6
    forecast_ewma: float = 0.4
    promote_threshold: float = 0.6
    max_speculative: int = 64

    def __post_init__(self) -> None:
        if self.target_slowdown < 0:
            raise ValueError("target_slowdown must be >= 0")
        if self.signal not in SIGNALS:
            raise ValueError(
                f"unknown signal {self.signal!r}; available: {SIGNALS}"
            )
        if not 0.0 < self.comfort_ratio < 1.0:
            raise ValueError("comfort_ratio must be in (0, 1)")
        if not 0.0 < self.backoff_gain < 1.0:
            raise ValueError("backoff_gain must be in (0, 1)")
        if self.harvest_step <= 0:
            raise ValueError("harvest_step must be > 0")
        if not 0.0 <= self.harvest_jitter < 1.0:
            raise ValueError("harvest_jitter must be in [0, 1)")
        if not 0.0 <= self.min_alpha <= self.max_alpha <= 1.0:
            raise ValueError("need 0 <= min_alpha <= max_alpha <= 1")
        if not self.min_alpha <= self.start_alpha <= self.max_alpha:
            raise ValueError("start_alpha must lie in [min_alpha, max_alpha]")
        if not (
            0.0
            <= self.min_demotion_percentile
            <= self.demotion_percentile
            <= self.max_demotion_percentile
            <= 100.0
        ):
            raise ValueError(
                "need 0 <= min_demotion_percentile <= demotion_percentile "
                "<= max_demotion_percentile <= 100"
            )
        if self.demotion_step <= 0:
            raise ValueError("demotion_step must be > 0")
        if self.violation_windows < 1:
            raise ValueError("violation_windows must be >= 1")
        if self.hysteresis_windows < 1:
            raise ValueError("hysteresis_windows must be >= 1")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be >= 0")
        if self.history_limit < 1 or self.trace_limit < 1:
            raise ValueError("history_limit and trace_limit must be >= 1")
        if self.forecast_states < 2:
            raise ValueError("forecast_states must be >= 2")
        if not 0.0 < self.forecast_ewma <= 1.0:
            raise ValueError("forecast_ewma must be in (0, 1]")
        if not 0.0 <= self.promote_threshold <= 1.0:
            raise ValueError("promote_threshold must be in [0, 1]")
        if self.max_speculative < 0:
            raise ValueError("max_speculative must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown adaptive keys: {sorted(unknown)}")
        return cls(**data)

    def with_(self, **changes) -> "AdaptiveConfig":
        return replace(self, **changes)


#: The single-knob MIMD walk: react to every window on the mean
#: slowdown, back off alpha halfway to 1.0 on a violation, harvest a
#: fixed 0.05 below 80 % of the target, never hold for cooldown.  The
#: demotion percentile still walks, but only the forecaster consumes it,
#: and the preset leaves the forecaster off.
MIMD_CONFIG = AdaptiveConfig(
    signal="mean",
    comfort_ratio=0.8,
    backoff_gain=0.5,
    harvest_step=0.05,
    harvest_jitter=0.0,
    min_alpha=0.05,
    start_alpha=0.9,
    violation_windows=1,
    hysteresis_windows=1,
    cooldown_windows=0,
    history_limit=256,
    forecast=False,
)


class AdaptiveController:
    """Walk alpha and the demotion percentile from per-window signals.

    Args:
        config: The loop's knobs; ``None`` uses the defaults.
        seed: Seed for the harvest-jitter generator.  The full decision
            trace is deterministic given ``(config, seed)`` and the
            observed signal sequence.
    """

    def __init__(
        self, config: AdaptiveConfig | None = None, seed: int = 0
    ) -> None:
        self.config = config or AdaptiveConfig()
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.alpha = self.config.start_alpha
        self.demotion_percentile = self.config.demotion_percentile
        self.window = 0
        self.steps_total = 0
        self.backoffs = 0
        self.harvests = 0
        self.violations_total = 0
        self._violation_streak = 0
        self._comfort_streak = 0
        self._cooldown = 0
        #: Ring-capped ``(alpha, signal)`` observations, newest last.
        self.history: list[tuple[float, float]] = []
        #: Ring-capped JSON-safe decision trace, newest last.
        self.trace: list[dict] = []

    # -- signals -------------------------------------------------------------

    @property
    def violations(self) -> int:
        """Windows whose signal exceeded the target (all-time count;
        survives the history ring buffer)."""
        return self.violations_total

    @property
    def headroom(self) -> float:
        """Slack under the SLA at the last observation (negative when
        violating)."""
        if not self.history:
            return self.config.target_slowdown
        return self.config.target_slowdown - self.history[-1][1]

    # -- the control step ----------------------------------------------------

    def observe(
        self,
        p99_slowdown: float,
        mean_slowdown: float = 0.0,
        savings_rate: float = 0.0,
    ) -> bool:
        """Fold one window's signals into the knobs.

        Args:
            p99_slowdown: Fractional p99 slowdown vs all-DRAM (>= 0).
            mean_slowdown: Fractional mean slowdown vs all-DRAM.
            savings_rate: Modeled $/GB-hour savings this window
                (recorded in the trace; the dollar side of the trade).

        Returns:
            Whether a knob actually moved this window.
        """
        cfg = self.config
        signal = p99_slowdown if cfg.signal == "p99" else mean_slowdown
        signal = float(signal)
        self.history.append((self.alpha, signal))
        if len(self.history) > cfg.history_limit:
            del self.history[: len(self.history) - cfg.history_limit]

        violating = signal > cfg.target_slowdown
        comfortable = signal < cfg.comfort_ratio * cfg.target_slowdown
        if violating:
            self.violations_total += 1
            self._violation_streak += 1
            self._comfort_streak = 0
        else:
            self._violation_streak = 0
            self._comfort_streak = (
                self._comfort_streak + 1 if comfortable else 0
            )

        action = "hold"
        stepped = False
        if self._cooldown > 0:
            # Holding after a step: streaks keep accumulating, but no
            # knob moves until the last move's effect is observable.
            self._cooldown -= 1
            action = "cooldown"
        elif self._violation_streak >= cfg.violation_windows:
            stepped = self._backoff()
            action = "backoff" if stepped else "saturated"
        elif self._comfort_streak >= cfg.hysteresis_windows:
            stepped = self._harvest()
            action = "harvest" if stepped else "saturated"

        self.trace.append(
            {
                "window": self.window,
                "action": action,
                "alpha": round(self.alpha, 9),
                "demotion_percentile": round(self.demotion_percentile, 6),
                "p99_slowdown": round(float(p99_slowdown), 9),
                "mean_slowdown": round(float(mean_slowdown), 9),
                "savings_gb_hour": round(float(savings_rate), 12),
                "violating": bool(violating),
            }
        )
        if len(self.trace) > cfg.trace_limit:
            del self.trace[: len(self.trace) - cfg.trace_limit]
        self.window += 1
        return stepped

    def _backoff(self) -> bool:
        """SLA violated: jump alpha toward 1.0, demote less."""
        cfg = self.config
        alpha = min(
            cfg.max_alpha, self.alpha + (1.0 - self.alpha) * cfg.backoff_gain
        )
        demotion = max(
            cfg.min_demotion_percentile,
            self.demotion_percentile - cfg.demotion_step,
        )
        moved = alpha != self.alpha or demotion != self.demotion_percentile
        self.alpha, self.demotion_percentile = alpha, demotion
        self._violation_streak = 0
        self._comfort_streak = 0
        if moved:
            self._cooldown = cfg.cooldown_windows
            self.steps_total += 1
            self.backoffs += 1
        return moved

    def _harvest(self) -> bool:
        """Comfortable: lean alpha toward 0.0, demote more.

        The jitter draw happens on every harvest attempt (even a
        saturated one), so the RNG stream position depends only on how
        many harvests were *attempted* -- resumable and replayable.
        """
        cfg = self.config
        step = cfg.harvest_step
        if cfg.harvest_jitter:
            step *= 1.0 + cfg.harvest_jitter * (
                2.0 * self._rng.random() - 1.0
            )
        alpha = max(cfg.min_alpha, self.alpha - step)
        demotion = min(
            cfg.max_demotion_percentile,
            self.demotion_percentile + cfg.demotion_step,
        )
        moved = alpha != self.alpha or demotion != self.demotion_percentile
        self.alpha, self.demotion_percentile = alpha, demotion
        self._comfort_streak = 0
        if moved:
            self._cooldown = cfg.cooldown_windows
            self.steps_total += 1
            self.harvests += 1
        return moved

    # -- introspection -------------------------------------------------------

    def decision_trace(self) -> list[dict]:
        """The (ring-capped) decision trace, oldest first, JSON-safe."""
        return [dict(entry) for entry in self.trace]

    def alpha_trajectory(self) -> list[float]:
        """Alpha after each traced window, oldest first."""
        return [entry["alpha"] for entry in self.trace]
