"""Adaptive control loop: online alpha tuning + predictive hotness.

The paper exposes alpha as a static knob the operator picks per
workload (§6.3); this package closes the loop.  Three pieces:

* :class:`~repro.adaptive.controller.AdaptiveController` -- the
  windowed multi-knob MIMD controller (alpha + waterfall demotion
  percentile) driven by obs-sourced signals, with hysteresis, cooldown
  and a seeded deterministic decision trace; its
  :data:`~repro.adaptive.controller.MIMD_CONFIG` preset is the plain
  SLA auto-tuning walk;
* :class:`~repro.adaptive.forecast.HotnessForecaster` -- EWMA-slope +
  per-region Markov transitions over discretized hotness states,
  vectorized over the SoA region columns, predicting which regions
  turn hot one window ahead;
* :class:`~repro.adaptive.policy.AdaptivePolicy` -- the registry
  backend (``policy = "adaptive"``) combining both around the paper's
  analytical model, end-to-end through run / fleet / serve / chaos /
  arena.

Operator guide: docs/TUNING.md.  Architecture: DESIGN.md §15.
"""

from repro.adaptive.controller import (
    MIMD_CONFIG,
    AdaptiveConfig,
    AdaptiveController,
)
from repro.adaptive.forecast import HotnessForecaster
from repro.adaptive.policy import (
    ALPHA_METRIC,
    DEMOTION_METRIC,
    SPECULATIVE_METRIC,
    STEPS_METRIC,
    AdaptivePolicy,
)

__all__ = [
    "ALPHA_METRIC",
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptivePolicy",
    "DEMOTION_METRIC",
    "HotnessForecaster",
    "MIMD_CONFIG",
    "SPECULATIVE_METRIC",
    "STEPS_METRIC",
]
