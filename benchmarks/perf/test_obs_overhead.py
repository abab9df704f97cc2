"""Observability overhead gate (CI bench-gate job).

The obs instrumentation must be effectively free when disabled: with the
default (disabled) bundle, fig08 windows/s may regress < 3 % relative to
a fully-enabled run measured back to back.  ``bench_obs_overhead``
interleaves the two configurations and reports best-of rates, which
strips most scheduler noise; the gate still leaves slack because shared
CI runners jitter a few percent on their own.

Run with ``pytest benchmarks/perf -q`` (not collected by tier-1
``testpaths``).
"""

import time

from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.obs import Observability

#: ISSUE gate: < 3 % windows/s regression with obs disabled.  The
#: measured quantity (enabled vs disabled) upper-bounds the disabled-hook
#: cost, and CI noise can push a truly-zero overhead to a few percent,
#: so the smoke assertion allows the full gate budget plus noise slack.
GATE_PCT = 3.0
NOISE_SLACK_PCT = 5.0


def bench_obs_overhead(
    windows: int = 8, seed: int = 0, repeat: int = 5
) -> dict:
    """Observability overhead on fig08 windows/s.

    Times the Figure 8 scenario twice per attempt, interleaved to share
    thermal/scheduler conditions: once on the default *disabled* obs
    path (null metrics, null spans) and once with metrics + tracing
    fully enabled.  Best-of-``repeat`` rates for both; the reported
    ``overhead_pct`` is the enabled-vs-disabled slowdown, which upper-
    bounds the cost of the disabled instrumentation hooks themselves.
    """

    def _run_once(obs) -> float:
        spec = ScenarioSpec(policy="waterfall", windows=windows, seed=seed)
        session = Session(spec, obs=obs)
        t0 = time.perf_counter()
        session.run()
        return time.perf_counter() - t0

    best_disabled = best_enabled = None
    for _ in range(repeat):
        wall = _run_once(None)
        if best_disabled is None or wall < best_disabled:
            best_disabled = wall
        wall = _run_once(Observability(metrics=True, tracing=True))
        if best_enabled is None or wall < best_enabled:
            best_enabled = wall
    rate_disabled = windows / best_disabled if best_disabled else 0.0
    rate_enabled = windows / best_enabled if best_enabled else 0.0
    overhead = (
        100.0 * (1.0 - rate_enabled / rate_disabled) if rate_disabled else 0.0
    )
    return {
        "windows": windows,
        "windows_per_s_disabled": rate_disabled,
        "windows_per_s_enabled": rate_enabled,
        "overhead_pct": overhead,
    }


def test_obs_overhead_gate():
    result = bench_obs_overhead(windows=4, repeat=4)
    assert result["windows_per_s_disabled"] > 0
    assert result["windows_per_s_enabled"] > 0
    assert result["overhead_pct"] < GATE_PCT + NOISE_SLACK_PCT, (
        f"obs overhead {result['overhead_pct']:.2f}% exceeds the "
        f"{GATE_PCT}% gate (+{NOISE_SLACK_PCT}% CI noise slack)"
    )


def test_obs_overhead_report_shape():
    result = bench_obs_overhead(windows=2, repeat=1)
    assert set(result) == {
        "windows",
        "windows_per_s_disabled",
        "windows_per_s_enabled",
        "overhead_pct",
    }
    assert result["windows"] == 2
