"""Artifact-style claim validation (paper Appendix A.4).

The TierScape artifact names two major claims:

* **C1** -- multiple compressed tiers with different configurations allow
  aggressive tiering of warm pages (proven by Figures 7, 8 and 9), and
* **C2** -- the analytical model offers configurable tiering at different
  cost-performance points (proven by Figure 10).

:func:`validate` runs fast, scaled-down versions of those experiments and
checks the claims programmatically -- the simulator's equivalent of the
artifact evaluation workflow (``python -m repro validate``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class ClaimResult:
    """Outcome of one claim check.

    Attributes:
        claim: Claim identifier (e.g. ``"C1"``).
        description: What the claim asserts.
        passed: Whether every check held.
        details: One line per individual check.
        wall_s: Seconds spent validating.
    """

    claim: str
    description: str
    passed: bool
    details: list[str]
    wall_s: float


def _check(details: list[str], label: str, condition: bool) -> bool:
    details.append(f"[{'PASS' if condition else 'FAIL'}] {label}")
    return condition


def validate_c1(windows: int = 8, seed: int = 0) -> ClaimResult:
    """C1: multiple compressed tiers enable aggressive warm-page tiering."""
    from repro.bench.experiments import (
        fig07_standard_mix,
        fig08_waterfall_trace,
        fig09_analytical_trace,
    )

    t0 = time.time()
    details: list[str] = []
    ok = True

    rows = fig07_standard_mix(
        workloads=("memcached-ycsb", "redis-ycsb"),
        windows=windows,
        seed=seed,
    )
    for workload in ("memcached-ycsb", "redis-ycsb"):
        sub = {r["policy"]: r for r in rows if r["workload"] == workload}
        best = max(sub.values(), key=lambda r: r["tco_savings_pct"])
        ok &= _check(
            details,
            f"Fig7/{workload}: AM-TCO saves the most TCO "
            f"({best['policy']} leads at {best['tco_savings_pct']:.1f} %)",
            best["policy"] == "AM-TCO",
        )

    trace8 = fig08_waterfall_trace(windows=windows, seed=seed)
    placements = np.array(trace8["placement_per_window"])
    ok &= _check(
        details,
        "Fig8: Waterfall ages pages into the last tier",
        placements[0, -1] == 0 and placements[-1, -1] > 0,
    )
    ok &= _check(
        details,
        "Fig8: upfront TCO savings in the first window",
        trace8["tco_savings_per_window"][0] > 0.05,
    )

    trace9 = fig09_analytical_trace(windows=windows, seed=seed)
    faults = np.array(trace9["cumulative_faults"])
    rec = np.array(trace9["recommended_pages_per_window"])
    act = np.array(trace9["actual_pages_per_window"])
    ok &= _check(
        details,
        "Fig9: compressed-tier faults accumulate under the shifting pattern",
        bool(faults[-1].sum() > 0 and (np.diff(faults, axis=0) >= 0).all()),
    )
    ok &= _check(
        details,
        "Fig9: actual placement diverges from the recommendation",
        any(not np.array_equal(rec[w], act[w]) for w in range(len(rec))),
    )

    return ClaimResult(
        claim="C1",
        description=(
            "Multiple compressed tiers enable aggressive tiering of warm "
            "pages (Figures 7, 8, 9)"
        ),
        passed=bool(ok),
        details=details,
        wall_s=time.time() - t0,
    )


def validate_c2(windows: int = 8, seed: int = 0) -> ClaimResult:
    """C2: the knob configures distinct cost-performance points."""
    from repro.bench.experiments import fig10_knob_sweep

    t0 = time.time()
    details: list[str] = []
    ok = True
    rows = fig10_knob_sweep(
        alphas=(0.2, 0.5, 0.8), thresholds=(), windows=windows, seed=seed
    )
    savings = [row["tco_savings_pct"] for row in rows]
    slowdowns = [row["slowdown_pct"] for row in rows]
    ok &= _check(
        details,
        f"Fig10: savings fall monotonically with alpha "
        f"({', '.join(f'{s:.1f}%' for s in savings)})",
        savings[0] > savings[1] > savings[2],
    )
    ok &= _check(
        details,
        f"Fig10: the spectrum spans >15 points of savings "
        f"({savings[0] - savings[2]:.1f} pp)",
        savings[0] - savings[2] > 15.0,
    )
    ok &= _check(
        details,
        "Fig10: aggressive settings cost more performance than relaxed ones",
        slowdowns[0] >= slowdowns[2],
    )
    return ClaimResult(
        claim="C2",
        description=(
            "The analytical model offers configurable tiering at different "
            "cost-performance points (Figure 10)"
        ),
        passed=bool(ok),
        details=details,
        wall_s=time.time() - t0,
    )


def validate(windows: int = 8, seed: int = 0) -> list[ClaimResult]:
    """Validate both artifact claims; returns one result per claim."""
    return [validate_c1(windows, seed), validate_c2(windows, seed)]
