"""Parameter sweeps and seed replication for the experiment harness.

The figure drivers run one seed; downstream users comparing policies want
grids and error bars.  This module provides both:

* :func:`sweep` -- run every combination of a parameter grid as a
  :class:`~repro.engine.spec.ScenarioSpec` and collect flat result rows,
* :func:`replicate` -- run one configuration across seeds and report
  mean / standard deviation for the headline metrics.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from repro.core.seeding import child_seed
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec


def sweep(grid: dict[str, Iterable], windows: int = 10, seed: int = 0) -> list[dict]:
    """Run the cross-product of a parameter grid.

    Args:
        grid: Mapping of :class:`~repro.engine.spec.ScenarioSpec` field
            names to value lists.  Must include ``"workload"`` and
            ``"policy"``; other keys (``mix``, ``percentile``,
            ``alpha``, ...) are optional.
        windows: Profile windows per run.
        seed: RNG seed for every run (use :func:`replicate` for seed
            variation).

    Returns:
        One flat row per combination: the swept parameters plus
        ``slowdown_pct``, ``tco_savings_pct``, ``p999_latency_ns`` and
        ``faults``.
    """
    if "workload" not in grid or "policy" not in grid:
        raise ValueError("grid needs 'workload' and 'policy' axes")
    keys = list(grid)
    rows = []
    for values in itertools.product(*(list(grid[k]) for k in keys)):
        params = dict(zip(keys, values))
        summary = Session(ScenarioSpec(windows=windows, seed=seed, **params)).run()
        row = dict(params)
        row.update(
            {
                "slowdown_pct": 100 * summary.slowdown,
                "tco_savings_pct": 100 * summary.tco_savings,
                "p999_latency_ns": summary.p999_latency_ns,
                "faults": summary.total_faults,
            }
        )
        rows.append(row)
    return rows


def replicate(
    workload: str,
    policy: str,
    seeds: Iterable[int] = range(5),
    windows: int = 10,
    **kwargs,
) -> dict:
    """Run one configuration across seeds; report mean and stdev.

    Args:
        workload: Registry workload name.
        policy: Policy name.
        seeds: Seeds to replicate over.
        windows: Profile windows per run.
        **kwargs: Further :class:`~repro.engine.spec.ScenarioSpec` fields.

    Returns:
        A row with ``*_mean`` and ``*_std`` for slowdown and TCO savings,
        plus the per-seed raw values under ``"samples"``.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    slowdowns = []
    savings = []
    for seed in seeds:
        # Each replica runs on a SeedSequence substream of its seed so
        # adjacent replica seeds (0, 1, 2, ...) cannot produce the
        # correlated workload/daemon streams that additive derivations
        # like ``seed + 1`` would.
        spec = ScenarioSpec(
            workload=workload,
            policy=policy,
            windows=windows,
            seed=child_seed(seed, 0),
            **kwargs,
        )
        summary = Session(spec).run()
        slowdowns.append(100 * summary.slowdown)
        savings.append(100 * summary.tco_savings)
    return {
        "workload": workload,
        "policy": policy,
        "runs": len(seeds),
        "slowdown_pct_mean": float(np.mean(slowdowns)),
        "slowdown_pct_std": float(np.std(slowdowns)),
        "tco_savings_pct_mean": float(np.mean(savings)),
        "tco_savings_pct_std": float(np.std(savings)),
        "samples": {"slowdown_pct": slowdowns, "tco_savings_pct": savings},
    }
