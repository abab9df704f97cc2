"""Run-level metrics: percentiles and experiment summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def linear_percentile(values: np.ndarray, percentile: float) -> float:
    """``np.percentile(values, percentile)`` of a non-empty 1-D sample.

    numpy's default ``linear`` method, step for step, without its
    generic quantile machinery (a tenth of the time on a few dozen
    values): the virtual index ``(n - 1) * percentile / 100`` into the
    sorted values, then numpy's ``_lerp`` between its neighbours --
    ``lo + d * g`` below ``g = 0.5``, ``hi - d * (1 - g)`` from it.  A
    sample holding a NaN gives NaN.  Only the sign of a zero result may
    differ, as the sorts may order ``-0.0`` and ``0.0`` differently.
    """
    ordered = np.sort(values)
    n = ordered.size
    if math.isnan(ordered[-1]):
        return math.nan
    index = (n - 1) * float(np.true_divide(percentile, 100))
    if index >= n - 1:
        # numpy reads the last value through index -1 and takes the
        # interpolation weight from there.
        lo = hi = -1
    else:
        lo = math.floor(index)
        hi = lo + 1
    gamma = index - lo
    below, above = float(ordered[lo]), float(ordered[hi])
    diff = above - below
    if gamma < 0.5:
        return below + diff * gamma
    return above - diff * (1 - gamma)


def weighted_percentile(
    values: np.ndarray, weights: np.ndarray, percentile: float
) -> float:
    """Percentile of a weighted sample (nearest-rank on cumulative weight).

    Used for tail-latency reporting: the simulator produces
    ``(latency, count)`` histograms rather than one entry per access.

    Args:
        values: Sample values, shape ``(n,)``.
        weights: Positive weights (counts), shape ``(n,)``.
        percentile: In ``[0, 100]``.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape != weights.shape or values.ndim != 1:
        raise ValueError("values and weights must be equal-length 1-D arrays")
    if len(values) == 0:
        raise ValueError("empty sample")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    cum = np.cumsum(weights)
    total = cum[-1]
    if total == 0:
        raise ValueError("all weights are zero")
    target = total * percentile / 100.0
    idx = int(np.searchsorted(cum, target, side="left"))
    idx = min(idx, len(values) - 1)
    return float(values[idx])


@dataclass
class RunSummary:
    """Aggregate outcome of one daemon run.

    Attributes:
        workload: Workload name.
        policy: Placement-policy name.
        slowdown: Fractional slowdown vs the all-DRAM optimum (Eq. 5
            normalised by ``perf_opt``); 0.10 means 10 % slower.
        tco_savings: Time-averaged fractional TCO savings vs all-DRAM.
        final_tco_savings: Savings at the last window.
        avg_latency_ns: Mean per-access latency.
        p95_latency_ns: 95th percentile access latency.
        p999_latency_ns: 99.9th percentile access latency.
        total_faults: Compressed-tier faults over the run.
        migration_ns: Daemon-side migration nanoseconds (serial).
        solver_ns: Total ILP/solver wall nanoseconds.
        profiling_ns: Telemetry handling nanoseconds.
        windows: Number of profile windows executed.
    """

    workload: str
    policy: str
    slowdown: float
    tco_savings: float
    final_tco_savings: float
    avg_latency_ns: float
    p95_latency_ns: float
    p999_latency_ns: float
    total_faults: int
    migration_ns: float
    solver_ns: float
    profiling_ns: float
    windows: int
    extras: dict = field(default_factory=dict)

    @property
    def relative_performance(self) -> float:
        """Throughput relative to all-DRAM (1.0 = parity)."""
        return 1.0 / (1.0 + self.slowdown)

    def row(self) -> dict:
        """Flat dict for table printing."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "slowdown_pct": 100.0 * self.slowdown,
            "tco_savings_pct": 100.0 * self.tco_savings,
            "p95_ns": self.p95_latency_ns,
            "p999_ns": self.p999_latency_ns,
            "faults": self.total_faults,
        }
