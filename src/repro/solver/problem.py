"""The placement ILP (paper Eq. 2): a multiple-choice knapsack.

Given ``R`` regions and ``T`` tiers::

    minimize    sum_{r,t} x[r,t] * penalty[r,t]        (Eq. 7, perf_ovh)
    subject to  sum_t x[r,t] == 1          for each r  (every region placed)
                sum_{r,t} x[r,t] * cost[r,t] <= budget (Eq. 2, knob-derived)
                sum_r x[r,t] <= capacity[t] for each t (optional)
                x[r,t] in {0, 1}

``penalty[r, t]`` is the modelled overhead of placing region ``r`` in tier
``t`` for the next window: region hotness times the tier's per-access
penalty (the latency delta for byte tiers, the fault latency for compressed
tiers).  ``cost[r, t]`` is the modelled TCO of the region in that tier
(Eq. 8 with the region's mean compressibility).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PlacementProblem:
    """One window's placement optimization instance.

    Attributes:
        penalty: Shape ``(R, T)`` performance-overhead coefficients.
        cost: Shape ``(R, T)`` TCO coefficients.
        budget: TCO upper bound (Eq. 2's ``TCO_min + alpha * MTS``).
        capacity: Optional per-tier region capacity, shape ``(T,)``;
            ``None`` entries (encoded as a negative value) are unbounded.
        hint: Optional assignment, shape ``(R,)``, expected to be near
            the optimum (the previous window's answer).  A backend may
            use it to prune; it never changes the answer.
    """

    penalty: np.ndarray
    cost: np.ndarray
    budget: float
    capacity: np.ndarray | None = None
    hint: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.penalty = np.asarray(self.penalty, dtype=np.float64)
        self.cost = np.asarray(self.cost, dtype=np.float64)
        if self.penalty.shape != self.cost.shape:
            raise ValueError(
                f"penalty shape {self.penalty.shape} != cost shape "
                f"{self.cost.shape}"
            )
        if self.penalty.ndim != 2:
            raise ValueError("penalty/cost must be 2-D (regions x tiers)")
        if self.capacity is not None:
            self.capacity = np.asarray(self.capacity, dtype=np.int64)
            if self.capacity.shape != (self.num_tiers,):
                raise ValueError("capacity must have one entry per tier")

    @property
    def num_regions(self) -> int:
        return self.penalty.shape[0]

    @property
    def num_tiers(self) -> int:
        return self.penalty.shape[1]

    def evaluate(self, assignment: np.ndarray) -> tuple[float, float]:
        """(objective, cost) of a complete assignment array."""
        rows = np.arange(self.num_regions)
        return (
            float(self.penalty[rows, assignment].sum()),
            float(self.cost[rows, assignment].sum()),
        )

    def is_feasible(self, assignment: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``assignment`` satisfies budget and capacities."""
        _, cost = self.evaluate(assignment)
        if cost > self.budget * (1 + tol) + tol:
            return False
        if self.capacity is not None:
            counts = np.bincount(assignment, minlength=self.num_tiers)
            for t in range(self.num_tiers):
                if 0 <= self.capacity[t] < counts[t]:
                    return False
        return True

    def min_cost(self) -> float:
        """Lowest achievable total cost (ignoring capacities)."""
        return float(self.cost.min(axis=1).sum())

    # -- quantized signatures (the fleet solve cache's key) ------------------

    def quantize(self, quantum: float) -> "tuple[str, PlacementProblem]":
        """Coarsen this instance into ``(signature, canonical problem)``.

        The signature is a stable content hash of the *quantized*
        instance: per-tier penalty/cost columns bucketed into levels of
        ``quantum`` times a geometrically-bucketed column scale, plus the
        budget's bucketed position inside the canonical cost range.  Two
        instances that differ only by sub-bucket float noise (sampling
        jitter between fleet nodes running the same workload) map to the
        same signature; any level flip changes it.

        The canonical problem is reconstructed *from the buckets alone*,
        so it is a pure function of the signature: every holder of the
        signature can recompute the identical canonical instance and
        therefore the identical solution, which is what makes solve-cache
        hits semantically free (see :mod:`repro.fleet.solvecache`).
        Costs round *up* and the budget rounds *down*, so a canonical
        solution is biased toward remaining budget-feasible on the exact
        instance (feasibility is still re-checked on use).

        ``quantum = 0`` degrades to the identity: the signature hashes
        the exact float payload and the canonical problem is ``self``.
        """
        if quantum < 0 or quantum >= 1:
            raise ValueError("quantum must be in [0, 1)")
        if quantum == 0.0:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                np.asarray(self.penalty.shape, dtype=np.int64).tobytes()
            )
            digest.update(np.ascontiguousarray(self.penalty).tobytes())
            digest.update(np.ascontiguousarray(self.cost).tobytes())
            digest.update(np.float64(self.budget).tobytes())
            if self.capacity is not None:
                digest.update(np.ascontiguousarray(self.capacity).tobytes())
            return digest.hexdigest(), self

        pen_scales, pen_levels, canon_pen = _quantize_matrix(
            self.penalty, quantum, ceil=False
        )
        cost_scales, cost_levels, canon_cost = _quantize_matrix(
            self.cost, quantum, ceil=True
        )
        # Budget as a bucketed fraction of the canonical cost range.
        lo = float(canon_cost.min(axis=1).sum())
        hi = float(canon_cost.max(axis=1).sum())
        span = hi - lo
        if span > 0:
            frac = min(1.0, max(0.0, (self.budget - lo) / span))
            budget_level = int(math.floor(frac / quantum))
            canon_budget = lo + budget_level * quantum * span
        else:
            budget_level = -1
            canon_budget = self.budget
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            np.asarray(
                self.penalty.shape + (budget_level,), dtype=np.int64
            ).tobytes()
        )
        digest.update(np.float64(quantum).tobytes())
        digest.update(pen_scales.tobytes())
        digest.update(cost_scales.tobytes())
        digest.update(pen_levels.tobytes())
        digest.update(cost_levels.tobytes())
        if self.capacity is not None:
            digest.update(np.ascontiguousarray(self.capacity).tobytes())
        canonical = PlacementProblem(
            penalty=canon_pen,
            cost=canon_cost,
            budget=canon_budget,
            capacity=None if self.capacity is None else self.capacity.copy(),
        )
        return digest.hexdigest(), canonical

    def signature(self, quantum: float) -> str:
        """The quantized content hash alone (see :meth:`quantize`)."""
        return self.quantize(quantum)[0]


def _quantize_matrix(
    matrix: np.ndarray, quantum: float, ceil: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket each tier column of ``matrix``.

    Returns ``(scale_buckets, levels, canonical)``: per-column geometric
    scale buckets (so two columns whose maxima differ by float noise
    share a scale), integer level arrays, and the matrix rebuilt from
    buckets alone.  ``ceil`` selects conservative upward rounding (used
    for costs so canonical placements stay budget-biased-feasible).
    """
    maxima = matrix.max(axis=0)
    # Geometric scale buckets: ratio between adjacent canonical scales
    # is (1 + quantum), so a column max moving by less than ~quantum/2
    # relative keeps its bucket.
    log_step = math.log1p(quantum)
    with np.errstate(divide="ignore"):
        scale_buckets = np.where(
            maxima > 0,
            np.rint(np.log(np.where(maxima > 0, maxima, 1.0)) / log_step),
            np.iinfo(np.int64).min,
        ).astype(np.int64)
    canon_scales = np.where(
        scale_buckets != np.iinfo(np.int64).min,
        np.exp(scale_buckets.astype(np.float64) * log_step),
        0.0,
    )
    step = quantum * canon_scales
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(step > 0, matrix / step, 0.0)
    levels = (
        np.ceil(ratio - 1e-9) if ceil else np.rint(ratio)
    ).astype(np.int32)
    canonical = levels.astype(np.float64) * step
    return scale_buckets, levels, canonical


@dataclass
class Solution:
    """Result of a solver backend.

    Attributes:
        assignment: Shape ``(R,)`` tier index per region.
        objective: Total modelled performance overhead.
        cost: Total modelled TCO.
        feasible: Whether the budget (and capacities) were met.  When the
            budget is below the cheapest possible placement the solvers
            return the cheapest placement with ``feasible=False`` rather
            than failing (the daemon then clamps the knob).
        backend: Name of the backend that produced this solution.
        solve_wall_ns: Wall-clock nanoseconds spent solving.
        optimal: True when the backend proves optimality.
    """

    assignment: np.ndarray
    objective: float
    cost: float
    feasible: bool
    backend: str
    solve_wall_ns: int = 0
    optimal: bool = False
    extras: dict = field(default_factory=dict)
