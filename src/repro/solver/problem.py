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
