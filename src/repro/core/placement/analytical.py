"""TierScape's analytical placement model (paper §6.2-§6.7).

Every window, the model:

1. extrapolates next-window accesses per region from the cooled hotness
   profile (the proportionality assumption stated after Eq. 10),
2. builds the performance-penalty matrix (Eq. 7) over all (region,
   tier) pairs from the system's per-region planning tables, which also
   hold the TCO cost matrix (Eq. 8/10) and are built once per address
   space,
3. derives the TCO budget from the knob: ``TCO_min + alpha * MTS``
   (Eqs. 1-2),
4. solves the resulting multiple-choice-knapsack ILP with the configured
   backend and returns the assignment as a recommendation.

If the budget is infeasible for the current profile (possible only with
capacity constraints), the cheapest placement is recommended instead.
"""

from __future__ import annotations

import numpy as np

from repro.core import perf
from repro.core.knob import Knob
from repro.core.placement.base import PlacementModel
from repro.mem.system import TieredMemorySystem
from repro.solver import PlacementProblem, Solution, solve
from repro.telemetry.window import ProfileRecord


class AnalyticalModel(PlacementModel):
    """ILP-driven direct placement across all tiers.

    Args:
        knob: The alpha knob; see :mod:`repro.core.knob`.
        backend: Solver backend name (``"auto"``, ``"frontier"``,
            ``"scipy"``, ``"greedy"``).
        name: Display name; defaults to ``AM(alpha=..)``.
        use_capacity: Whether to pass per-tier capacities into the ILP.
            The paper deliberately leaves capacity handling to the
            migration filter to keep the ILP cheap (§6.7); enabling this is
            the ablation the DESIGN.md calls out.
        remote: Model a remote solver (paper Figure 14): solver wall time
            is still recorded, but the daemon does not charge it to the
            local machine.
    """

    def __init__(
        self,
        knob: Knob,
        backend: str = "auto",
        name: str | None = None,
        use_capacity: bool = False,
        remote: bool = False,
    ) -> None:
        self.knob = knob
        self.backend = backend
        self.use_capacity = use_capacity
        self.remote = remote
        self.name = name or f"AM(alpha={knob.alpha:g})"
        self.solver_ns = 0.0
        self.last_solution = None

    def build_problem(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> PlacementProblem:
        """Assemble the window's ILP instance (steps 1-3 above)."""
        tables = system.planning_tables()
        penalties = perf.penalty_matrix(
            tables.per_access, record.hotness, record.sampling_rate
        )
        # Tie-break: a region with zero observed hotness has zero modelled
        # penalty in every tier; prefer faster tiers on ties so alpha = 1
        # yields the paper's "everything in DRAM" endpoint (Figure 5).
        # The frontier backend applies it exactly; HiGHS's default 1e-6
        # absolute gap may not.
        penalties = penalties + 1e-6 * np.arange(len(system.tiers))[None, :]
        budget = self.knob.budget(tables.tco_min, tables.tco_max)
        capacity = None
        if self.use_capacity:
            capacity = self._tier_capacities(system)
        return PlacementProblem(
            penalty=penalties,
            cost=tables.cost,
            budget=budget,
            capacity=capacity,
        )

    @staticmethod
    def _tier_capacities(system: TieredMemorySystem) -> np.ndarray:
        """Per-tier capacity in whole regions.

        Every tier, compressed ones included, counts ``capacity_pages``
        at ratio 1: a compressed tier's pool could hold more pages than
        that, but the bound stays conservative.  Always non-negative, so
        every tier is bounded.
        """
        from repro.mem.page import PAGES_PER_REGION

        pages = np.array(
            [tier.capacity_pages for tier in system.tiers], dtype=np.int64
        )
        return pages // PAGES_PER_REGION

    def warm_solve(self, problem: PlacementProblem, backend: str) -> Solution:
        """Solve ``problem``, warm-started from the last window's answer.

        The hint bounds the solve; it never changes the answer.
        """
        if self.last_solution is not None:
            problem.hint = self.last_solution.assignment
        return solve(problem, backend=backend, obs=self.obs)

    def recommend(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> dict[int, int]:
        problem = self.build_problem(record, system)
        solution = self.warm_solve(problem, self.backend)
        self.last_solution = solution
        self.solver_ns += solution.solve_wall_ns
        return {
            region_id: int(tier_idx)
            for region_id, tier_idx in enumerate(solution.assignment)
        }
