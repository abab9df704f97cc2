"""ILP solvers for the analytical placement model (paper §6.2-§6.7).

The paper formulates placement as an Integer Linear Program solved with
Google OR-Tools (§7.3).  The program is a *multiple-choice knapsack*: each
2 MB region picks exactly one tier; the objective is modelled performance
overhead (Eq. 7) and the knapsack constraint is the TCO budget derived from
the knob (Eq. 2).

OR-Tools is not available offline, so three interchangeable backends are
provided (DESIGN.md §2):

* :mod:`repro.solver.frontier` -- exact Pareto-frontier DP for budget-only
  instances (the default for the paper-scale ILP),
* :mod:`repro.solver.scipy_backend` -- scipy's HiGHS-based ``milp``
  (capacity rows and mid-size instances),
* :mod:`repro.solver.greedy` -- LP-dominance greedy for multiple-choice
  knapsack (near-optimal, very fast; the default for large runs).

:func:`solve` runs one by name; ``"auto"`` picks by instance size
(:func:`~repro.solver.registry.resolve_backend`).
"""

from repro.solver.frontier import solve_frontier
from repro.solver.greedy import solve_greedy
from repro.solver.problem import PlacementProblem, Solution
from repro.solver.registry import SOLVERS, solve
from repro.solver.scipy_backend import solve_scipy

__all__ = [
    "PlacementProblem",
    "SOLVERS",
    "Solution",
    "solve",
    "solve_frontier",
    "solve_greedy",
    "solve_scipy",
]
