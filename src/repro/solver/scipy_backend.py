"""MILP backend using scipy's HiGHS solver.

Plays the role of Google OR-Tools in the paper's implementation (§7.3): an
exact mixed-integer solver fed the flattened ``x[r, t]`` binaries with the
assignment-equality, budget and capacity rows described in
:mod:`repro.solver.problem`.

``optimal`` means optimal within HiGHS's default MIP gaps (absolute
1e-6), which is the size of the analytical model's ``1e-6 * tier``
tie-break: HiGHS may stop at a placement that ignores it.  Only the
``frontier`` backend applies that tie-break exactly.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from repro.solver.problem import PlacementProblem, Solution


@lru_cache(maxsize=64)
def _model_structure(
    num_regions: int, num_tiers: int, bounded: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC index structure of the constraint matrix, before zero-dropping.

    Rows are ``[assignment rows (R); budget row; capacity rows (one per
    bounded tier)]``; column ``r * T + t`` holds row ``r`` (1.0), the
    budget row (``cost[r, t]``) and, when tier ``t`` is bounded, its
    capacity row (1.0), in ascending row order as ``vstack`` emits them.

    Returns:
        ``(indptr, indices, budget_at)``, read-only (the cache shares
        them); ``budget_at[j]`` is the position of column ``j``'s budget
        entry in ``indices``.
    """
    tier = np.tile(np.arange(num_tiers), num_regions)
    cap_row = np.full(num_tiers, -1)
    cap_row[list(bounded)] = num_regions + 1 + np.arange(len(bounded))
    cap_row = cap_row[tier]
    capped = cap_row >= 0
    indptr = np.zeros(tier.size + 1, dtype=np.int32)
    np.cumsum(2 + capped, out=indptr[1:])
    starts = indptr[:-1]
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[starts] = np.repeat(np.arange(num_regions), num_tiers)
    indices[starts + 1] = num_regions
    indices[starts[capped] + 2] = cap_row[capped]
    budget_at = starts + 1
    for arr in (indptr, indices, budget_at):
        arr.flags.writeable = False
    return indptr, indices, budget_at


def _constraints(problem: PlacementProblem) -> LinearConstraint:
    """The ILP's rows as one CSC ``LinearConstraint``.

    The matrix equals ``vstack([assignment, budget, capacity],
    format="csc")`` of the per-block matrices, with zero costs dropped
    exactly as ``csc_array`` drops them from the dense budget row, so
    HiGHS receives the identical model.
    """
    num_regions, num_tiers = problem.num_regions, problem.num_tiers
    bounded: tuple[int, ...] = ()
    if problem.capacity is not None:
        bounded = tuple(np.flatnonzero(problem.capacity >= 0).tolist())
    indptr, indices, budget_at = _model_structure(num_regions, num_tiers, bounded)
    cost = problem.cost.reshape(-1)
    data = np.ones(indices.size)
    data[budget_at] = cost
    rows = num_regions + 1 + len(bounded)
    lb = np.full(rows, -np.inf)
    lb[:num_regions] = 1.0
    ub = np.empty(rows)
    ub[:num_regions] = 1.0
    ub[num_regions] = problem.budget
    if bounded:
        ub[num_regions + 1 :] = problem.capacity[list(bounded)]
    matrix = csc_array((data, indices.copy(), indptr.copy()), shape=(rows, cost.size))
    # Zero costs leave the model, as csc_array drops them from a dense row.
    matrix.eliminate_zeros()
    return LinearConstraint(matrix, lb=lb, ub=ub)


def solve_scipy(problem: PlacementProblem, time_limit_s: float = 30.0) -> Solution:
    """Solve the placement ILP exactly with scipy/HiGHS.

    Args:
        problem: The placement instance.
        time_limit_s: HiGHS wall-clock limit; on timeout the incumbent is
            returned with ``optimal=False``.  ``optimal=True`` is within
            HiGHS's default gaps (see the module docstring).
    """
    t_start = time.perf_counter_ns()
    num_regions = problem.num_regions
    num_tiers = problem.num_tiers
    n = num_regions * num_tiers

    c = problem.penalty.reshape(n)

    result = milp(
        c=c,
        constraints=_constraints(problem),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit_s},
    )
    wall_ns = time.perf_counter_ns() - t_start

    if result.x is None:
        # Budget infeasible: return the cheapest placement, flagged.
        cheapest = np.asarray(problem.cost.argmin(axis=1), dtype=np.int64)
        objective, total_cost = problem.evaluate(cheapest)
        return Solution(
            assignment=cheapest,
            objective=objective,
            cost=total_cost,
            feasible=False,
            backend="scipy",
            solve_wall_ns=wall_ns,
            optimal=False,
        )

    x = result.x.reshape(num_regions, num_tiers)
    assignment = np.asarray(x.argmax(axis=1), dtype=np.int64)
    objective, total_cost = problem.evaluate(assignment)
    return Solution(
        assignment=assignment,
        objective=objective,
        cost=total_cost,
        feasible=problem.is_feasible(assignment),
        backend="scipy",
        solve_wall_ns=wall_ns,
        optimal=bool(result.status == 0),
        extras={"milp_status": int(result.status)},
    )
