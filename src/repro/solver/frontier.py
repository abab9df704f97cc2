"""Exact Pareto-frontier solver for the budget-only placement knapsack.

Without capacity rows the placement ILP (:mod:`repro.solver.problem`) is
a multiple-choice knapsack with one budget row, which a dynamic program
over *partial placements* solves exactly.  Regions are folded in one at a
time; after each fold the program keeps only the Pareto frontier of
partial ``(cost, penalty)`` sums: a partial placement that another
matches or beats on both cost and penalty cannot complete to a better
placement than that other one.  Two admissible bounds keep the frontier
small:

* **budget bound**: a point whose cost plus the remaining regions'
  minimum costs exceeds the budget cannot complete feasibly,
* **incumbent bound**: a point whose penalty plus the remaining regions'
  minimum penalties exceeds a feasible placement's objective cannot
  complete optimally.  The incumbent comes from the problem's ``hint``
  (the previous window's answer, also re-dealt by this window's heat)
  when it fits the budget, else from the greedy solution.  Any feasible
  objective is an admissible bound, so the choice moves only the work,
  never the answer.

The answer is canonical: minimum penalty, then minimum cost, then the
lexicographically smallest placement.  The last rule comes from folding
regions in reverse index order and keeping, of candidates with equal
``(cost, penalty)``, the one with the lowest ``(tier, parent)`` -- equal
as the fold accumulates the sums, so the result is a pure function of
``(penalty, cost, budget)``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.solver.greedy import solve_greedy
from repro.solver.problem import PlacementProblem, Solution


def solve_frontier(problem: PlacementProblem) -> Solution:
    """Solve a budget-only instance exactly by Pareto-frontier DP."""
    if problem.capacity is not None:
        raise ValueError(
            "the frontier backend solves budget-only instances; "
            "use scipy for capacity rows"
        )
    t_start = time.perf_counter_ns()
    penalty, cost = problem.penalty, problem.cost
    num_regions = penalty.shape[0]
    limit = problem.budget + 1e-9  # the budget slack the other backends use

    # Regions fold in order R-1 .. 0, so before folding region r the
    # regions still to come are 0 .. r-1: their bound is a prefix sum.
    min_cost_before = np.concatenate(([0.0], np.cumsum(cost.min(axis=1))))
    min_pen_before = np.concatenate(([0.0], np.cumsum(penalty.min(axis=1))))

    if min_cost_before[-1] > limit:
        return _cheapest(problem, t_start)

    # A feasible placement bounds the optimum; the relative slack covers
    # its objective being summed in another order than the folds sum.
    bound = _hint_objective(problem, limit)
    if bound is None:
        greedy = solve_greedy(problem)
        bound = greedy.objective if greedy.feasible else None
    incumbent = np.inf if bound is None else bound + 1e-9 * max(1.0, abs(bound))

    # A point is one complex number, cost + penalty*1j.  Complex addition
    # adds the two parts separately, so the sums are the float sums of a
    # cost and a penalty array, and numpy sorts complex numbers by real
    # part, then imaginary part: one stable argsort orders candidates by
    # cost, then penalty, then index.
    options = np.empty(cost.shape + (1,), dtype=np.complex128)
    options.real[:, :, 0] = cost
    options.imag[:, :, 0] = penalty
    front = np.zeros(1, dtype=np.complex128)
    folds: list[tuple[np.ndarray, int]] = []
    for r in range(num_regions - 1, -1, -1):
        # Candidates laid out tier-major: index = tier * width + parent.
        width = front.size
        cand = (options[r] + front).ravel()
        # Exact (cost, penalty) ties keep the lowest index, i.e. the
        # lowest tier for region r.
        order = cand.argsort(kind="stable")
        ranked = cand[order]
        # Pareto scan: a point survives when its penalty is below that
        # of every point before it.
        pen_sorted = ranked.imag
        pareto = np.empty(order.size, dtype=bool)
        pareto[0] = True
        np.less(
            pen_sorted[1:],
            np.minimum.accumulate(pen_sorted[:-1]),
            out=pareto[1:],
        )
        idx = order[pareto]
        front = ranked[pareto]
        # The bounds cut the frontier after the scan: cost ascends along
        # it, so the budget bound keeps a prefix, and penalty descends,
        # so the incumbent bound keeps a suffix.  Either bound passes a
        # point only if it passes every point that dominates it, so
        # cutting after the scan keeps the points cutting before would.
        stop = (front.real + min_cost_before[r]).searchsorted(limit, "right")
        start = idx.size - (front.imag + min_pen_before[r])[::-1].searchsorted(
            incumbent, "right"
        )
        if start >= stop:  # rounding against the up-front budget check
            return _cheapest(problem, t_start)
        front = front[start:stop]
        folds.append((idx[start:stop], width))

    # The last frontier point has the minimum penalty and, among equal
    # penalties, the minimum cost; walk its parents back.  Fold k placed
    # region R-1-k, so region r's choice sits in fold R-1-r.
    assignment = np.empty(num_regions, dtype=np.int64)
    point = front.size - 1
    for r in range(num_regions):
        idx, width = folds[num_regions - 1 - r]
        assignment[r], point = divmod(int(idx[point]), width)
    objective, total_cost = problem.evaluate(assignment)
    return Solution(
        assignment=assignment,
        objective=objective,
        cost=total_cost,
        feasible=True,
        backend="frontier",
        solve_wall_ns=time.perf_counter_ns() - t_start,
        optimal=True,
    )


def _hint_objective(problem: PlacementProblem, limit: float) -> float | None:
    """The best objective of a placement derived from the hint that fits
    the budget, or ``None`` when there is none.

    Two placements are tried: the hint itself, and the hint's tiers
    re-dealt by this window's heat (the hottest region, by total
    penalty, gets the hint's fastest tier, and so on).  Hotness drifts
    between windows, so the re-dealt hint is usually far tighter.
    """
    hint = problem.hint
    if hint is None:
        return None
    hint = np.asarray(hint)
    if hint.shape != (problem.num_regions,) or not (
        (hint >= 0) & (hint < problem.num_tiers)
    ).all():
        return None
    penalty = problem.penalty
    dealt = np.empty_like(hint)
    dealt[np.argsort(-penalty.sum(axis=1), kind="stable")] = hint[
        np.argsort(penalty.mean(axis=0)[hint], kind="stable")
    ]
    best = None
    for placement in (hint, dealt):
        objective, total_cost = problem.evaluate(placement)
        # The margin keeps the placement within the budget in any
        # summation order, so the folds cannot prune it on cost.
        if total_cost + 1e-9 * max(1.0, abs(total_cost)) <= limit:
            best = objective if best is None else min(best, objective)
    return best


def _cheapest(problem: PlacementProblem, t_start: int) -> Solution:
    """Budget infeasible: the cheapest placement, flagged."""
    cheapest = np.asarray(problem.cost.argmin(axis=1), dtype=np.int64)
    objective, total_cost = problem.evaluate(cheapest)
    return Solution(
        assignment=cheapest,
        objective=objective,
        cost=total_cost,
        feasible=False,
        backend="frontier",
        solve_wall_ns=time.perf_counter_ns() - t_start,
        optimal=False,
    )
