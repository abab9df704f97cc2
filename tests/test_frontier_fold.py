"""The frontier solver's fold against a reference copy of the lexsort fold.

``reference_frontier`` below is the fold as first written: filter the
candidates by both bounds, ``np.lexsort`` them by ``(cost, penalty)``,
then one Pareto scan.  :func:`repro.solver.frontier.solve_frontier`
sorts once on a complex ``cost + penalty*1j`` key and cuts the bounds
after the scan.  Both must give the same placement, objective, cost and
feasibility bit for bit, ties included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import analytical
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec
from repro.solver import PlacementProblem, solve_frontier
from repro.solver.frontier import _cheapest, _hint_objective
from repro.solver.greedy import solve_greedy


def reference_frontier(problem):
    """The lexsort fold: ``(assignment, objective, cost, feasible)``."""
    penalty, cost = problem.penalty, problem.cost
    num_regions = penalty.shape[0]
    limit = problem.budget + 1e-9
    min_cost_before = np.concatenate(([0.0], np.cumsum(cost.min(axis=1))))
    min_pen_before = np.concatenate(([0.0], np.cumsum(penalty.min(axis=1))))
    if min_cost_before[-1] > limit:
        return _outcome(_cheapest(problem, 0))
    bound = _hint_objective(problem, limit)
    if bound is None:
        greedy = solve_greedy(problem)
        bound = greedy.objective if greedy.feasible else None
    incumbent = np.inf if bound is None else bound + 1e-9 * max(1.0, abs(bound))

    front_cost = np.zeros(1)
    front_pen = np.zeros(1)
    parents, options = [], []
    for r in range(num_regions - 1, -1, -1):
        width = front_cost.size
        cand_cost = (cost[r][:, None] + front_cost[None, :]).ravel()
        cand_pen = (penalty[r][:, None] + front_pen[None, :]).ravel()
        keep = (cand_cost + min_cost_before[r] <= limit) & (
            cand_pen + min_pen_before[r] <= incumbent
        )
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return _outcome(_cheapest(problem, 0))
        idx = idx[np.lexsort((cand_pen[idx], cand_cost[idx]))]
        pen_sorted = cand_pen[idx]
        pareto = np.empty(idx.size, dtype=bool)
        pareto[0] = True
        pareto[1:] = pen_sorted[1:] < np.minimum.accumulate(pen_sorted)[:-1]
        idx = idx[pareto]
        front_cost = cand_cost[idx]
        front_pen = cand_pen[idx]
        tier, parent = np.divmod(idx, width)
        options.append(tier)
        parents.append(parent)

    assignment = np.empty(num_regions, dtype=np.int64)
    point = front_cost.size - 1
    for r in range(num_regions):
        fold = num_regions - 1 - r
        assignment[r] = options[fold][point]
        point = parents[fold][point]
    objective, total_cost = problem.evaluate(assignment)
    return assignment, objective, total_cost, True


def _outcome(solution):
    return (
        solution.assignment,
        solution.objective,
        solution.cost,
        solution.feasible,
    )


def assert_same_as_reference(problem):
    want = reference_frontier(problem)
    got = _outcome(solve_frontier(problem))
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@st.composite
def fold_cases(draw):
    """Budget-only instances built to hit the fold's corner cases:
    rounded values that tie exactly, duplicated rows, zero-penalty rows,
    budgets at ``TCO_min``, at ``TCO_max`` and on the solver's exact
    limit, and every kind of hint."""
    num_regions = draw(st.integers(1, 40))
    num_tiers = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_regions, num_tiers)
    penalty = rng.exponential(1.0, shape)
    cost = rng.random(shape)
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        penalty = np.round(penalty * 3, decimals)
        cost = np.round(cost * 3, decimals)
    if num_regions > 1 and draw(st.booleans()):
        rows = rng.integers(0, num_regions, num_regions // 2)
        penalty[rows] = penalty[rows[0]]
        cost[rows] = cost[rows[0]]
    if draw(st.booleans()):
        penalty[rng.random(num_regions) < 0.3] = 0.0
    tco_min, tco_max = cost.min(axis=1).sum(), cost[:, 0].sum()
    between = tco_min + rng.random() * (tco_max - tco_min)
    budget = {
        "min": tco_min,
        "max": tco_max,
        "between": between,
        # The solver's limit is budget + 1e-9: a whole-number limit that
        # rounded costs can meet exactly.
        "edge": np.floor(between) - 1e-9,
        "below": tco_min - 0.5,
    }[draw(st.sampled_from(["min", "max", "between", "edge", "below"]))]
    problem = PlacementProblem(penalty, cost, budget=float(budget))
    hint = draw(st.sampled_from(["none", "optimal", "random", "over"]))
    if hint == "optimal":
        problem.hint = reference_frontier(problem)[0]
    elif hint == "random":
        problem.hint = rng.integers(0, num_tiers, num_regions)
    elif hint == "over":
        problem.hint = cost.argmax(axis=1)  # the most expensive placement
    return problem


@settings(max_examples=300, deadline=None)
@given(problem=fold_cases())
def test_fold_matches_lexsort_reference(problem):
    assert_same_as_reference(problem)


def test_tie_break_cases_match_reference():
    """Exact ``(cost, penalty)`` ties across tiers, equal costs with
    unequal penalties, and placements that cost exactly the solver's
    limit (``budget + 1e-9``)."""
    cases = [
        (np.array([[0.0, 1.0]] * 3), np.array([[2.0, 1.0]] * 3), 4.0),
        (np.array([[0.0, 1.0, 1.0]] * 4), np.array([[2.0, 1.0, 1.0]] * 4), 6.0),
        (np.array([[0.0, 2.0, 1.0]] * 4), np.array([[2.0, 1.0, 1.0]] * 4), 5.0),
        (np.zeros((5, 3)), np.ones((5, 3)), 5.0),
        (np.array([[0.0, 1.0]] * 3), np.array([[2.0, 1.0]] * 3), 4.0 - 1e-9),
    ]
    for penalty, cost, budget in cases:
        assert_same_as_reference(PlacementProblem(penalty, cost, budget))


@pytest.mark.parametrize("policy", ["am-tco", "adaptive"])
def test_session_ilps_match_reference(monkeypatch, policy):
    """The ILPs a small session hands the solver, one per window."""
    problems = []
    solve = analytical.solve

    def capture(problem, backend="auto", obs=None):
        problems.append(
            PlacementProblem(
                problem.penalty.copy(),
                problem.cost.copy(),
                problem.budget,
                hint=None if problem.hint is None else problem.hint.copy(),
            )
        )
        return solve(problem, backend=backend, obs=obs)

    monkeypatch.setattr(analytical, "solve", capture)
    spec = ScenarioSpec(
        workload="memcached-ycsb",
        workload_kwargs={"num_pages": 4096, "ops_per_window": 20_000},
        policy=policy,
        windows=6,
        seed=3,
    )
    session = Session(spec)
    for _ in range(spec.windows):
        session.run_window()
    assert len(problems) == spec.windows
    assert any(problem.hint is not None for problem in problems)
    for problem in problems:
        assert_same_as_reference(problem)
