"""Tests for the placement ILP and its three backends.

The crucial guarantees: every backend respects the budget (or flags
infeasibility), frontier and scipy match a brute-force enumeration, the
frontier's tie-break is canonical, and the greedy heuristic is
near-optimal.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.sparse import csc_array, vstack

from repro.solver import (
    PlacementProblem,
    solve,
    solve_frontier,
    solve_greedy,
    solve_scipy,
)
from repro.solver.registry import resolve_backend
from repro.solver.scipy_backend import _constraints


def tierlike_problem(num_regions, rng, budget_factor=0.5, capacity=False):
    """Random instance with the placement structure: anti-monotone
    penalty/cost columns (DRAM expensive/zero-penalty first)."""
    hotness = rng.exponential(1.0, num_regions)
    per_access = np.array([0.0, 30.0, 2000.0, 7000.0])
    per_cost = np.array([1.0, 0.4, 0.3, 0.1])
    penalty = hotness[:, None] * per_access[None, :]
    cost = np.tile(per_cost, (num_regions, 1)) * (
        0.8 + 0.4 * rng.random((num_regions, 4))
    )
    lo, hi = cost.min(axis=1).sum(), cost[:, 0].sum()
    problem = PlacementProblem(
        penalty=penalty,
        cost=cost,
        budget=lo + budget_factor * (hi - lo),
        capacity=np.array([num_regions, num_regions // 2, -1, -1])
        if capacity
        else None,
    )
    return problem


def brute_force(problem):
    """Every feasible assignment enumerated: ``(min penalty, min cost
    among placements tying on it)``, or ``None`` when none fits.

    Penalties within 1e-9 relative count as ties, absorbing the float
    reassociation between summation orders.
    """
    num_regions, num_tiers = problem.penalty.shape
    grid = np.array(list(itertools.product(range(num_tiers), repeat=num_regions)))
    rows = np.arange(num_regions)
    penalty = problem.penalty[rows, grid].sum(axis=1)
    cost = problem.cost[rows, grid].sum(axis=1)
    fits = cost <= problem.budget + 1e-9
    if problem.capacity is not None:
        for t in range(num_tiers):
            if problem.capacity[t] >= 0:
                fits &= (grid == t).sum(axis=1) <= problem.capacity[t]
    if not fits.any():
        return None
    best = penalty[fits].min()
    ties = fits & (penalty <= best + 1e-9 * max(1.0, abs(best)))
    return float(best), float(cost[ties].min())


class TestProblem:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            PlacementProblem(np.zeros((2, 3)), np.zeros((2, 2)), 1.0)

    def test_dims_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            PlacementProblem(np.zeros(3), np.zeros(3), 1.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="one entry per tier"):
            PlacementProblem(
                np.zeros((2, 2)), np.zeros((2, 2)), 1.0, capacity=np.array([1])
            )

    def test_evaluate(self):
        problem = PlacementProblem(
            penalty=np.array([[0.0, 5.0], [0.0, 7.0]]),
            cost=np.array([[2.0, 1.0], [2.0, 1.0]]),
            budget=3.0,
        )
        obj, cost = problem.evaluate(np.array([0, 1]))
        assert obj == 7.0 and cost == 3.0
        assert problem.is_feasible(np.array([0, 1]))
        assert not problem.is_feasible(np.array([0, 0]))


class TestBackends:
    def test_trivial_all_dram_when_budget_max(self):
        rng = np.random.default_rng(0)
        problem = tierlike_problem(6, rng, budget_factor=1.0)
        for solver in (solve_frontier, solve_scipy, solve_greedy):
            solution = solver(problem)
            assert solution.objective == pytest.approx(0.0)
            assert (solution.assignment == 0).all()

    def test_tight_budget_forces_cheapest(self):
        rng = np.random.default_rng(1)
        problem = tierlike_problem(6, rng, budget_factor=0.0)
        for solver in (solve_frontier, solve_scipy):
            solution = solver(problem)
            assert solution.feasible
            assert solution.cost == pytest.approx(problem.min_cost(), rel=1e-9)

    def test_infeasible_flagged(self):
        problem = PlacementProblem(
            penalty=np.array([[0.0, 5.0]]),
            cost=np.array([[2.0, 1.0]]),
            budget=0.5,
        )
        for solver in (solve_frontier, solve_scipy, solve_greedy):
            solution = solver(problem)
            assert not solution.feasible
            assert list(solution.assignment) == [1]  # the cheapest placement

    def test_scipy_matches_exact(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            problem = tierlike_problem(32, rng, budget_factor=0.3 + 0.1 * trial)
            exact = solve_frontier(problem)
            hi = solve_scipy(problem)
            assert exact.optimal and exact.feasible and hi.feasible
            assert exact.objective <= hi.objective * (1 + 1e-12)
            assert hi.objective == pytest.approx(exact.objective, rel=1e-6)

    def test_greedy_near_optimal(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            problem = tierlike_problem(10, rng, budget_factor=0.2 + 0.08 * trial)
            exact = solve_frontier(problem)
            greedy = solve_greedy(problem)
            assert greedy.cost <= problem.budget + 1e-9
            # MCKP greedy is within one region's swap of optimal.
            slack = problem.penalty.max()
            assert greedy.objective <= exact.objective + slack + 1e-9

    def test_capacity_respected(self):
        rng = np.random.default_rng(4)
        problem = tierlike_problem(8, rng, budget_factor=0.9, capacity=True)
        for solver in (solve_scipy, solve_greedy):
            solution = solver(problem)
            counts = np.bincount(solution.assignment, minlength=4)
            assert counts[1] <= 4  # capacity num_regions // 2

    def test_greedy_zero_capacity_tier_stays_full(self):
        """A forced overflow must not turn a full tier unbounded.

        Region 0's only undominated option is tier 0, which has zero
        capacity, so the greedy start fallback is forced to place it
        there.  That take() used to drive ``remaining[0]`` to -1 -- the
        *unbounded* sentinel -- after which every other region's upgrade
        into tier 0 sailed through ``has_room``.
        """
        penalty = np.array(
            [[0.0, 10.0], [0.0, 10.0], [0.0, 10.0], [0.0, 10.0]]
        )
        cost = np.array(
            [[0.1, 5.0], [5.0, 0.1], [5.0, 0.1], [5.0, 0.1]]
        )
        problem = PlacementProblem(
            penalty=penalty,
            cost=cost,
            budget=100.0,
            capacity=np.array([0, 100]),
        )
        solution = solve_greedy(problem)
        counts = np.bincount(solution.assignment, minlength=2)
        # Only the forced-overflow region may sit in the full tier.
        assert counts[0] <= 1
        assert list(solution.assignment[1:]) == [1, 1, 1]

    def test_frontier_refuses_capacity_rows(self):
        rng = np.random.default_rng(4)
        problem = tierlike_problem(4, rng, capacity=True)
        with pytest.raises(ValueError, match="capacity"):
            solve_frontier(problem)

    def test_zero_hotness_tie_break_picks_faster_tier(self):
        """With no observed hotness only the model's ``1e-6 * tier``
        term separates tiers; at the all-DRAM budget every region must
        land in tier 0.  HiGHS's default 1e-6 absolute gap need not
        apply it; the routed frontier backend does."""
        num_regions, num_tiers = 32, 4
        penalty = np.zeros((num_regions, num_tiers)) + 1e-6 * np.arange(num_tiers)
        cost = np.tile([1.0, 0.4, 0.3, 0.1], (num_regions, 1))
        problem = PlacementProblem(penalty, cost, budget=float(cost[:, 0].sum()))
        solution = solve(problem)
        assert solution.backend == "frontier"
        assert (solution.assignment == 0).all()
        assert solution.objective == 0.0

    def test_frontier_ties_resolve_lexicographically(self):
        """Identical regions that can split two tiers either way: the
        lower-indexed region gets the lower (faster) tier."""
        penalty = np.array([[0.0, 1.0]] * 3)
        cost = np.array([[2.0, 1.0]] * 3)
        # Budget for exactly one region in tier 0: all three placements
        # tie on (penalty 2, cost 4).
        problem = PlacementProblem(penalty, cost, budget=4.0)
        solution = solve_frontier(problem)
        assert list(solution.assignment) == [0, 1, 1]

    def test_registry_auto_and_errors(self):
        # (regions, capacity rows?, expected backend) at T = 4, one case
        # on each side of every cutoff.
        routes = [
            (4, False, "frontier"),
            (128, False, "frontier"),  # R * T = 512
            (129, False, "scipy"),
            (4, True, "scipy"),  # capacity rows always go to HiGHS
            (1024, False, "scipy"),  # R * T = 4096
            (1025, False, "greedy"),
            (1025, True, "greedy"),
        ]
        for num_regions, capacity, expected in routes:
            problem = PlacementProblem(
                np.zeros((num_regions, 4)),
                np.zeros((num_regions, 4)),
                1.0,
                capacity=np.full(4, num_regions) if capacity else None,
            )
            assert resolve_backend(problem) == expected, (num_regions, capacity)
            assert resolve_backend(problem, "greedy") == "greedy"
        rng = np.random.default_rng(5)
        problem = tierlike_problem(4, rng)
        assert solve(problem, backend="auto").backend == "frontier"
        capped = tierlike_problem(4, rng, capacity=True)
        assert solve(capped, backend="auto").backend == "scipy"
        with pytest.raises(KeyError, match="available"):
            solve(problem, backend="cplex")

    def test_solve_times_recorded(self):
        rng = np.random.default_rng(6)
        problem = tierlike_problem(6, rng)
        for name in ("scipy", "frontier", "greedy"):
            assert solve(problem, backend=name).solve_wall_ns > 0


@settings(max_examples=40, deadline=None)
@given(
    num_regions=st.integers(1, 6),
    budget_factor=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    capacity=st.booleans(),
)
def test_backend_agreement_property(num_regions, budget_factor, seed, capacity):
    """Against a full enumeration (T**R <= 4**6): frontier finds the
    minimum penalty and the cheapest placement among its ties; scipy
    finds the minimum penalty, capacity rows included; greedy is
    feasible and no better than the optimum."""
    rng = np.random.default_rng(seed)
    problem = tierlike_problem(num_regions, rng, budget_factor, capacity)
    best_penalty, best_cost = brute_force(problem)
    hi = solve_scipy(problem)
    greedy = solve_greedy(problem)
    assert hi.feasible and greedy.feasible
    assert hi.objective == pytest.approx(best_penalty, rel=1e-6, abs=1e-9)
    assert greedy.objective >= best_penalty - 1e-9
    assert greedy.cost <= problem.budget + 1e-9
    if not capacity:
        exact = solve_frontier(problem)
        assert exact.feasible and exact.optimal
        assert exact.objective == pytest.approx(best_penalty, rel=1e-9, abs=1e-12)
        assert exact.cost == pytest.approx(best_cost, rel=1e-9, abs=1e-12)


def _blockwise_model(problem):
    """The ILP rows built block by block and stacked, as a reference."""
    num_regions, num_tiers = problem.num_regions, problem.num_tiers
    blocks = [np.kron(np.eye(num_regions), np.ones(num_tiers))]
    lb, ub = [np.ones(num_regions)], [np.ones(num_regions)]
    blocks.append(problem.cost.reshape(1, -1))
    lb.append([-np.inf])
    ub.append([problem.budget])
    if problem.capacity is not None:
        bounded = [t for t in range(num_tiers) if problem.capacity[t] >= 0]
        if bounded:
            cap = np.zeros((len(bounded), num_regions * num_tiers))
            for row, t in enumerate(bounded):
                cap[row, t::num_tiers] = 1.0
            blocks.append(cap)
            lb.append(np.full(len(bounded), -np.inf))
            ub.append(problem.capacity[bounded].astype(float))
    matrix = vstack([csc_array(block) for block in blocks], format="csc")
    return matrix, np.concatenate(lb), np.concatenate(ub)


@settings(max_examples=60, deadline=None)
@given(
    num_regions=st.integers(1, 12),
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([None, "tierlike", "unbounded"]),
    zero_costs=st.integers(0, 3),
)
def test_scipy_model_matches_blockwise_stack(num_regions, seed, capacity, zero_costs):
    """The cached one-matrix model equals the block-stacked CSC matrix
    entry for entry, zero costs dropped, with the same row bounds."""
    rng = np.random.default_rng(seed)
    problem = tierlike_problem(num_regions, rng, capacity=capacity is not None)
    if capacity == "unbounded":
        problem.capacity[:] = -1
    for _ in range(zero_costs):
        problem.cost[rng.integers(num_regions), rng.integers(4)] = 0.0
    expected, lb, ub = _blockwise_model(problem)
    constraint = _constraints(problem)
    got = csc_array(constraint.A)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.indptr, expected.indptr)
    np.testing.assert_array_equal(got.indices, expected.indices)
    np.testing.assert_array_equal(got.data, expected.data)
    np.testing.assert_array_equal(constraint.lb, lb)
    np.testing.assert_array_equal(constraint.ub, ub)


@st.composite
def budget_only_problems(draw):
    """Random budget-only instances; integer-valued ones tie exactly."""
    num_regions = draw(st.integers(1, 6))
    num_tiers = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    shape = (num_regions, num_tiers)
    if draw(st.booleans()):
        penalty = rng.integers(0, 4, shape).astype(np.float64)
        cost = rng.integers(0, 4, shape).astype(np.float64)
    else:
        penalty = rng.exponential(1.0, shape)
        cost = rng.random(shape)
    lo, hi = cost.min(axis=1).sum(), cost.max(axis=1).sum()
    budget = lo + draw(st.floats(-0.1, 1.0)) * (hi - lo)
    if draw(st.booleans()):
        budget = float(np.floor(budget))
    return PlacementProblem(penalty, cost, budget=budget), rng


@settings(max_examples=150, deadline=None)
@given(case=budget_only_problems())
def test_frontier_hint_never_changes_the_answer(case):
    """A hint (random, optimal, over budget or malformed) only bounds
    the frontier: the placement is identical to the unhinted solve and
    still optimal against full enumeration."""
    problem, rng = case
    num_regions, num_tiers = problem.penalty.shape
    base = solve_frontier(problem)
    hints = [
        rng.integers(0, num_tiers, num_regions),
        base.assignment.copy(),
        problem.cost.argmax(axis=1),  # the most expensive placement
        np.full(num_regions + 1, 0),  # wrong shape: ignored
    ]
    for hint in hints:
        hinted = solve_frontier(
            PlacementProblem(
                problem.penalty, problem.cost, problem.budget, hint=hint
            )
        )
        assert np.array_equal(hinted.assignment, base.assignment), hint
        assert (hinted.objective, hinted.cost, hinted.feasible) == (
            base.objective,
            base.cost,
            base.feasible,
        )
    best = brute_force(problem)
    if best is None:
        assert not base.feasible
    else:
        assert base.objective == pytest.approx(best[0], rel=1e-9, abs=1e-12)
        assert base.cost == pytest.approx(best[1], rel=1e-9, abs=1e-12)
