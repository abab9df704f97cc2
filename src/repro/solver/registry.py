"""Backend selection for the placement ILP."""

from __future__ import annotations

from typing import Callable

from repro.solver.branch_bound import MAX_REGIONS, solve_branch_bound
from repro.solver.greedy import solve_greedy
from repro.solver.problem import PlacementProblem, Solution
from repro.solver.scipy_backend import solve_scipy

SOLVERS: dict[str, Callable[[PlacementProblem], Solution]] = {
    "scipy": solve_scipy,
    "branch_bound": solve_branch_bound,
    "greedy": solve_greedy,
}


def resolve_backend(problem: PlacementProblem, backend: str = "auto") -> str:
    """The concrete backend ``solve`` will run for this instance.

    ``"auto"`` picks branch-and-bound for tiny instances (exact, no scipy
    dependency in the hot path), scipy/HiGHS for mid-size instances and the
    greedy heuristic beyond that -- mirroring how the paper runs the ILP
    locally for simple instances and remotely for heavy ones (§8.4).
    """
    if backend != "auto":
        if backend not in SOLVERS:
            raise KeyError(
                f"unknown solver backend {backend!r}; "
                f"available: {sorted(SOLVERS)} or 'auto'"
            )
        return backend
    if problem.num_regions <= min(12, MAX_REGIONS):
        return "branch_bound"
    if problem.num_regions * problem.num_tiers <= 4096:
        return "scipy"
    return "greedy"


def solve(
    problem: PlacementProblem, backend: str = "auto", obs=None
) -> Solution:
    """Solve a placement instance with the chosen backend.

    See :func:`resolve_backend` for how ``"auto"`` chooses.  When an
    :class:`~repro.obs.Observability` bundle is given, each solve records
    its measured wall time into the ``repro_solve_wall_ns`` histogram and
    bumps ``repro_solves_total``, both labeled with the concrete backend.
    A backend that raises is counted into ``repro_solver_errors_total``
    and the exception propagates unchanged -- the resilience layer
    (:class:`~repro.chaos.policies.ResilientModel`), not the registry,
    decides whether to retry or degrade.
    """
    name = resolve_backend(problem, backend)
    try:
        solution = SOLVERS[name](problem)
    except Exception:
        if obs is not None and obs.registry.enabled:
            obs.registry.counter(
                "repro_solver_errors_total",
                "Solver backends that raised, by backend",
            ).inc(backend=name)
        raise
    if obs is not None and obs.registry.enabled:
        registry = obs.registry
        registry.counter(
            "repro_solves_total", "Placement solves, by backend"
        ).inc(backend=name)
        registry.histogram(
            "repro_solve_wall_ns",
            "Measured wall nanoseconds per solve, by backend",
            volatile=True,
        ).observe(solution.solve_wall_ns, backend=name)
    return solution
