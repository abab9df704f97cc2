"""Run an arena grid: one engine session per cell, process-parallel.

The arena is a grid for :func:`~repro.engine.grid.run_grid`: each cell
is an independent :class:`~repro.engine.session.Session` with its own
spawned seed and its own metrics registry, so cells are
order-independent and the leaderboard is identical whether the grid runs
inline (``jobs=1``) or across a process pool (``jobs=J``).  A cell that
cannot be *built* (a policy/mix mismatch, say ``tpp`` on the spectrum
mix) is reported ``skipped``; a cell that fails mid-run is ``failed``
with the error preserved.  Either way the sweep continues -- one bad
cell never loses the rest of the grid.  The leaderboard row is reduced
in the worker that ran the cell.

Everything ranked by the leaderboard is modeled, deterministic
simulation output; measured wall-clock goes only to ``manifest.json``
(which is allowed to differ run to run).  Solver time in particular uses
the fleet's deterministic cost model
(:func:`repro.fleet.service.modeled_ilp_ns`) rather than measured wall
time, for the same reason the fleet does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from repro.arena.spec import ArenaSpec
from repro.core.dollars import project_fleet_savings
from repro.engine.grid import GridCell, run_grid
from repro.fleet.service import modeled_ilp_ns
from repro.obs import Observability
from repro.policies import THRASH_METRIC, validate_policy

#: The session counters a cell reports when the arena checks invariants.
INVARIANT_METRICS = (
    "repro_invariant_checks_total",
    "repro_invariant_violations_total",
)


@dataclass
class CellResult:
    """Outcome of one arena cell.

    ``row`` holds the deterministic leaderboard metrics (empty unless
    ``status == "ok"``); ``wall_s`` is measured and manifest-only, and so
    is ``invariants``: the cell's invariant check and violation counts,
    empty unless the arena checks invariants.
    """

    cell_id: str
    policy: str
    workload: str
    alpha: float | None
    seed: int
    status: str
    error: str = ""
    wall_s: float = 0.0
    row: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)


@dataclass
class ArenaResult:
    """One completed sweep: the spec, every cell, and artifact paths."""

    spec: ArenaSpec
    cells: list[CellResult]
    wall_s: float
    paths: dict = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        out = {"ok": 0, "failed": 0, "skipped": 0}
        for cell in self.cells:
            out[cell.status] = out.get(cell.status, 0) + 1
        return out

    @property
    def all_ok(self) -> bool:
        return all(cell.status == "ok" for cell in self.cells)


def _leaderboard_row(
    summary,
    session,
    cell,
    node_memory_gb: float,
    target_slowdown: float | None,
) -> tuple[dict, dict]:
    """Grid reducer: one cell's leaderboard row and invariant counts.

    Module-level (partial-bound to the arena's dollar and SLA settings)
    so the worker that holds the session computes the row.
    """
    spec = cell.spec
    inner = getattr(session.policy, "primary", session.policy)
    thrash = int(getattr(inner, "thrash_total", 0))
    snapshot = session.obs.registry.snapshot()
    metric_thrash = snapshot.get(THRASH_METRIC, {}).get("series", {})
    invariants = {}
    if spec.check_invariants:
        invariants = {
            name: int(sum(snapshot.get(name, {}).get("series", {}).values()))
            for name in INVARIANT_METRICS
        }
    projection = project_fleet_savings(
        min(1.0, max(0.0, summary.tco_savings)),
        max(0.0, summary.slowdown),
        node_memory_gb,
    )
    solver_ms = 0.0
    if validate_policy(spec.policy).analytical:
        solver_ms = (
            summary.windows
            * modeled_ilp_ns(
                session.system.space.num_regions, len(session.system.tiers)
            )
            / 1e6
        )
    row = {
        "cell_id": cell.cell_id,
        "policy": spec.policy,
        "policy_label": inner.name,
        "workload": spec.workload,
        "alpha": spec.alpha,
        "tco_savings_pct": 100.0 * summary.tco_savings,
        "saved_dollars_month": projection.saved_dollars_month,
        "slowdown_pct": 100.0 * summary.slowdown,
        "p99_latency_ns": session.daemon.latency_percentile(99.0),
        "pages_migrated": int(summary.extras.get("pages_migrated", 0)),
        "thrash": thrash,
        "thrash_metric": float(sum(metric_thrash.values())),
        "solver_ms": solver_ms,
        "faults": int(summary.total_faults),
        "windows": summary.windows,
    }
    if target_slowdown is not None:
        # Per-window SLA verdict: how many profile windows ran slower
        # than the arena's slowdown budget.  Computed for *every* cell
        # (static alphas included) so the leaderboard can answer "best
        # dollars among SLA-meeting cells", not just "best dollars".
        read_ns = session.system.dram.media.read_ns
        row["sla_violations"] = sum(
            1
            for rec in session.records
            if rec.slowdown(read_ns) > target_slowdown
        )
    tuner = getattr(inner, "controller", None)
    if tuner is not None and hasattr(tuner, "alpha"):
        # Adaptive cells publish their trajectory endpoints so the
        # leaderboard JSON shows *where* the controller converged (all
        # deterministic -- the trace is a pure function of the seed).
        row.update(
            alpha_final=round(float(tuner.alpha), 9),
            adaptive_steps=int(tuner.steps_total),
            adaptive_violations=int(tuner.violations),
            alpha_trace=[
                round(float(a), 9) for a in tuner.alpha_trajectory()
            ],
        )
    return row, invariants


def run_arena(
    spec: ArenaSpec,
    out_dir=None,
    jobs: int = 1,
    log=None,
) -> ArenaResult:
    """Sweep the grid and (optionally) write the artifact directory.

    Args:
        spec: The arena description.
        out_dir: Directory for ``leaderboard.*`` / ``manifest.json`` /
            ``figures/``; ``None`` skips writing.
        jobs: Worker processes; 1 runs inline (identical results).
        log: Optional ``callable(str)`` progress sink (the CLI passes
            ``print``).
    """
    start = time.perf_counter()
    cells = spec.cells()
    reduce = partial(
        _leaderboard_row,
        node_memory_gb=spec.node_memory_gb,
        target_slowdown=spec.target_slowdown,
    )
    grid = [
        GridCell(cell.cell_id, cell.scenario, {"obs": Observability(metrics=True)})
        for cell in cells
    ]
    outcomes = run_grid(grid, reduce, jobs=jobs)
    results = [
        CellResult(
            cell.cell_id, cell.policy, cell.workload, cell.alpha, cell.seed,
            outcome.status, outcome.error, outcome.wall_s,
            *(outcome.row or ({}, {})),
        )
        for cell, outcome in zip(cells, outcomes)
    ]
    if log is not None:
        for res in results:
            note = f" ({res.error})" if res.error else ""
            log(f"  [{res.status:>7}] {res.cell_id}{note}")
    arena = ArenaResult(
        spec=spec, cells=results, wall_s=time.perf_counter() - start
    )
    if out_dir is not None:
        from repro.arena.report import write_outputs

        arena.paths = write_outputs(out_dir, arena)
    return arena
