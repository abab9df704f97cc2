"""One grid runner: scenario cells run inline or in an ordered pool.

A grid is a list of :class:`GridCell` plus a module-level reducer
``reduce(summary, session, cell) -> row`` that runs in the process
holding the session, so only the row crosses a process boundary.  A
cell that cannot be *built* (a policy/mix mismatch, say ``tpp`` on the
spectrum mix) is ``skipped``; one that fails mid-run is ``failed``.
Either way the grid goes on, and the outcome keeps the exception.

:func:`ordered_map` is the one process pool: ``jobs=1`` runs inline and
``jobs=J`` maps in input order, so no result depends on the worker
count.  The figure drivers, ``validate``, the arena and the fleet all
dispatch through it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec


@dataclass(frozen=True)
class GridCell:
    """One grid point: an id, a scenario, the keyword overrides
    :class:`Session` accepts (``workload``, ``system``, ``policy``,
    ``migration_filter``, ``obs``) and the row columns that identify
    the cell, which reducers put first in its row."""

    cell_id: str
    spec: ScenarioSpec
    overrides: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)


@dataclass
class CellOutcome:
    """What one cell brings back: its status, row and any exception."""

    cell_id: str
    status: str
    row: Any = None
    error: str = ""
    exc: BaseException | None = None
    wall_s: float = 0.0


def ordered_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, over ``jobs`` worker processes.

    ``fn`` must be picklable (module-level, or a ``partial`` of one)
    when ``jobs > 1``.  Results come back in input order, so a merge
    over them is the same for any ``jobs``.  Items go out in about four
    chunks per worker: a 256-node fleet pays 16 round trips, not 256,
    and a 15-cell arena still sends one cell at a time.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def run_cell(cell: GridCell, reduce: Callable) -> CellOutcome:
    """Build, run and reduce one cell; the body of both map paths."""
    start = time.perf_counter()
    try:
        session = Session(cell.spec, **cell.overrides)
    except (ValueError, KeyError) as exc:
        return CellOutcome(
            cell.cell_id, "skipped", error=str(exc), exc=exc,
            wall_s=time.perf_counter() - start,
        )
    try:
        summary = session.run()
    except Exception as exc:  # noqa: BLE001 - one cell must not kill the grid
        return CellOutcome(
            cell.cell_id, "failed", error=f"{type(exc).__name__}: {exc}",
            exc=exc, wall_s=time.perf_counter() - start,
        )
    row = reduce(summary, session, cell)
    return CellOutcome(
        cell.cell_id, "ok", row=row, wall_s=time.perf_counter() - start
    )


def run_grid(
    cells: Iterable[GridCell], reduce: Callable, jobs: int = 1
) -> list[CellOutcome]:
    """Every cell's outcome, in cell order, for any ``jobs``."""
    return ordered_map(partial(run_cell, reduce=reduce), cells, jobs)


def grid_rows(cells: Iterable[GridCell], reduce: Callable) -> list:
    """The rows of a grid whose every cell must succeed, run inline.

    Raises the first cell's own exception when any cell was skipped or
    failed.
    """
    outcomes = run_grid(cells, reduce)
    for outcome in outcomes:
        if outcome.exc is not None:
            raise outcome.exc
    return [outcome.row for outcome in outcomes]
