"""Tests for the one grid runner (repro.engine.grid).

The figure drivers, ``validate``, the arena and the fleet all run
through it, so its contracts are the determinism and failure contracts
of every harness: results in cell order for any ``jobs``, build errors
``skipped``, run errors ``failed``, and a figure raises its failed
cell's own exception.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.bench import experiments
from repro.engine import ScenarioSpec, Session
from repro.engine.grid import GridCell, grid_rows, run_grid

SMALL = {"num_pages": 1024, "ops_per_window": 4000}


def _small_grid(windows: int = 3) -> list[GridCell]:
    """masim x (gswap, waterfall) x (25th, 75th percentile)."""
    return [
        GridCell(
            f"{policy}@{pct:g}",
            ScenarioSpec(
                workload="masim",
                workload_kwargs=SMALL,
                policy=policy,
                percentile=pct,
                windows=windows,
            ),
            labels={"policy": policy, "percentile": pct},
        )
        for policy in ("gswap", "waterfall")
        for pct in (25.0, 75.0)
    ]


_REDUCE = partial(experiments._pct_row, columns=("faults", "migration_ms"))


class CellBoom(RuntimeError):
    """A run error only one cell raises."""


class TestGrid:
    def test_cross_product_rows_in_cell_order(self):
        rows = grid_rows(_small_grid(), _REDUCE)
        assert [(r["policy"], r["percentile"]) for r in rows] == [
            ("gswap", 25.0),
            ("gswap", 75.0),
            ("waterfall", 25.0),
            ("waterfall", 75.0),
        ]
        for row in rows:
            assert "tco_savings_pct" in row and "slowdown_pct" in row
        by_pct = {r["percentile"]: r for r in rows if r["policy"] == "gswap"}
        assert by_pct[75.0]["tco_savings_pct"] >= by_pct[25.0]["tco_savings_pct"]

    def test_jobs_do_not_change_rows(self):
        cells = _small_grid()
        inline = run_grid(cells, _REDUCE, jobs=1)
        pooled = run_grid(cells, _REDUCE, jobs=2)
        assert [o.cell_id for o in pooled] == [c.cell_id for c in cells]
        assert [o.status for o in pooled] == ["ok"] * len(cells)
        assert [o.row for o in pooled] == [o.row for o in inline]

    def test_build_error_is_skipped(self):
        cell = GridCell(
            "jenga/spectrum",
            ScenarioSpec(
                workload="pingpong",
                workload_kwargs={"num_pages": 1024, "ops_per_window": 500},
                policy="jenga",
                mix="spectrum",
                windows=1,
            ),
        )
        (outcome,) = run_grid([cell], _REDUCE)
        assert outcome.status == "skipped"
        assert "standard mix" in outcome.error
        assert isinstance(outcome.exc, ValueError)
        with pytest.raises(ValueError, match="standard mix"):
            grid_rows([cell], _REDUCE)

    def test_run_error_fails_one_cell_and_the_grid_goes_on(self, monkeypatch):
        run = Session.run

        def boom(self, *args, **kwargs):
            if self.spec.policy == "waterfall":
                raise CellBoom("window loop broke")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Session, "run", boom)
        outcomes = run_grid(_small_grid(windows=1), _REDUCE)
        assert [o.status for o in outcomes] == ["ok", "ok", "failed", "failed"]
        assert outcomes[2].error == "CellBoom: window loop broke"

    def test_figure_raises_its_failed_cells_exception(self, monkeypatch):
        run = Session.run

        def boom(self, *args, **kwargs):
            if self.spec.policy == "tmo":
                raise CellBoom("window loop broke")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Session, "run", boom)
        with pytest.raises(CellBoom, match="window loop broke"):
            experiments.fig10_knob_sweep(
                alphas=(0.5,), thresholds=(25.0,), windows=1
            )
