"""Tests for the policy arena (repro.arena) and its CLI surface.

The micro-arena golden pins one small cell per competitor policy
byte-for-byte: everything the leaderboard ranks is modeled, so the
serialized rows must reproduce exactly across runs, worker counts and
refactors.  Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python tests/test_arena.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arena import ArenaSpec, leaderboard_rows, run_arena
from repro.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "arena_cells.json"

#: One cell per competitor policy (plus the analytical baseline), small
#: enough for CI but large enough that tpp actually thrashes.
MICRO_SPEC = ArenaSpec(
    policies=("waterfall", "am", "tpp", "jenga", "obase"),
    workloads=("pingpong",),
    alphas=(0.5,),
    windows=4,
    scale=1.0,
    seed=11,
    workload_kwargs={"num_pages": 2048, "ops_per_window": 4000},
)


def _rows_text(arena) -> str:
    return (
        json.dumps(leaderboard_rows(arena.cells), indent=2, sort_keys=True)
        + "\n"
    )


class TestSpec:
    def test_grid_expands_alpha_only_for_analytical(self):
        points = MICRO_SPEC.grid()
        assert ("am", "pingpong", 0.5) in points
        assert ("tpp", "pingpong", None) in points
        assert len(points) == 5

    def test_cell_seeds_are_spawned_and_distinct(self):
        cells = MICRO_SPEC.cells()
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == len(seeds)
        assert [c.seed for c in MICRO_SPEC.cells()] == seeds

    def test_unknown_policy_rejected_eagerly(self):
        with pytest.raises(ValueError, match="available"):
            ArenaSpec(policies=("watrfall",))

    def test_check_invariants_reaches_every_cell(self):
        assert "check_invariants" not in MICRO_SPEC.to_dict()
        spec = dataclasses.replace(MICRO_SPEC, check_invariants=2)
        assert spec.to_dict()["check_invariants"] == 2
        assert {c.scenario.check_invariants for c in spec.cells()} == {2}
        with pytest.raises(ValueError, match="check_invariants"):
            dataclasses.replace(MICRO_SPEC, check_invariants=-1)

    def test_unknown_workload_rejected_eagerly(self):
        with pytest.raises(ValueError, match="available"):
            ArenaSpec(workloads=("nope",))


class TestRunner:
    @pytest.fixture(scope="class")
    def arena_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("arena")
        arena = run_arena(MICRO_SPEC, out_dir=out)
        return out, arena

    def test_all_cells_ok(self, arena_dir):
        _, arena = arena_dir
        assert arena.all_ok
        assert arena.counts() == {"ok": 5, "failed": 0, "skipped": 0}

    def test_manifest_schema(self, arena_dir):
        out, arena = arena_dir
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["counts"] == {"ok": 5, "failed": 0, "skipped": 0}
        assert doc["spec"]["seed"] == 11
        by_id = {c["cell_id"]: c for c in doc["cells"]}
        assert set(by_id) == {c.cell_id for c in arena.cells}
        for cell in arena.cells:
            entry = by_id[cell.cell_id]
            assert entry["status"] == "ok"
            assert entry["seed"] == cell.seed
            assert entry["error"] == ""

    def test_golden_byte_identical(self, arena_dir):
        """Satellite 3: one pinned cell per policy, byte-for-byte."""
        _, arena = arena_dir
        assert _rows_text(arena) == GOLDEN.read_text()

    def test_invariant_checks_leave_the_golden_alone(self, arena_dir, tmp_path):
        out1, _ = arena_dir
        checked = run_arena(
            dataclasses.replace(MICRO_SPEC, check_invariants=1),
            out_dir=tmp_path,
        )
        assert _rows_text(checked) == GOLDEN.read_text()
        for cell in checked.cells:
            assert cell.invariants == {
                "repro_invariant_checks_total": MICRO_SPEC.windows,
                "repro_invariant_violations_total": 0,
            }
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["spec"]["check_invariants"] == 1
        assert all(
            c["invariants"]["repro_invariant_violations_total"] == 0
            for c in doc["cells"]
        )
        plain = json.loads((out1 / "manifest.json").read_text())
        assert "check_invariants" not in plain["spec"]
        assert all("invariants" not in c for c in plain["cells"])

    def test_jobs_do_not_change_artifacts(self, arena_dir, tmp_path):
        out1, _ = arena_dir
        run_arena(MICRO_SPEC, out_dir=tmp_path, jobs=2)
        for name in (
            "leaderboard.md",
            "leaderboard.csv",
            "leaderboard.json",
            "figures/cells.json",
        ):
            assert (tmp_path / name).read_bytes() == (
                out1 / name
            ).read_bytes(), name

    def test_figure_scripts_regenerate(self, arena_dir):
        out, _ = arena_dir
        figures = out / "figures"
        for script, header in (
            ("fig_tco_frontier.py", "frontier"),
            ("fig_thrash.py", "thrash"),
        ):
            proc = subprocess.run(
                [sys.executable, script],
                cwd=figures,
                capture_output=True,
                text=True,
                check=True,
            )
            assert header in proc.stdout

    def test_leaderboard_ranks_and_thrash_column(self, arena_dir):
        _, arena = arena_dir
        rows = leaderboard_rows(arena.cells)
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
        thrash = {r["policy"]: r["thrash"] for r in rows}
        assert thrash["tpp"] > 0
        assert thrash["jenga"] == 0
        for row in rows:
            assert row["thrash_metric"] == float(row["thrash"])

    def test_mix_mismatch_reports_skipped_not_failed(self):
        spec = ArenaSpec(
            policies=("jenga",),
            workloads=("pingpong",),
            mix="spectrum",
            windows=1,
            scale=1.0,
            workload_kwargs={"num_pages": 1024, "ops_per_window": 500},
        )
        arena = run_arena(spec)
        assert [c.status for c in arena.cells] == ["skipped"]
        assert "standard mix" in arena.cells[0].error
        assert not arena.all_ok


class TestCli:
    def test_unknown_policy_exits_2_with_names(self, capsys):
        assert main(["arena", "--policies", "nope"]) == 2
        err = capsys.readouterr().err
        assert "invalid arena configuration" in err
        assert "waterfall" in err and "jenga" in err

    def test_run_scenario_unknown_policy_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"workload": "masim", "policy": "nope"}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err and "waterfall" in err

    def test_list_shows_policy_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Policy backends" in out
        for name in ("tpp", "jenga", "obase", "waterfall"):
            assert name in out
        assert "arena" in out

    def test_arena_end_to_end(self, capsys, tmp_path):
        code = main(
            [
                "arena",
                "--policies", "waterfall,tpp",
                "--workloads", "pingpong",
                "--windows", "2",
                "--seed", "11",
                "--out", str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rank" in out and "waterfall" in out
        assert (tmp_path / "out" / "leaderboard.md").exists()
        doc = json.loads(
            (tmp_path / "out" / "manifest.json").read_text()
        )
        assert all(c["status"] == "ok" for c in doc["cells"])

    def test_arena_check_invariants_flag(self, capsys, tmp_path):
        code = main(
            [
                "arena",
                "--policies", "waterfall",
                "--workloads", "pingpong",
                "--windows", "2",
                "--check-invariants", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [c["invariants"] for c in doc["cells"]] == [
            {
                "repro_invariant_checks_total": 2,
                "repro_invariant_violations_total": 0,
            }
        ]
        capsys.readouterr()
        assert main(["arena", "--check-invariants", "-1"]) == 2
        assert "check_invariants" in capsys.readouterr().err


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_rows_text(run_arena(MICRO_SPEC)))
    print(f"captured {GOLDEN}")
