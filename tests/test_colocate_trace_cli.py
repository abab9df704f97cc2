"""Tests for co-location, trace record/replay, and the CLI."""

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, main
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.workloads.colocate import CompositeWorkload, composite_compressibility
from repro.workloads.masim import MasimWorkload
from repro.workloads.trace import TraceWorkload, record_trace
from tests.conftest import run_windows


def two_tenants():
    return [
        MasimWorkload(num_pages=1024, ops_per_window=2000, seed=1),
        MasimWorkload(num_pages=512, ops_per_window=1000, seed=2),
    ]


class TestCompositeWorkload:
    def test_ranges_and_sizes(self):
        composite = CompositeWorkload(two_tenants())
        assert composite.num_pages == 1536
        assert composite.tenant_range(0) == (0, 1024)
        assert composite.tenant_range(1) == (1024, 1536)
        assert composite.ops_per_window == 3000

    def test_accesses_land_in_tenant_ranges(self):
        composite = CompositeWorkload(two_tenants())
        batch = composite.next_window()
        assert batch.shape == (1536,) and batch.sum() == 3000
        # Both tenants contribute (masim hot sets start at offset 0).
        assert batch[:1024].sum() and batch[1024:].sum()

    def test_write_fraction_is_ops_weighted(self):
        tenants = two_tenants()
        tenants[0].write_fraction = 0.3
        tenants[1].write_fraction = 0.0
        composite = CompositeWorkload(tenants)
        assert composite.write_fraction == pytest.approx(0.2)

    def test_reset_resets_tenants(self):
        composite = CompositeWorkload(two_tenants())
        first = composite.next_window()
        composite.reset()
        again = composite.next_window()
        assert np.array_equal(first, again)

    def test_needs_a_tenant(self):
        with pytest.raises(ValueError):
            CompositeWorkload([])

    def test_composite_compressibility(self):
        tenants = two_tenants()
        comp = composite_compressibility(tenants, ["nci", "random"], seed=0)
        assert comp.shape == (1536,)
        # nci pages compress far better than random pages.
        assert comp[:1024].mean() < 0.3 < comp[1024:].mean()
        with pytest.raises(ValueError):
            composite_compressibility(tenants, ["nci"], seed=0)

    def test_address_space_accepts_composite(self):
        tenants = two_tenants()
        comp = composite_compressibility(tenants, ["nci", "dickens"], seed=0)
        space = AddressSpace(1536, compressibility=comp)
        assert space.profile == "custom"
        assert (space.compressibility == comp).all()

    def test_address_space_validates_explicit_values(self):
        with pytest.raises(ValueError, match="shape"):
            AddressSpace(PAGES_PER_REGION, compressibility=np.ones(3))
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            AddressSpace(
                PAGES_PER_REGION,
                compressibility=np.zeros(PAGES_PER_REGION),
            )


class TestTrace:
    def test_record_and_replay(self, tmp_path):
        workload = MasimWorkload(num_pages=1024, ops_per_window=500, seed=3)
        path = record_trace(workload, 3, tmp_path / "trace.npz")
        assert path.exists()
        replay = TraceWorkload(path)
        assert replay.num_pages == 1024
        assert replay.num_windows == 3
        fresh = MasimWorkload(num_pages=1024, ops_per_window=500, seed=3)
        for _ in range(3):
            assert (replay.next_window() == fresh.next_window()).all()

    def test_loop_wraps(self, tmp_path):
        workload = MasimWorkload(num_pages=1024, ops_per_window=100, seed=4)
        path = record_trace(workload, 2, tmp_path / "t.npz")
        replay = TraceWorkload(path, loop=True)
        windows = [replay.next_window() for _ in range(4)]
        assert (windows[0] == windows[2]).all()
        assert (windows[1] == windows[3]).all()

    def test_no_loop_raises(self, tmp_path):
        workload = MasimWorkload(num_pages=1024, ops_per_window=100, seed=5)
        path = record_trace(workload, 1, tmp_path / "t2.npz")
        replay = TraceWorkload(path, loop=False)
        replay.next_window()
        with pytest.raises(IndexError):
            replay.next_window()

    def test_write_fraction_preserved(self, tmp_path):
        workload = MasimWorkload(num_pages=1024, ops_per_window=100, seed=6)
        path = record_trace(workload, 1, tmp_path / "t3.npz")
        assert TraceWorkload(path).write_fraction == pytest.approx(
            workload.write_fraction, abs=0.001
        )

    def test_rejects_non_trace(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="not a recorded trace"):
            TraceWorkload(path)

    def test_window_count_validation(self, tmp_path):
        with pytest.raises(ValueError):
            record_trace(MasimWorkload(num_pages=1024), 0, tmp_path / "y")

    def test_trace_drives_daemon(self, tmp_path, system):
        from repro.core.daemon import TSDaemon
        from repro.core.placement.waterfall import WaterfallModel

        workload = MasimWorkload(
            num_pages=system.space.num_pages, ops_per_window=2000, seed=7
        )
        path = record_trace(workload, 3, tmp_path / "d.npz")
        daemon = TSDaemon(system, WaterfallModel(50.0), sampling_rate=1)
        summary = run_windows(daemon, TraceWorkload(path), 3)
        assert summary.windows == 3


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "colocation" in out

    def test_every_registered_experiment_has_driver(self):
        for name, (driver, desc) in EXPERIMENTS.items():
            assert callable(driver), name
            assert desc

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_tab01(self, capsys):
        assert main(["run", "tab01"]) == 0
        assert "zsmalloc" in capsys.readouterr().out

    def test_policy_run(self, capsys):
        code = main(
            [
                "policy",
                "masim",
                "waterfall",
                "--windows",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Waterfall" in out and "migration" in out

    def test_tiers(self, capsys):
        assert main(["tiers", "--profile", "dickens", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "deflate" in out
