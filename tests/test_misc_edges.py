"""Edge-path tests across smaller modules: clock stats, workload guards,
runner profile resolution, CLI errors."""

import numpy as np
import pytest

from repro.cli import main
from repro.engine import build_system
from repro.mem.stats import ClockStats, TierStats
from repro.workloads.base import Workload
from repro.workloads.graph import PageRankWorkload
from repro.workloads.masim import MasimWorkload


class TestClockStats:
    def test_slowdown_zero_when_idle(self):
        clock = ClockStats()
        assert clock.slowdown == 0.0

    def test_slowdown_formula(self):
        clock = ClockStats(access_ns=150.0, optimal_ns=100.0)
        assert clock.slowdown == pytest.approx(0.5)

    def test_snapshot_fields(self):
        clock = ClockStats(access_ns=1.0, optimal_ns=2.0, migration_ns=3.0)
        snap = clock.snapshot()
        assert snap["access_ns"] == 1.0
        assert snap["migration_ns"] == 3.0

    def test_tier_stats_snapshot(self):
        stats = TierStats(accesses=5, faults=2)
        snap = stats.snapshot()
        assert snap["accesses"] == 5 and snap["faults"] == 2
        stats.accesses = 99
        assert snap["accesses"] == 5  # snapshot is decoupled


class TestWorkloadGuards:
    def test_out_of_range_pages_caught(self):
        class Broken(Workload):
            name = "broken"

            def _generate(self, rng):
                return np.array([self.num_pages + 5])

        workload = Broken(num_pages=512, ops_per_window=10)
        with pytest.raises(AssertionError, match="out-of-range"):
            workload.next_window()

    def test_window_counter_advances(self):
        workload = MasimWorkload(num_pages=512, ops_per_window=10)
        assert workload.window == 0
        workload.next_window()
        assert workload.window == 1

    def test_rss_bytes(self):
        workload = MasimWorkload(num_pages=1024, ops_per_window=10)
        assert workload.rss_bytes == 4 * 1024 * 1024


class TestRunnerProfileResolution:
    def test_graph_workload_gets_nci_profile(self):
        workload = PageRankWorkload(scale=12, edge_factor=4)
        system = build_system(workload, mix="standard")
        # 'pagerank-s12' matches the 'pagerank' registry entry -> nci.
        assert system.space.compressibility.mean() < 0.3

    def test_unknown_workload_defaults_to_mixed(self):
        workload = MasimWorkload(num_pages=1024)
        workload.name = "something-custom"
        system = build_system(workload, mix="standard")
        assert 0.2 < system.space.compressibility.mean() < 0.5


class TestCLIErrors:
    def test_unknown_policy_exits_2(self, capsys):
        code = main(["policy", "masim", "numa-balancing", "--windows", "1"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, capsys):
        code = main(["policy", "hadoop", "gswap", "--windows", "1"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_policy_with_alpha(self, capsys):
        code = main(
            ["policy", "masim", "am", "--alpha", "0.5", "--windows", "2"]
        )
        assert code == 0
        assert "AM(alpha=0.5)" in capsys.readouterr().out
