"""Integration tests: small-scale versions of the paper's experiments.

Each test runs a miniature version of a figure driver and asserts the
*shape* the paper reports (orderings, monotonicity), not absolute numbers.
"""

import numpy as np
import pytest

from repro.bench import experiments
from repro.engine import ScenarioSpec, Session

SMALL_KV = {"num_pages": 4096, "ops_per_window": 60_000}


@pytest.fixture(scope="module")
def fig01_rows():
    return experiments.fig01_motivation(windows=6, seed=0)


class TestFig01:
    def test_three_points(self, fig01_rows):
        assert [r["placed_pct"] for r in fig01_rows] == [20, 50, 80]

    def test_savings_monotone_in_aggressiveness(self, fig01_rows):
        """Figure 1: more placement -> more savings."""
        savings = [r["tco_savings_pct"] for r in fig01_rows]
        assert savings[0] < savings[-1]

    def test_slowdown_monotone_in_aggressiveness(self, fig01_rows):
        """Figure 1: more placement -> more slowdown."""
        slowdowns = [r["slowdown_pct"] for r in fig01_rows]
        assert slowdowns[0] <= slowdowns[-1]
        assert slowdowns[-1] > 0


class TestFig02:
    @pytest.fixture(scope="class")
    def rows(self):
        return experiments.fig02_characterization(pages_per_dataset=24, seed=0)

    def test_twelve_tiers(self, rows):
        assert len(rows) == 12

    def test_nci_compresses_better_than_dickens(self, rows):
        for row in rows:
            assert row["nci_ratio"] < row["dickens_ratio"]

    def test_deflate_best_ratio(self, rows):
        """Figure 2b: deflate tiers achieve the best compression."""
        by_tier = {r["tier"]: r for r in rows}
        assert by_tier["C12"]["nci_ratio"] <= by_tier["C4"]["nci_ratio"]
        assert by_tier["C11"]["dickens_ratio"] <= by_tier["C3"]["dickens_ratio"]

    def test_lz4_fastest_deflate_slowest(self, rows):
        """Figure 2a ordering by algorithm."""
        by_tier = {r["tier"]: r for r in rows}
        assert (
            by_tier["C1"]["dickens_latency_us"]
            < by_tier["C5"]["dickens_latency_us"]
            < by_tier["C9"]["dickens_latency_us"]
        )

    def test_optane_backing_slower_than_dram(self, rows):
        by_tier = {r["tier"]: r for r in rows}
        for dram_tier, optane_tier in (("C1", "C2"), ("C7", "C8"), ("C11", "C12")):
            assert (
                by_tier[dram_tier]["dickens_latency_us"]
                < by_tier[optane_tier]["dickens_latency_us"]
            )

    def test_optane_backing_saves_more_tco(self, rows):
        by_tier = {r["tier"]: r for r in rows}
        assert (
            by_tier["C12"]["nci_tco_savings_pct"]
            > by_tier["C11"]["nci_tco_savings_pct"]
        )

    def test_zbud_savings_capped(self, rows):
        """zbud pairs at most two objects, so savings stay near <= 50 %."""
        by_tier = {r["tier"]: r for r in rows}
        assert by_tier["C9"]["nci_tco_savings_pct"] <= 55.0


class TestStandardMixShape:
    """Figure 7's headline orderings on one workload at small scale."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for policy in ("tmo", "waterfall", "am-tco", "am-perf"):
            spec = ScenarioSpec(
                workload="memcached-ycsb",
                policy=policy,
                windows=8,
                seed=0,
                workload_kwargs=SMALL_KV,
            )
            out[policy] = Session(spec).run()
        return out

    def test_am_tco_saves_most(self, results):
        best = max(results.values(), key=lambda s: s.tco_savings)
        assert best.policy == "AM-TCO"

    def test_am_tco_beats_waterfall_frontier(self, results):
        """§8.2: the analytical model outperforms Waterfall -- strictly
        more savings without an order-of-magnitude slowdown penalty."""
        am = results["am-tco"]
        wf = results["waterfall"]
        assert am.tco_savings > wf.tco_savings

    def test_all_policies_save_something(self, results):
        for summary in results.values():
            assert summary.tco_savings > 0.02

    def test_slowdowns_reasonable(self, results):
        for summary in results.values():
            assert summary.slowdown < 1.0  # under 100 %


class TestKnobSweepShape:
    def test_alpha_monotone_savings(self):
        """Figure 10: smaller alpha -> more TCO savings."""
        savings = []
        for alpha in (0.15, 0.5, 0.9):
            spec = ScenarioSpec(
                workload="memcached-ycsb",
                policy="am",
                alpha=alpha,
                windows=6,
                seed=0,
                workload_kwargs=SMALL_KV,
            )
            summary = Session(spec).run()
            savings.append(summary.tco_savings)
        assert savings[0] > savings[1] > savings[2]


class TestSpectrumShape:
    def test_spectrum_unlocks_more_savings_than_single(self):
        """§8.3.2: more compressed tiers -> higher achievable TCO savings
        at matched aggressiveness."""
        rows = experiments.ablation_tier_count(windows=6, seed=0)
        by_config = {r["config"]: r for r in rows}
        assert (
            by_config["5-CT"]["tco_savings_pct"]
            > by_config["1-CT"]["tco_savings_pct"]
        )


class TestTraces:
    def test_waterfall_trace_gradual_aging(self):
        """Figure 8: upfront savings, then cold data ages through the tier
        ladder into the best TCO tier, improving savings again."""
        result = experiments.fig08_waterfall_trace(windows=8, seed=0)
        placements = np.array(result["placement_per_window"])
        savings = result["tco_savings_per_window"]
        # Upfront: the first window already demotes cold regions.
        assert savings[0] > 0.10
        # Gradual aging: the last tier starts empty and fills up.
        last_tier = placements[:, -1]
        assert last_tier[0] == 0
        assert last_tier[-1] > 0
        # Reaching the best TCO tier improves savings over the mid-ladder
        # state (window 1 holds the data in intermediate tiers).
        assert max(savings[2:]) > savings[1]

    def test_analytical_trace_fields(self):
        """Figure 9: recommendations vs actual placement diverge under the
        shifting access pattern, and compressed-tier faults accumulate."""
        result = experiments.fig09_analytical_trace(windows=8, seed=0)
        rec = np.array(result["recommended_pages_per_window"])
        act = np.array(result["actual_pages_per_window"])
        assert rec.shape == act.shape
        # The Fig. 9 gap: under the shifting pattern, actual placement
        # diverges from the recommendation in at least some windows.
        assert any(
            not np.array_equal(rec[w], act[w]) for w in range(rec.shape[0])
        )
        faults = np.array(result["cumulative_faults"])
        assert (np.diff(faults, axis=0) >= 0).all()
        assert faults[-1].sum() > 0


class TestTables:
    def test_tab01(self):
        rows = experiments.tab01_option_space()
        assert len(rows) == 63

    def test_tab02(self):
        rows = experiments.tab02_workloads()
        assert any(r["workload"] == "pagerank" for r in rows)
