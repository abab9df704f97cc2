"""Tests for the bench harness: configs, construction, reporting."""

import pytest

from repro.bench import configs, reporting
from repro.core.metrics import RunSummary
from repro.engine import MIXES, ScenarioSpec, Session, build_system, make_policy
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.workloads.masim import MasimWorkload


@pytest.fixture
def small_space():
    return AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=0)


class TestCharacterizationTiers:
    def test_twelve_tiers(self):
        tiers = configs.characterization_tiers()
        assert len(tiers) == 12
        assert [t.name for t in tiers] == [f"C{i}" for i in range(1, 13)]

    def test_paper_picks(self):
        """§5.1's named picks have the stated structure."""
        tiers = {t.name: t for t in configs.characterization_tiers()}
        # C1: best performance -> zbud + lz4 + DRAM.
        assert tiers["C1"].allocator.name == "zbud"
        assert tiers["C1"].algorithm.name == "lz4"
        assert tiers["C1"].media.name == "DRAM"
        # C2: fastest Optane-backed.
        assert tiers["C2"].media.name == "NVMM"
        assert tiers["C2"].algorithm.name == "lz4"
        # C7: the GSwap production tier (lzo + zsmalloc).
        assert tiers["C7"].allocator.name == "zsmalloc"
        assert tiers["C7"].algorithm.name == "lzo"
        assert tiers["C7"].media.name == "DRAM"
        # C12: best TCO -> deflate + zsmalloc + Optane.
        assert tiers["C12"].algorithm.name == "deflate"
        assert tiers["C12"].allocator.name == "zsmalloc"
        assert tiers["C12"].media.name == "NVMM"

    def test_c1_fastest_c12_best_tco(self):
        tiers = configs.characterization_tiers()
        latencies = [t.fault_latency_ns(intrinsic=0.3) for t in tiers]
        costs = [t.expected_page_cost(0.3) for t in tiers]
        assert latencies[0] == min(latencies)  # C1
        assert costs[11] == min(costs)  # C12

    def test_labels(self):
        assert configs.characterization_label(1) == "ZB-L4-DR"
        assert configs.characterization_label(12) == "ZS-DE-OP"


class TestMixes:
    def test_standard_mix(self, small_space):
        tiers = configs.standard_mix(small_space)
        assert [t.name for t in tiers] == ["DRAM", "NVMM", "CT-1", "CT-2"]
        assert not tiers[0].is_compressed and not tiers[1].is_compressed
        assert tiers[2].is_compressed and tiers[3].is_compressed
        # CT-1 low latency (DRAM-backed lzo), CT-2 high savings (Optane zstd).
        assert tiers[2].media.name == "DRAM"
        assert tiers[3].media.name == "NVMM"
        assert tiers[2].fault_latency_ns(intrinsic=0.4) < tiers[
            3
        ].fault_latency_ns(intrinsic=0.4)

    def test_spectrum_mix(self, small_space):
        tiers = configs.spectrum_mix(small_space)
        assert [t.name for t in tiers] == ["DRAM", "C1", "C2", "C4", "C7", "C12"]

    def test_single_mix(self, small_space):
        tiers = configs.single_ct_mix(small_space)
        assert [t.name for t in tiers] == ["DRAM", "CT-1"]

    def test_option_space_is_63(self):
        options = configs.enumerate_tiers()
        assert len(options) == 63
        assert len(set(options)) == 63


class TestRunner:
    def test_build_system_uses_profile(self):
        workload = MasimWorkload(num_pages=1024)
        system = build_system(workload, mix="standard")
        assert system.space.num_pages == 1024
        assert len(system.tiers) == 4

    def test_unknown_mix(self):
        workload = MasimWorkload(num_pages=1024)
        with pytest.raises(KeyError, match="available"):
            build_system(workload, mix="exotic")

    def test_make_policy_names(self):
        assert make_policy("hemem").name == "HeMem*"
        assert make_policy("gswap").name == "GSwap*"
        assert make_policy("tmo").name == "TMO*"
        assert make_policy("waterfall").name == "Waterfall"
        assert make_policy("am-tco").name == "AM-TCO"
        assert make_policy("am", alpha=0.3).name == "AM(alpha=0.3)"

    def test_make_policy_mix_constraints(self):
        with pytest.raises(ValueError):
            make_policy("hemem", mix="spectrum")
        with pytest.raises(ValueError):
            make_policy("tmo", mix="spectrum")
        assert make_policy("gswap", mix="spectrum").slow_tier == "C7"

    def test_am_requires_alpha(self):
        with pytest.raises(ValueError):
            make_policy("am")

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("autonuma")

    def test_session_smoke(self):
        spec = ScenarioSpec(
            workload="masim",
            policy="waterfall",
            windows=3,
            workload_kwargs={"num_pages": 1024, "ops_per_window": 5000},
        )
        summary = Session(spec).run()
        assert isinstance(summary, RunSummary)
        assert summary.windows == 3
        assert summary.policy == "Waterfall"

    def test_session_keeps_daemon_records(self):
        spec = ScenarioSpec(
            workload="masim",
            policy="gswap",
            windows=2,
            workload_kwargs={"num_pages": 1024, "ops_per_window": 5000},
        )
        session = Session(spec)
        session.run()
        assert len(session.daemon.records) == 2

    def test_all_mixes_registered(self):
        assert set(MIXES) == {"standard", "spectrum", "single"}


class TestReporting:
    def test_format_table(self):
        rows = [
            {"name": "a", "value": 1.2345, "count": 10},
            {"name": "bb", "value": 12345.6, "count": 0},
        ]
        out = reporting.format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.234" in out and "12,346" in out

    def test_format_table_empty(self):
        assert "(empty)" in reporting.format_table([])

    def test_format_series(self):
        out = reporting.format_series("s", [1, 2], [0.5, 0.25], "x", "y")
        assert "(1, 0.500)" in out and "(2, 0.250)" in out

    def test_format_bars(self):
        rows = [
            {"policy": "A", "savings": 50.0},
            {"policy": "BB", "savings": 25.0},
            {"policy": "C", "savings": 0.0},
        ]
        out = reporting.format_bars(rows, "policy", "savings", width=10, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert lines[1].count("#") == 10  # full-scale bar
        assert lines[2].count("#") == 5  # half
        assert lines[3].count("#") == 0  # zero
        assert lines[1].startswith(" A") and lines[2].startswith("BB")

    def test_format_bars_empty_and_negative(self):
        assert "(empty)" in reporting.format_bars([], "a", "b")
        out = reporting.format_bars(
            [{"p": "x", "v": -3.0}, {"p": "y", "v": 6.0}], "p", "v", width=6
        )
        x_line = [l for l in out.splitlines() if l.lstrip().startswith("x")][0]
        assert "#" not in x_line and "-3" in x_line
