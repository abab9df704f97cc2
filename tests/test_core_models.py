"""Tests for the knob, TCO model, perf model and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import perf, tco
from repro.core.knob import AM_PERF_ALPHA, AM_TCO_ALPHA, Knob
from repro.core.metrics import RunSummary, weighted_percentile

from tests.conftest import make_tiers


class TestKnob:
    def test_validation(self):
        with pytest.raises(ValueError):
            Knob(-0.1)
        with pytest.raises(ValueError):
            Knob(1.1)

    def test_budget_endpoints(self):
        """Figure 5: alpha=1 -> TCO_max (no savings), alpha=0 -> TCO_min."""
        knob_max = Knob(1.0)
        knob_min = Knob(0.0)
        assert knob_max.budget(10.0, 100.0) == 100.0
        assert knob_min.budget(10.0, 100.0) == 10.0

    def test_budget_linear(self):
        assert Knob(0.5).budget(0.0, 10.0) == 5.0

    def test_budget_order_validation(self):
        with pytest.raises(ValueError):
            Knob(0.5).budget(10.0, 1.0)

    def test_presets(self):
        assert Knob.am_tco().alpha == AM_TCO_ALPHA
        assert Knob.am_perf().alpha == AM_PERF_ALPHA
        assert AM_TCO_ALPHA < AM_PERF_ALPHA


class TestTCOModel:
    def test_cost_matrix_shape_and_order(self, space):
        tiers = make_tiers(space)
        costs = tco.cost_matrix(tiers, space.region_compressibility())
        assert costs.shape == (space.num_regions, 3)
        # DRAM is the most expensive column everywhere (Eq. 8).
        assert (costs[:, 0] >= costs[:, 1]).all()
        assert (costs[:, 0] >= costs[:, 2]).all()

    def test_mts_relation(self, space):
        tiers = make_tiers(space)
        costs = tco.cost_matrix(tiers, space.region_compressibility())
        assert tco.mts(costs) == pytest.approx(
            tco.tco_max(costs) - tco.tco_min(costs)
        )
        assert tco.mts(costs) > 0

    def test_placement_tco(self, space):
        tiers = make_tiers(space)
        costs = tco.cost_matrix(tiers, space.region_compressibility())
        all_dram = np.zeros(space.num_regions, dtype=np.int64)
        assert tco.placement_tco(costs, all_dram) == pytest.approx(
            tco.tco_max(costs)
        )

    def test_matches_actual_system_tco_scale(self, system):
        """Modelled all-DRAM TCO equals the system's measured TCO_max."""
        costs = tco.cost_matrix(system.tiers, system.space.region_compressibility())
        assert tco.tco_max(costs) == pytest.approx(system.tco_max())


class TestPerfModel:
    def test_penalty_matrix(self, space):
        tiers = make_tiers(space)
        hotness = np.array([10.0, 0.0, 5.0, 1.0])
        per_access = perf.per_access_penalty(
            tiers, space.region_compressibility()
        )
        penalties = perf.penalty_matrix(per_access, hotness, sampling_rate=100)
        assert penalties.shape == (4, 3)
        # DRAM column is exactly zero (Eq. 6: delta over DRAM).
        assert (penalties[:, 0] == 0).all()
        # Zero-hotness regions incur zero modelled penalty anywhere.
        assert (penalties[1] == 0).all()
        # Compressed tier penalty dominates NVMM (fault vs latency delta).
        assert penalties[0, 2] > penalties[0, 1] > 0

    def test_sampling_rate_scales(self, space):
        tiers = make_tiers(space)
        hotness = np.ones(4)
        per_access = perf.per_access_penalty(
            tiers, space.region_compressibility()
        )
        p1 = perf.penalty_matrix(per_access, hotness, 100)
        p2 = perf.penalty_matrix(per_access, hotness, 200)
        assert np.allclose(p2, 2 * p1)

    def test_perf_overhead(self, space):
        tiers = make_tiers(space)
        hotness = np.ones(4)
        per_access = perf.per_access_penalty(
            tiers, space.region_compressibility()
        )
        penalties = perf.penalty_matrix(per_access, hotness, 100)
        all_dram = np.zeros(4, dtype=np.int64)
        assert perf.perf_overhead(penalties, all_dram) == 0.0
        all_ct = np.full(4, 2, dtype=np.int64)
        assert perf.perf_overhead(penalties, all_ct) == pytest.approx(
            penalties[:, 2].sum()
        )


class TestWeightedPercentile:
    def test_simple(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 1.0])
        assert weighted_percentile(values, weights, 50.0) == 2.0
        assert weighted_percentile(values, weights, 100.0) == 3.0

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 100.0])
        weights = np.array([999.0, 1.0])
        assert weighted_percentile(values, weights, 95.0) == 1.0
        assert weighted_percentile(values, weights, 99.95) == 100.0

    def test_errors(self):
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([1.0]), 150.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([]), np.array([]), 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([-1.0]), 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([0.0]), 50.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
        st.integers(0, 100),
    )
    def test_matches_numpy_on_unit_weights(self, values, pct):
        values = np.array(values)
        ours = weighted_percentile(values, np.ones_like(values), pct)
        # Nearest-rank percentile always returns an actual sample value
        # bracketing numpy's interpolated percentile.
        assert values.min() <= ours <= values.max()
        assert ours in values


class TestRunSummary:
    def test_relative_performance(self):
        summary = RunSummary(
            workload="w",
            policy="p",
            slowdown=0.25,
            tco_savings=0.3,
            final_tco_savings=0.3,
            avg_latency_ns=40.0,
            p95_latency_ns=50.0,
            p999_latency_ns=500.0,
            total_faults=10,
            migration_ns=1.0,
            solver_ns=1.0,
            profiling_ns=1.0,
            windows=5,
        )
        assert summary.relative_performance == pytest.approx(0.8)
        row = summary.row()
        assert row["slowdown_pct"] == pytest.approx(25.0)
        assert row["tco_savings_pct"] == pytest.approx(30.0)
