"""Tests for the ``repro.fleet`` package and seed derivation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knob import Knob
from repro.core.seeding import child_seed, derive_rng, spawn_seeds
from repro.fleet import (
    ChaosOptions,
    FleetRunner,
    FleetScheduler,
    FleetSpec,
    NodeSpec,
    ServicedAnalyticalModel,
    SolverServiceConfig,
    fleet_rollup,
    node_rows,
    rack_rows,
    slowdown_distribution,
)
from repro.fleet.metrics import (
    export_fleet_events,
    fleet_event_rows,
    latency_distribution,
    solver_tax_rows,
)
from repro.fleet.runner import merge_metrics_hierarchical, service_arrival_ranks
from repro.fleet.service import (
    modeled_greedy_ns,
    modeled_ilp_ns,
)
from repro.mem.page import PAGES_PER_REGION
from repro.workloads.masim import MasimWorkload
from tests.conftest import run_windows


class TestSeeding:
    def test_spawn_seeds_reproducible(self):
        assert spawn_seeds(42, 8) == spawn_seeds(42, 8)

    def test_spawn_seeds_distinct(self):
        seeds = spawn_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_adjacent_bases_do_not_collide(self):
        # The failure mode of ``seed + i``: base 0's child i vs base 1's
        # child i - 1.  Spawned seeds keep the families disjoint.
        a, b = spawn_seeds(0, 16), spawn_seeds(1, 16)
        assert not set(a) & set(b)

    def test_child_seed_keys_distinct(self):
        assert child_seed(7, 0) != child_seed(7, 1)
        assert child_seed(7, 0) != child_seed(8, 0)
        assert child_seed(7, 0) == child_seed(7, 0)

    def test_derive_rng_streams_independent(self):
        x = derive_rng(3, 0).integers(0, 1 << 30, 8)
        y = derive_rng(3, 1).integers(0, 1 << 30, 8)
        assert not np.array_equal(x, y)
        again = derive_rng(3, 0).integers(0, 1 << 30, 8)
        assert np.array_equal(x, again)

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
        assert spawn_seeds(0, 0) == []


class TestFleetSpec:
    def test_build_is_deterministic(self):
        a = FleetSpec(nodes=6, profile="micro").build()
        b = FleetSpec(nodes=6, profile="micro").build()
        assert a == b

    def test_node_seeds_independent(self):
        specs = FleetSpec(nodes=12, profile="micro", seed=5).build()
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == 12

    def test_profiles_and_scales_cycle(self):
        specs = FleetSpec(
            nodes=6, profile="standard", scales=(1.0, 0.5)
        ).build()
        assert specs[0].workload == specs[4].workload
        assert specs[0].memory_gb == specs[2].memory_gb
        assert specs[1].memory_gb == specs[0].memory_gb / 2

    def test_scaled_pages_stay_region_aligned(self):
        for spec in FleetSpec(
            nodes=9, profile="standard", scales=(1.0, 0.37, 2.3)
        ).build():
            pages = spec.workload_kwargs.get("num_pages")
            if pages is not None:
                assert pages % PAGES_PER_REGION == 0
                assert pages > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="micro"):
            FleetSpec(nodes=2, profile="nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(nodes=0)
        with pytest.raises(ValueError):
            FleetSpec(nodes=1, windows=0)
        with pytest.raises(ValueError):
            FleetSpec(nodes=1, scales=())
        with pytest.raises(ValueError):
            FleetSpec(nodes=1, scales=(1.0, -2.0))

    def test_with_alpha(self):
        spec = FleetSpec(nodes=1, profile="micro").build()[0]
        pinned = spec.with_alpha(0.3)
        assert pinned.policy == "am"
        assert pinned.alpha == 0.3
        assert pinned.seed == spec.seed


class TestSolverServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverServiceConfig(deployment="cloud")
        with pytest.raises(ValueError):
            SolverServiceConfig(servers=0)
        with pytest.raises(ValueError):
            SolverServiceConfig(timeout_ms=0)
        with pytest.raises(ValueError):
            SolverServiceConfig(network_rtt_ns=-1)

    def test_local_never_queues(self):
        config = SolverServiceConfig(deployment="local")
        assert config.queue_wait_ns(0) == 0.0
        assert config.queue_wait_ns(99) == 0.0

    def test_remote_queue_grows_with_position(self):
        config = SolverServiceConfig(deployment="remote")
        slot = config.service_slot_ns
        assert config.queue_wait_ns(0) == 0.0
        assert config.queue_wait_ns(1) == slot
        assert config.queue_wait_ns(5) == 5 * slot

    def test_servers_drain_in_parallel(self):
        config = SolverServiceConfig(deployment="remote", servers=4)
        slot = config.service_slot_ns
        assert config.queue_wait_ns(3) == 0.0
        assert config.queue_wait_ns(4) == slot
        assert config.queue_wait_ns(11) == 2 * slot


def _run_serviced(system, config, node_id, windows=2):
    from repro.core.daemon import TSDaemon

    model = ServicedAnalyticalModel(
        Knob.am_tco(), config, node_id=node_id
    )
    daemon = TSDaemon(system, model, sampling_rate=1)
    workload = MasimWorkload(
        num_pages=system.space.num_pages, ops_per_window=5000, seed=3
    )
    summary = run_windows(daemon, workload, windows)
    return model, summary


class TestServicedModel:
    def test_local_charges_modeled_ilp(self, system):
        model, summary = _run_serviced(system, SolverServiceConfig(), 0)
        cell_cost = modeled_ilp_ns(
            system.space.num_regions, len(system.tiers)
        )
        assert model.stats.requests == 2
        assert model.stats.fallbacks == 0
        assert model.stats.queue_ns == 0.0
        assert model.stats.rtt_ns == 0.0
        assert summary.solver_ns == pytest.approx(2 * cell_cost)

    def test_remote_adds_queue_and_rtt(self, system):
        config = SolverServiceConfig(deployment="remote", timeout_ms=500.0)
        model, summary = _run_serviced(system, config, node_id=2)
        per_window = (
            config.queue_wait_ns(2)
            + modeled_ilp_ns(system.space.num_regions, len(system.tiers))
            + config.network_rtt_ns
        )
        assert model.stats.fallbacks == 0
        assert summary.solver_ns == pytest.approx(2 * per_window)
        assert model.queue_ns == pytest.approx(2 * config.queue_wait_ns(2))
        assert summary.extras["solver_queue_ns"] == pytest.approx(
            model.queue_ns
        )

    def test_deadline_forces_greedy_fallback(self, system):
        # Node 3 waits ~30 ms in the queue; a 5 ms deadline pushes every
        # one of its windows to the on-box greedy solver.
        config = SolverServiceConfig(deployment="remote", timeout_ms=5.0)
        model, summary = _run_serviced(system, config, node_id=3)
        assert model.stats.fallbacks == model.stats.requests == 2
        assert model.stats.queue_ns == 0.0
        assert model.stats.rtt_ns == 0.0
        assert summary.solver_ns == pytest.approx(
            2 * modeled_greedy_ns(system.space.num_regions)
        )
        assert all(e.fallback for e in model.events)

    def test_front_of_queue_still_served(self, system):
        config = SolverServiceConfig(deployment="remote", timeout_ms=5.0)
        model, _ = _run_serviced(system, config, node_id=0)
        assert model.stats.fallbacks == 0

    def test_measured_wall_separate_from_modeled(self, system):
        model, summary = _run_serviced(system, SolverServiceConfig(), 0)
        # Real solver time was measured, but the summary charges only the
        # deterministic model.
        assert model.stats.measured_wall_ns > 0
        assert summary.solver_ns == pytest.approx(
            model.stats.solve_ns
        )


class TestFleetRunner:
    def test_parallel_matches_serial(self):
        """Acceptance: jobs=1 and jobs=4 merge to identical summaries."""
        spec = FleetSpec(nodes=8, profile="micro", windows=3, seed=1)
        serial = FleetRunner(spec, jobs=1).run()
        parallel = FleetRunner(spec, jobs=4).run()
        assert serial.jobs == 1 and parallel.jobs == 4
        for a, b in zip(serial.summaries, parallel.summaries):
            assert a == b
        for a, b in zip(serial.nodes, parallel.nodes):
            assert a.spec == b.spec
            # Everything modeled is identical; only the real solver wall
            # time (measured_wall_ns) may differ between executions.
            assert a.stats.requests == b.stats.requests
            assert a.stats.fallbacks == b.stats.fallbacks
            assert a.stats.queue_ns == b.stats.queue_ns
            assert a.stats.solve_ns == b.stats.solve_ns
            assert a.stats.rtt_ns == b.stats.rtt_ns
            assert a.window_rows == b.window_rows

    def test_spec_kwargs_shorthand(self):
        runner = FleetRunner(nodes=3, profile="micro", windows=2)
        assert runner.spec.nodes == 3
        result = runner.run()
        assert len(result.nodes) == 3
        assert [n.spec.node_id for n in result.nodes] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetRunner(nodes=2, jobs=0)
        with pytest.raises(ValueError):
            FleetRunner()
        with pytest.raises(ValueError):
            FleetRunner(FleetSpec(nodes=2), nodes=3)

    def test_jobs_capped_to_fleet_size(self):
        result = FleetRunner(
            nodes=2, profile="micro", windows=2, jobs=16
        ).run()
        assert result.jobs == 2

    def test_non_analytical_policy(self):
        result = FleetRunner(
            nodes=2, profile="micro", windows=2, policy="waterfall"
        ).run()
        for node in result.nodes:
            assert node.stats.requests == 0
            assert node.summary.windows == 2

    def test_scheduler_rewrites_specs(self):
        runner = FleetRunner(
            nodes=4,
            profile="micro",
            windows=2,
            scheduler=FleetScheduler(budget_alpha=0.4),
        )
        specs = runner.node_specs()
        assert all(s.policy == "am" for s in specs)
        alphas = [s.alpha for s in specs]
        assert all(a is not None for a in alphas)


class TestFleetScheduler:
    def _specs(self, n=4, memory_gb=256.0):
        return [
            NodeSpec(node_id=i, workload="masim", memory_gb=memory_gb)
            for i in range(n)
        ]

    def test_budget_met_weighted_mean(self):
        scheduler = FleetScheduler(budget_alpha=0.4)
        specs = self._specs()
        knobs = scheduler.allocate(specs)
        mean = sum(k.alpha for k in knobs.values()) / len(knobs)
        assert mean == pytest.approx(0.4, abs=1e-6)

    def test_priorities_order_allocation(self):
        scheduler = FleetScheduler(budget_alpha=0.5)
        specs = [
            NodeSpec(node_id=0, workload="memcached-ycsb"),
            NodeSpec(node_id=1, workload="masim"),
            NodeSpec(node_id=2, workload="pagerank"),
        ]
        knobs = scheduler.allocate(specs)
        assert knobs[0].alpha > knobs[1].alpha > knobs[2].alpha

    def test_clamp_redistributes(self):
        # One high-priority node saturates at max_alpha; the slack goes
        # to the rest, keeping the weighted mean at the budget.
        scheduler = FleetScheduler(budget_alpha=0.6, max_alpha=0.8)
        specs = [
            NodeSpec(node_id=0, workload="memcached-ycsb"),
            NodeSpec(node_id=1, workload="pagerank"),
            NodeSpec(node_id=2, workload="pagerank"),
        ]
        knobs = scheduler.allocate(specs)
        assert knobs[0].alpha == pytest.approx(0.8)
        mean = sum(k.alpha for k in knobs.values()) / 3
        assert mean == pytest.approx(0.6, abs=1e-6)

    def test_all_alphas_in_range(self):
        scheduler = FleetScheduler(
            budget_alpha=0.2, min_alpha=0.1, max_alpha=0.9
        )
        specs = FleetSpec(nodes=8, profile="standard").build()
        for knob in scheduler.allocate(specs).values():
            assert 0.1 <= knob.alpha <= 0.9

    def test_memory_weighting(self):
        scheduler = FleetScheduler(budget_alpha=0.5)
        specs = [
            NodeSpec(node_id=0, workload="masim", memory_gb=768.0),
            NodeSpec(node_id=1, workload="masim", memory_gb=256.0),
        ]
        knobs = scheduler.allocate(specs)
        mean = (knobs[0].alpha * 768 + knobs[1].alpha * 256) / 1024
        assert mean == pytest.approx(0.5, abs=1e-6)

    def test_rebalance_shifts_toward_violators(self):
        scheduler = FleetScheduler(budget_alpha=0.5)
        specs = self._specs(2)
        alphas = {0: 0.5, 1: 0.5}
        rebalanced = scheduler.rebalance(
            specs, alphas, {0: 0.30, 1: 0.01}, target_slowdown=0.10
        )
        assert rebalanced[0].alpha > rebalanced[1].alpha

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetScheduler(budget_alpha=0.0)
        with pytest.raises(ValueError):
            FleetScheduler(budget_alpha=1.5)
        with pytest.raises(ValueError):
            FleetScheduler(budget_alpha=0.5, min_alpha=0.7, max_alpha=0.6)
        with pytest.raises(ValueError):
            FleetScheduler(budget_alpha=0.05, min_alpha=0.2)
        with pytest.raises(ValueError):
            FleetScheduler(budget_alpha=0.5).allocate([])


@pytest.fixture(scope="module")
def micro_result():
    return FleetRunner(nodes=3, profile="micro", windows=2, seed=2).run()


class TestFleetMetrics:
    def test_node_rows(self, micro_result):
        rows = node_rows(micro_result)
        assert len(rows) == 3
        assert [r["node"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert row["solver_tax_ms"] > 0
            assert row["queue_ms"] == 0.0

    def test_rollup(self, micro_result):
        rollup = fleet_rollup(micro_result)
        assert rollup["nodes"] == 3
        assert rollup["fleet_mem_gb"] == pytest.approx(
            sum(n.spec.memory_gb for n in micro_result.nodes)
        )
        assert rollup["saved_per_year"] == pytest.approx(
            12 * rollup["saved_per_month"]
        )
        assert rollup["fallbacks"] == 0

    def test_distributions(self, micro_result):
        dist = slowdown_distribution(micro_result)
        assert dist["min"] <= dist["p50"] <= dist["p95"] <= dist["max"]
        lat = latency_distribution(micro_result, "p999")
        assert lat["max"] >= lat["min"] >= 0
        with pytest.raises(ValueError):
            latency_distribution(micro_result, "p42")

    def test_solver_tax_rows(self, micro_result):
        rows = solver_tax_rows(micro_result)
        for row in rows:
            assert row["tax_pct_of_app"] >= 0
            assert row["measured_solver_ms"] >= 0

    def test_event_export_jsonl_roundtrip(self, micro_result, tmp_path):
        path = export_fleet_events(micro_result, tmp_path / "events.jsonl")
        lines = path.read_text().strip().splitlines()
        rows = fleet_event_rows(micro_result)
        assert len(lines) == len(rows) == 3 * 2
        parsed = [json.loads(line) for line in lines]
        for row, loaded in zip(rows, parsed):
            assert loaded["node"] == row["node"]
            assert loaded["window"] == row["window"]
            assert loaded["tco_savings_pct"] == pytest.approx(
                row["tco_savings_pct"]
            )


_REMOTE = SolverServiceConfig(deployment="remote", timeout_ms=1000.0)


class TestRemoteFleetMerge:
    """A shared remote service merges like a local one: by node id."""

    #: Tight enough that the back of each window batch misses the
    #: deadline, so both the served and the fallback path run.
    SERVICE = SolverServiceConfig(deployment="remote", timeout_ms=25.0)

    def test_jobs_invariant_remote_service(self):
        """jobs=1 and jobs=2 are bit-identical behind a remote service."""
        spec = FleetSpec(nodes=4, profile="micro", windows=5, seed=3)

        def _run(jobs):
            return FleetRunner(spec, jobs=jobs, service=self.SERVICE).run()

        serial, parallel = _run(1), _run(2)
        assert serial.summaries == parallel.summaries
        fallbacks = [n.stats.fallbacks for n in serial.nodes]
        assert 0 in fallbacks and any(fallbacks)
        for a, b in zip(serial.nodes, parallel.nodes):
            assert a.window_rows == b.window_rows
            # Everything but the real solver wall time is modeled.
            assert dataclasses.replace(
                a.stats, measured_wall_ns=0
            ) == dataclasses.replace(b.stats, measured_wall_ns=0)
        assert serial.metrics.snapshot(
            include_volatile=False
        ) == parallel.metrics.snapshot(include_volatile=False)

    def test_hierarchical_merge_matches_flat(self):
        result = FleetRunner(
            nodes=4,
            profile="micro",
            windows=5,
            seed=3,
            service=_REMOTE,
            rack_size=2,
        ).run()
        snapshots = [n.metrics for n in result.nodes]
        flat, _ = merge_metrics_hierarchical(snapshots, len(snapshots))
        hier, racks = merge_metrics_hierarchical(snapshots, 2)
        assert len(racks) == 2
        assert hier.snapshot() == flat.snapshot()
        windows = hier.counter("repro_windows_total").value()
        assert windows == 4 * 5
        assert sum(
            rack.counter("repro_windows_total").value() for rack in racks
        ) == windows
        rows = rack_rows(result)
        assert [r["rack"] for r in rows] == [0, 1]
        assert sum(r["nodes"] for r in rows) == len(result.nodes)
        assert sum(r["solver_tax_ms"] for r in rows) == pytest.approx(
            sum(n.stats.service_ns for n in result.nodes) / 1e6
        )


class TestMixedFleetQueueRanks:
    """Queue slots rank service-*using* nodes only."""

    def test_service_arrival_ranks(self):
        specs = FleetSpec(
            nodes=6, profile="micro", policies=("am-tco", "waterfall")
        ).build()
        assert service_arrival_ranks(specs) == {0: 0, 2: 1, 4: 2}

    def test_no_phantom_queue_slots(self):
        # Regression: a mixed am/waterfall fleet used to charge
        # analytical node 2k the wait of arrival position 2k -- as if
        # the waterfall nodes between them had also queued.  Every other
        # node is analytical here, so ranks must be 0, 1, 2.
        result = FleetRunner(
            nodes=6,
            profile="micro",
            windows=2,
            policies=("am-tco", "waterfall"),
            service=_REMOTE,
        ).run()
        slot = _REMOTE.service_slot_ns
        for rank, node_id in enumerate((0, 2, 4)):
            node = result.nodes[node_id]
            assert node.stats.requests == 2
            assert node.stats.queue_ns == pytest.approx(2 * rank * slot)
        for node_id in (1, 3, 5):
            assert result.nodes[node_id].stats.requests == 0


class TestRebalanceProjection:
    """Rebalance holds the budget over rebalanced nodes."""

    def _specs(self, memories):
        return [
            NodeSpec(node_id=i, workload="masim", memory_gb=m)
            for i, m in enumerate(memories)
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_weighted_mean_hits_budget_when_interior(self, data):
        n = data.draw(st.integers(2, 8))
        memories = data.draw(
            st.lists(
                st.sampled_from([64.0, 128.0, 256.0, 512.0]),
                min_size=n, max_size=n,
            )
        )
        budget = data.draw(
            st.floats(0.1, 0.9, allow_nan=False, allow_infinity=False)
        )
        alphas = {
            i: data.draw(st.floats(0.05, 1.0, allow_nan=False))
            for i in range(n)
        }
        slowdowns = {
            i: data.draw(st.floats(0.0, 0.5, allow_nan=False))
            for i in range(n)
        }
        scheduler = FleetScheduler(budget_alpha=budget)
        specs = self._specs(memories)
        knobs = scheduler.rebalance(specs, alphas, slowdowns, 0.1)
        assert set(knobs) == set(alphas)
        values = {nid: k.alpha for nid, k in knobs.items()}
        for alpha in values.values():
            assert (
                scheduler.min_alpha - 1e-9
                <= alpha
                <= scheduler.max_alpha + 1e-9
            )
        # Whenever any node lands strictly inside the clamp box, the
        # projection is exact: the memory-weighted mean is the budget.
        if any(
            scheduler.min_alpha < a < scheduler.max_alpha
            for a in values.values()
        ):
            weights = {s.node_id: s.memory_gb for s in specs}
            mean = sum(values[i] * weights[i] for i in values) / sum(
                weights[i] for i in values
            )
            assert mean == pytest.approx(budget, abs=1e-6)

    def test_subset_rebalance_not_skewed(self):
        # Regression: rebalancing a subset used to normalize by the
        # *full* fleet's weight, skewing the subset's mean far off
        # budget.  The projection must hold over the nodes present.
        scheduler = FleetScheduler(budget_alpha=0.5)
        specs = self._specs([256.0] * 4)
        knobs = scheduler.rebalance(
            specs, {0: 0.5, 1: 0.5}, {0: 0.0, 1: 0.0}, 0.1
        )
        assert set(knobs) == {0, 1}
        mean = sum(k.alpha for k in knobs.values()) / 2
        assert mean == pytest.approx(0.5, abs=1e-6)

    def test_stale_nodes_dropped(self):
        scheduler = FleetScheduler(budget_alpha=0.4)
        specs = self._specs([256.0, 256.0])
        knobs = scheduler.rebalance(
            specs, {0: 0.4, 1: 0.4, 99: 0.4}, {}, 0.1
        )
        assert 99 not in knobs

    def test_violator_gains_within_budget(self):
        scheduler = FleetScheduler(budget_alpha=0.5)
        specs = self._specs([256.0] * 3)
        knobs = scheduler.rebalance(
            specs,
            {0: 0.5, 1: 0.5, 2: 0.5},
            {0: 0.4, 1: 0.0, 2: 0.0},  # node 0 violates a 10% SLA
            0.1,
        )
        assert knobs[0].alpha > knobs[1].alpha
        mean = sum(k.alpha for k in knobs.values()) / 3
        assert mean == pytest.approx(0.5, abs=1e-6)


class TestChaosRowAlignment:
    """Export rows key service events by profile window."""

    def test_degraded_window_keeps_rows_aligned(self):
        # Node 1's window-1 solver request is crashed with no retry
        # budget, so that window degrades and emits *no* ServiceEvent.
        # Regression: rows used to be zipped positionally against the
        # event list, shifting window 2's queue wait onto window 1's row
        # and leaving the last row empty.
        plan = {
            "seed": 3,
            "max_retries": 2,
            "recover_windows": 1,
            "events": [
                {
                    "kind": "solver_crash",
                    "window": 1,
                    "node": 1,
                    "attempts": None,
                }
            ],
        }
        result = FleetRunner(
            nodes=2,
            profile="micro",
            windows=4,
            service=_REMOTE,
            chaos=ChaosOptions(plan=plan),
        ).run()
        node = result.nodes[1]
        event_windows = {e.window for e in node.events}
        # The degradation must open a gap *before* the last window, the
        # case positional mapping gets wrong in both directions.
        assert 1 not in event_windows
        assert 3 in event_windows
        slot_ms = _REMOTE.service_slot_ns / 1e6
        for row in node.window_rows:
            if row["window"] in event_windows:
                assert row["queue_ms"] == pytest.approx(slot_ms)
                assert row["solver_attempts"] == 1
            else:
                assert row["queue_ms"] == 0.0
                assert row["fallback"] is False
                assert row["solver_attempts"] == 0
        # The fault-free node is untouched and fully evented.
        assert {e.window for e in result.nodes[0].events} == {0, 1, 2, 3}

    def test_chaos_fleet_export_roundtrip(self, tmp_path):
        import json

        from repro.fleet.metrics import export_fleet_events

        plan = {
            "seed": 3,
            "events": [
                {
                    "kind": "solver_crash",
                    "window": 1,
                    "node": 1,
                    "attempts": None,
                }
            ],
        }
        result = FleetRunner(
            nodes=2,
            profile="micro",
            windows=3,
            service=_REMOTE,
            chaos=ChaosOptions(plan=plan),
        ).run()
        path = export_fleet_events(result, tmp_path / "events.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert {"node", "window", "queue_ms", "fallback",
                    "solver_attempts"} <= set(row)
