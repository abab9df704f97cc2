"""Fleet solve-cache contracts plus the PR's satellite regressions.

Four acceptance properties pinned here:

* **Quantized signatures** are stable across sub-bucket float noise
  (sampling jitter between replicas) and the canonical problem is a pure
  function of the buckets, so memoized answers are recompute-identical.
* **Cache determinism**: ``jobs=1`` and ``jobs=J`` merge bit-identically
  with the cache on, and ``quantum=0`` degrades to cache-off results.
* **Shared-cache replay** follows per-window batch semantics: a miss's
  entry becomes visible next window; same-batch signature matches split
  one solve ("batched"), they are not hits.
* **Satellite regressions**: mixed fleets charge queue slots by rank
  among service-*using* nodes (not raw node id); ``rebalance`` holds the
  weighted-mean budget over the nodes it rebalances; chaos-degraded
  windows keep export rows aligned by profile window, not list position.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    ChaosOptions,
    FleetRunner,
    FleetScheduler,
    FleetSpec,
    NodeSpec,
    SolveCacheConfig,
    SolverServiceConfig,
)
from repro.fleet.metrics import fleet_rollup, rack_rows
from repro.fleet.runner import merge_metrics_hierarchical, service_arrival_ranks
from repro.fleet.service import ServiceEvent
from repro.fleet.solvecache import (
    CACHE_HIT_BASE_NS,
    SolveCache,
    modeled_hit_ns,
    replay_shared_cache,
    reset_worker_cache,
)
from repro.solver import PlacementProblem
from tests.conftest import run_windows


def _problem(seed=0, regions=6, tiers=3, budget_frac=0.5):
    rng = np.random.default_rng(seed)
    penalty = rng.uniform(1.0, 100.0, (regions, tiers))
    cost = rng.uniform(1.0, 10.0, (regions, tiers))
    lo = cost.min(axis=1).sum()
    hi = cost.max(axis=1).sum()
    return PlacementProblem(
        penalty=penalty, cost=cost, budget=lo + budget_frac * (hi - lo)
    )


def _bucket_centered(rng, quantum, regions, tiers, scale_pow=3):
    """A problem whose cells sit exactly on quantization levels.

    Column maxima land exactly on the canonical scale ``(1+q)^k`` and
    every cell is an integer level of ``q * scale``, so the instance is
    a fixed point of quantization and tolerates sub-bucket noise.
    """
    max_level = int(round(1.0 / quantum))
    step = quantum * (1.0 + quantum) ** scale_pow

    def matrix():
        levels = rng.integers(1, max_level + 1, size=(regions, tiers))
        levels[0, :] = max_level  # pin each column's max onto the scale
        return levels.astype(np.float64) * step

    penalty, cost = matrix(), matrix()
    lo = cost.min(axis=1).sum()
    hi = cost.max(axis=1).sum()
    # Mid-bucket budget: stays in its bucket under sub-bucket cost noise.
    budget = lo + 0.5 * quantum * (hi - lo) if hi > lo else lo
    return PlacementProblem(penalty=penalty, cost=cost, budget=budget)


class TestQuantize:
    def test_signature_deterministic(self):
        p = _problem()
        sig_a, canon_a = p.quantize(0.25)
        sig_b, canon_b = p.quantize(0.25)
        assert sig_a == sig_b
        assert np.array_equal(canon_a.penalty, canon_b.penalty)
        assert np.array_equal(canon_a.cost, canon_b.cost)
        assert canon_a.budget == canon_b.budget

    def test_quantum_zero_is_identity(self):
        p = _problem()
        sig, canon = p.quantize(0.0)
        assert canon is p
        q = _problem()
        q.penalty[0, 0] += 1e-12
        assert q.signature(0.0) != sig

    def test_invalid_quantum_rejected(self):
        p = _problem()
        with pytest.raises(ValueError):
            p.quantize(-0.1)
        with pytest.raises(ValueError):
            p.quantize(1.0)

    def test_cost_rounds_up(self):
        # Conservative rounding: canonical costs never undercut the
        # exact instance, so canonical placements are budget-biased.
        p = _problem(seed=5)
        _, canon = p.quantize(0.25)
        assert np.all(canon.cost >= p.cost - 1e-9)

    def test_scale_shift_changes_signature(self):
        p = _bucket_centered(np.random.default_rng(0), 0.25, 6, 3)
        shifted = PlacementProblem(
            penalty=p.penalty * 1.25**2,
            cost=p.cost * 1.25**2,
            budget=p.budget * 1.25**2,
        )
        assert p.signature(0.25) != shifted.signature(0.25)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sub_bucket_noise_preserves_signature(self, data):
        """The quantization-boundary property.

        Multiplying every cell by ``u in [1 - q/4, 1]`` keeps each level
        (rint and ceil both), each geometric scale bucket, and the
        budget bucket -- so the signature and the bucket-reconstructed
        canonical problem are identical: replica-level sampling noise
        cannot split the cache key.
        """
        quantum = data.draw(st.sampled_from([0.5, 0.25, 0.125]))
        regions = data.draw(st.integers(2, 8))
        tiers = data.draw(st.integers(2, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        p = _bucket_centered(
            rng, quantum, regions, tiers,
            scale_pow=data.draw(st.integers(0, 6)),
        )
        jitter = rng.uniform(1.0 - quantum / 4.0, 1.0, p.penalty.shape)
        noisy = PlacementProblem(
            penalty=p.penalty * jitter,
            cost=p.cost * rng.uniform(
                1.0 - quantum / 4.0, 1.0, p.cost.shape
            ),
            budget=p.budget,
        )
        sig, canon = p.quantize(quantum)
        noisy_sig, noisy_canon = noisy.quantize(quantum)
        assert noisy_sig == sig
        assert np.array_equal(noisy_canon.penalty, canon.penalty)
        assert np.array_equal(noisy_canon.cost, canon.cost)
        assert noisy_canon.budget == canon.budget


class TestSolveCache:
    def test_miss_then_hit(self):
        reset_worker_cache()
        cache = SolveCache(SolveCacheConfig(quantum=0.25))
        p = _problem()
        first, sig, kind = cache.serve(p)
        assert kind == "miss"
        again, sig2, kind2 = cache.serve(p)
        assert (kind2, sig2) == ("hit", sig)
        assert np.array_equal(again.assignment, first.assignment)
        # A hit is re-evaluated on the exact instance and costs no wall.
        objective, cost = p.evaluate(again.assignment)
        assert again.objective == pytest.approx(objective)
        assert again.cost == pytest.approx(cost)
        assert again.solve_wall_ns == 0
        assert again.extras.get("solve_cache") is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_across_sub_bucket_noise(self):
        reset_worker_cache()
        cache = SolveCache(SolveCacheConfig(quantum=0.25))
        rng = np.random.default_rng(1)
        p = _bucket_centered(rng, 0.25, 6, 3)
        noisy = PlacementProblem(
            penalty=p.penalty * rng.uniform(0.97, 1.0, p.penalty.shape),
            cost=p.cost * rng.uniform(0.97, 1.0, p.cost.shape),
            budget=p.budget,
        )
        _, _, kind = cache.serve(p)
        assert kind == "miss"
        solution, _, kind = cache.serve(noisy)
        assert kind == "hit"
        # The answer reports against the *noisy* instance, not the memo.
        objective, cost = noisy.evaluate(solution.assignment)
        assert solution.objective == pytest.approx(objective)
        assert solution.cost == pytest.approx(cost)

    def test_timeout_when_cold(self):
        reset_worker_cache()
        cache = SolveCache(SolveCacheConfig(quantum=0.25))
        p = _problem()
        solution, _, kind = cache.serve(p, miss_ok=False)
        assert (solution, kind) == (None, "timeout")
        cache.serve(p)  # warm the memo
        solution, _, kind = cache.serve(p, miss_ok=False)
        assert kind == "hit" and solution is not None

    def test_budget_drift_bypasses(self):
        # Same signature, but the exact budget drifted below the memoized
        # assignment's exact cost: the cache must not serve it.
        reset_worker_cache()
        cache = SolveCache(SolveCacheConfig(quantum=0.25))
        p = _problem(seed=2, budget_frac=0.01)
        _, sig, kind = cache.serve(p)
        assert kind == "miss"
        starved = PlacementProblem(
            penalty=p.penalty, cost=p.cost, budget=0.5 * p.min_cost()
        )
        assert starved.signature(0.25) == sig  # both budgets bucket to 0
        solution, _, kind = cache.serve(starved)
        assert kind == "bypass"
        assert solution is not None  # solved exactly instead
        assert cache.bypasses == 1 and cache.hits == 0

    def test_lru_eviction(self):
        reset_worker_cache()
        cache = SolveCache(SolveCacheConfig(quantum=0.0, max_entries=2))
        problems = [_problem(seed=s) for s in (1, 2, 3)]
        for p in problems:
            cache.serve(p)
        assert cache.evictions == 1
        _, _, kind = cache.serve(problems[0])  # oldest was evicted
        assert kind == "miss"

    def test_worker_cache_shared_across_nodes(self):
        reset_worker_cache()
        config = SolveCacheConfig(quantum=0.25)
        a, b = SolveCache(config), SolveCache(config)
        p = _problem()
        a.serve(p)
        assert a.worker_hits == 0
        sol_b, _, kind = b.serve(p)
        # b's own memo was cold (a deterministic miss), but the process
        # cache skipped the wall-clock solve.
        assert kind == "miss"
        assert b.worker_hits == 1
        sol_a, _, _ = a.serve(p)
        assert np.array_equal(sol_a.assignment, sol_b.assignment)


def _request(window, signature, solve_ns=1_000_000.0, node_id=0):
    return ServiceEvent(
        node_id=node_id,
        window=window,
        queue_ns=0.0,
        solve_ns=solve_ns,
        rtt_ns=0.0,
        fallback=False,
        measured_wall_ns=0,
        signature=signature,
    )


class TestSharedCacheReplay:
    def test_batch_then_hit_semantics(self):
        # Window 0: node 0 misses, node 1 joins the in-flight batch.
        # Window 1: the entry is visible, both requests hit.
        streams = [
            (0, [_request(0, "a"), _request(1, "a")]),
            (1, [_request(0, "a"), _request(1, "a")]),
        ]
        replay = replay_shared_cache(streams, SolveCacheConfig(quantum=0.5))
        assert (replay.misses, replay.batched, replay.hits) == (1, 1, 2)
        assert replay.requests == 4
        assert replay.hit_rate == pytest.approx(0.75)
        # One real solve, split across the batch; hits pay lookup price.
        assert replay.solve_ns_charged == pytest.approx(
            1_000_000.0 + 2 * CACHE_HIT_BASE_NS
        )
        assert replay.solve_ns_uncached == pytest.approx(4_000_000.0)
        assert 0.0 < replay.modeled_saving < 1.0

    def test_same_window_is_never_a_hit(self):
        # Every node requesting the same signature in one window batch
        # shares the in-flight solve -- the cache entry only serves
        # *later* windows.
        streams = [(rank, [_request(0, "x")]) for rank in range(5)]
        replay = replay_shared_cache(streams, SolveCacheConfig())
        assert (replay.misses, replay.batched, replay.hits) == (1, 4, 0)

    def test_signatureless_events_skipped(self):
        streams = [(0, [_request(0, ""), _request(1, "a")])]
        replay = replay_shared_cache(streams, SolveCacheConfig())
        assert replay.requests == 1

    def test_lru_eviction_counted(self):
        streams = [
            (0, [_request(0, "a"), _request(1, "b"), _request(2, "a")])
        ]
        replay = replay_shared_cache(
            streams, SolveCacheConfig(quantum=0.5, max_entries=1)
        )
        # "a" was evicted by "b" before window 2 re-requested it.
        assert replay.hits == 0
        assert replay.misses == 3
        assert replay.evictions >= 1

    def test_stream_order_irrelevant(self):
        streams = [
            (0, [_request(0, "a"), _request(1, "b")]),
            (1, [_request(0, "b"), _request(1, "b")]),
            (2, [_request(0, "a"), _request(1, "c")]),
        ]
        config = SolveCacheConfig(quantum=0.5)
        assert replay_shared_cache(streams, config) == replay_shared_cache(
            list(reversed(streams)), config
        )


def _homogeneous_spec(windows=5, nodes=4, seed=3):
    return FleetSpec(
        nodes=nodes,
        profile="micro",
        windows=windows,
        seed=seed,
        scales=(1.0,),
        homogeneous=True,
    )


_REMOTE = SolverServiceConfig(deployment="remote", timeout_ms=1000.0)


class TestCacheDeterminism:
    def test_jobs_invariant_with_cache_on(self):
        """Acceptance: jobs=1 and jobs=2 are bit-identical, cache on."""
        spec = _homogeneous_spec()
        cache = SolveCacheConfig(quantum=0.5)

        def _run(jobs):
            reset_worker_cache()
            return FleetRunner(
                spec, jobs=jobs, service=_REMOTE, cache=cache
            ).run()

        serial, parallel = _run(1), _run(2)
        assert serial.summaries == parallel.summaries
        for a, b in zip(serial.nodes, parallel.nodes):
            assert a.window_rows == b.window_rows
            assert a.stats.cache_hits == b.stats.cache_hits
            assert a.stats.solve_ns == b.stats.solve_ns
            assert a.stats.queue_ns == b.stats.queue_ns
        assert serial.cache_replay == parallel.cache_replay
        # Merged registries agree once volatile wall-clock series (and
        # the worker-cache reuse counter, which depends on chunking) are
        # excluded.
        assert serial.metrics.snapshot(
            include_volatile=False
        ) == parallel.metrics.snapshot(include_volatile=False)

    def test_quantum_zero_matches_cache_off(self):
        """Acceptance: quantum=0 degrades to exact cache-off results."""
        spec = _homogeneous_spec()
        reset_worker_cache()
        off = FleetRunner(spec, service=_REMOTE).run()
        reset_worker_cache()
        exact = FleetRunner(
            spec, service=_REMOTE, cache=SolveCacheConfig(quantum=0.0)
        ).run()
        assert off.summaries == exact.summaries
        for a, b in zip(off.nodes, exact.nodes):
            assert a.window_rows == b.window_rows
            assert a.stats.solve_ns == b.stats.solve_ns

    def test_warm_homogeneous_fleet_hits(self):
        reset_worker_cache()
        result = FleetRunner(
            spec=_homogeneous_spec(),
            service=_REMOTE,
            cache=SolveCacheConfig(quantum=0.5),
            rack_size=2,
        ).run()
        # Node-local memo hits (windows repeat signatures after warmup).
        assert all(n.stats.cache_hits > 0 for n in result.nodes)
        replay = result.cache_replay
        assert replay is not None and replay.hits > 0
        # The merged cluster registry carries the replay counters.
        assert (
            result.metrics.counter("repro_solver_cache_hits_total").value()
            == replay.hits
        )
        rollup = fleet_rollup(result)
        assert rollup["cache_hits"] == sum(
            n.stats.cache_hits for n in result.nodes
        )
        assert rollup["cache_hit_rate"] == pytest.approx(replay.hit_rate)

    def test_hierarchical_merge_matches_flat(self):
        reset_worker_cache()
        result = FleetRunner(
            spec=_homogeneous_spec(),
            service=_REMOTE,
            cache=SolveCacheConfig(quantum=0.5),
            rack_size=2,
        ).run()
        snapshots = [n.metrics for n in result.nodes]
        flat, _ = merge_metrics_hierarchical(snapshots, len(snapshots))
        hier, racks = merge_metrics_hierarchical(snapshots, 2)
        assert len(racks) == 2
        assert hier.snapshot() == flat.snapshot()
        rows = rack_rows(result)
        assert [r["rack"] for r in rows] == [0, 1]
        assert sum(r["nodes"] for r in rows) == len(result.nodes)
        assert sum(r["cache_hits"] for r in rows) == sum(
            n.stats.cache_hits for n in result.nodes
        )


class TestMixedFleetQueueRanks:
    """Satellite 1: queue slots rank service-*using* nodes only."""

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
    """Satellite 2: rebalance holds the budget over rebalanced nodes."""

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
    """Satellite 3: export rows key service events by profile window."""

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
                assert row["cached"] is False
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
            assert {"node", "window", "queue_ms", "cached",
                    "solver_attempts"} <= set(row)


class TestCachedServiceModel:
    def test_cached_windows_charge_hit_price(self, system):
        from repro.core.daemon import TSDaemon
        from repro.core.knob import Knob
        from repro.fleet import ServicedAnalyticalModel
        from repro.workloads.masim import MasimWorkload

        reset_worker_cache()
        config = SolverServiceConfig(deployment="remote", timeout_ms=500.0)
        model = ServicedAnalyticalModel(
            Knob.am_tco(),
            config,
            node_id=0,
            cache=SolveCacheConfig(quantum=0.5),
        )
        daemon = TSDaemon(system, model, sampling_rate=1)
        workload = MasimWorkload(
            num_pages=system.space.num_pages, ops_per_window=5000, seed=3
        )
        run_windows(daemon, workload, 4)
        hits = [e for e in model.events if e.cached]
        assert model.stats.cache_hits == len(hits) > 0
        expected = modeled_hit_ns(
            system.space.num_regions, len(system.tiers)
        )
        for event in hits:
            assert event.solve_ns == pytest.approx(expected)
            assert event.queue_ns == 0.0
            assert event.signature
