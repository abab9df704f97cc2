"""Tests for the workload generators and distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeding import derive_rng
from repro.mem.page import PAGES_PER_REGION
from repro.workloads.base import Workload
from repro.workloads.distributions import (
    ChurningColdSet,
    GaussianGenerator,
    HotspotGenerator,
    HotWarmColdGenerator,
    UniformGenerator,
    ZipfianGenerator,
)
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.graph import BFSWorkload, PageRankWorkload
from repro.workloads.graphsage import GraphSAGEWorkload
from repro.workloads.kv import KVWorkload
from repro.workloads.live import (
    FlashCrowdWorkload,
    TenantChurnWorkload,
    diurnal_kv,
    flash_crowd_kv,
)
from repro.workloads.masim import MasimWorkload
from repro.workloads.registry import WORKLOADS, make_workload, workload_table
from repro.workloads.rmat import degrees, rmat_edges, to_csr
from repro.workloads.xsbench import XSBenchWorkload


class TestDistributions:
    def test_zipfian_skew(self, rng):
        gen = ZipfianGenerator(1000, theta=0.99)
        samples = gen.sample(50_000, rng)
        assert (samples >= 0).all() and (samples < 1000).all()
        top10 = (samples < 10).mean()
        assert top10 > 0.25  # top 1 % of ranks takes >25 % of accesses

    def test_zipfian_theta_zero_uniform(self, rng):
        gen = ZipfianGenerator(100, theta=0.0)
        samples = gen.sample(50_000, rng)
        counts = np.bincount(samples, minlength=100)
        assert counts.min() > 300  # roughly uniform

    def test_zipfian_rejects_short_lut(self, rng):
        with pytest.raises(ValueError, match="lut has 5 entries"):
            ZipfianGenerator(10).sample(5, rng, lut=np.arange(5))

    def test_gaussian_centered(self, rng):
        gen = GaussianGenerator(10_000, center_fraction=0.5, std_fraction=0.05)
        samples = gen.sample(20_000, rng)
        assert abs(samples.mean() - 5000) < 200
        assert (samples >= 0).all() and (samples < 10_000).all()

    def test_hotspot_fractions(self, rng):
        gen = HotspotGenerator(1000, hot_fraction=0.1, hot_access_prob=0.9)
        samples = gen.sample(50_000, rng)
        hot_share = (samples < 100).mean()
        assert 0.85 < hot_share < 0.95

    def test_uniform_range(self, rng):
        samples = UniformGenerator(50).sample(10_000, rng)
        assert set(np.unique(samples)) <= set(range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            GaussianGenerator(10, std_fraction=0.0)
        with pytest.raises(ValueError):
            HotspotGenerator(10, hot_fraction=0.0)


class TestChurningColdSet:
    def test_confined_to_active_window(self, rng):
        churn = ChurningColdSet(1000, active_fraction=0.05, advance_fraction=0.02)
        draws = rng.integers(0, 1000, 5000)
        mapped = churn.map(draws)
        assert len(np.unique(mapped)) <= 50

    def test_advance_rotates(self, rng):
        churn = ChurningColdSet(1000, active_fraction=0.05, advance_fraction=0.10)
        draws = rng.integers(0, 1000, 5000)
        before = set(np.unique(churn.map(draws)))
        churn.advance()
        after = set(np.unique(churn.map(draws)))
        assert before != after

    def test_wraps_around(self, rng):
        churn = ChurningColdSet(100, active_fraction=0.5, advance_fraction=0.9)
        for _ in range(5):
            churn.advance()
        mapped = churn.map(rng.integers(0, 100, 1000))
        assert (mapped >= 0).all() and (mapped < 100).all()


class TestHotWarmCold:
    def test_population_structure(self, rng):
        gen = HotWarmColdGenerator(
            10_000,
            hot_fraction=0.1,
            warm_fraction=0.3,
            hot_mass=0.9,
            warm_mass=0.05,
        )
        samples = gen.sample(100_000, rng)
        hot_share = (samples < gen.hot_items).mean()
        warm_mask = (samples >= gen.hot_items) & (
            samples < gen.hot_items + gen.warm_items
        )
        assert 0.87 < hot_share < 0.93
        assert 0.03 < warm_mask.mean() < 0.08

    def test_cold_accesses_clustered(self, rng):
        gen = HotWarmColdGenerator(10_000, cold_active_fraction=0.02)
        samples = gen.sample(100_000, rng)
        cold = samples[samples >= gen.hot_items + gen.warm_items]
        # Cold accesses hit only the small active window.
        assert len(np.unique(cold)) <= gen._cold.active + 1

    def test_hot_drift(self, rng):
        gen = HotWarmColdGenerator(
            10_000, hot_drift_fraction=0.5, hot_mass=1.0, warm_mass=0.0
        )
        first = set(np.unique(gen.sample(5000, rng)))
        gen.advance()
        second = set(np.unique(gen.sample(5000, rng)))
        assert first != second

    def test_validation(self):
        with pytest.raises(ValueError):
            HotWarmColdGenerator(100, hot_fraction=0.6, warm_fraction=0.5)
        with pytest.raises(ValueError):
            HotWarmColdGenerator(100, hot_mass=0.9, warm_mass=0.2)


class TestKVWorkload:
    def test_page_range_and_determinism(self):
        w1 = KVWorkload.memcached_ycsb(num_pages=1024, ops_per_window=10_000)
        w2 = KVWorkload.memcached_ycsb(num_pages=1024, ops_per_window=10_000)
        batch1, batch2 = w1.next_window(), w2.next_window()
        assert (batch1 == batch2).all()
        assert batch1.min() >= 0 and batch1.max() < 1024

    def test_reset(self):
        w = KVWorkload.memcached_memtier(num_pages=1024, ops_per_window=5000)
        first = w.next_window()
        w.reset()
        assert (w.next_window() == first).all()
        assert w.window == 1

    def test_layout_block_shuffle_preserves_coverage(self):
        w = KVWorkload(
            "t", num_pages=1024, ops_per_window=1000, layout_block_pages=256
        )
        assert sorted(w._page_of_block.tolist()) == list(range(1024))

    def test_factories_named(self):
        assert KVWorkload.memcached_ycsb(num_pages=1024).name == "memcached-ycsb"
        assert KVWorkload.redis_ycsb(num_pages=1024).name == "redis-ycsb"
        assert "memtier" in KVWorkload.memcached_memtier(num_pages=1024).name

    def test_value_size_validation(self):
        with pytest.raises(ValueError):
            KVWorkload.memcached_memtier(num_pages=1024, value_kb=2)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            KVWorkload("t", num_pages=1024, layout_block_pages=300)


def _reference_kv_windows(
    num_pages, ops, opp, drift_per_window, block, seed, gen, windows, reset_at
):
    """The rank -> key -> page pipeline, one pass per step.

    Item ids first (Zipfian ranks via ``rng.choice``, hot-set rotation,
    warm and churning-cold draws), then the KV drift rotation, the
    key -> page division and the layout gather.  ``gen`` supplies only
    parameters (population sizes, rank probabilities, drift steps); a
    plain :class:`ZipfianGenerator` stands for the whole keyspace.
    ``reset_at`` is the window index at which to rewind everything.
    """
    keys_total = num_pages * opp
    num_blocks = num_pages // block
    perm = derive_rng(seed, 0x5EED).permutation(num_blocks)
    page_of_block = (perm[:, None] * block + np.arange(block)[None, :]).ravel()
    hwc = isinstance(gen, HotWarmColdGenerator)
    batches = []
    for i in range(windows):
        if i in (0, reset_at):
            rng = np.random.default_rng(seed)
            drift = hot_offset = cold_offset = 0
        if not hwc:
            items = rng.choice(keys_total, size=ops, p=gen._probabilities)
        else:
            comp = rng.random(ops)
            hot = comp < gen.hot_mass
            warm = ~hot & (comp < gen.hot_mass + gen.warm_mass)
            cold = ~hot & ~warm
            items = np.empty(ops, dtype=np.int64)
            if hot.any():
                ranks = rng.choice(
                    gen.hot_items, size=int(hot.sum()), p=gen._hot._probabilities
                )
                items[hot] = (ranks + hot_offset) % gen.hot_items
            if warm.any():
                items[warm] = gen.hot_items + rng.integers(
                    0, gen.warm_items, size=int(warm.sum())
                )
            if cold.any():
                draws = rng.integers(0, gen.cold_items, size=int(cold.sum()))
                active = (cold_offset + draws % gen._cold.active) % gen.cold_items
                items[cold] = gen.hot_items + gen.warm_items + active
            hot_offset = (hot_offset + gen._hot_step) % gen.hot_items
            cold_offset = (cold_offset + gen._cold.step) % gen.cold_items
        keys = (items + drift) % keys_total
        batches.append(page_of_block[keys // opp])
        drift = int((drift + drift_per_window * keys_total) % keys_total)
    return batches, rng


@settings(max_examples=40, deadline=None)
@given(
    regions=st.integers(1, 3),
    block=st.sampled_from([64, 128, 512]),
    opp=st.sampled_from([1, 3, 4]),
    ops=st.integers(1, 3000),
    drift_per_window=st.one_of(st.just(0.0), st.floats(0.001, 0.9)),
    hwc=st.booleans(),
    hot_fraction=st.floats(0.01, 0.3),
    hot_mass=st.floats(0.5, 1.0),
    warm_share=st.floats(0.0, 1.0),
    hot_drift_fraction=st.one_of(st.just(0.0), st.floats(0.001, 0.9)),
    windows=st.integers(1, 6),
    reset_at=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_kv_windows_match_reference_pipeline(
    regions, block, opp, ops, drift_per_window, hwc, hot_fraction, hot_mass,
    warm_share, hot_drift_fraction, windows, reset_at, seed,
):
    num_pages = regions * PAGES_PER_REGION
    keys_total = num_pages * opp
    if hwc:
        gen = HotWarmColdGenerator(
            keys_total,
            hot_fraction=hot_fraction,
            warm_fraction=0.3,
            hot_mass=hot_mass,
            warm_mass=warm_share * (1.0 - hot_mass),
            cold_advance_fraction=0.03,
            hot_drift_fraction=hot_drift_fraction,
        )
    else:
        gen = ZipfianGenerator(keys_total)
    w = KVWorkload(
        "ref", num_pages, ops_per_window=ops, distribution=gen,
        objects_per_page=opp, drift_per_window=drift_per_window,
        layout_block_pages=block, seed=seed,
    )
    got = []
    for i in range(windows):
        if i == reset_at:
            w.reset()
        got.append(w.next_window())
    want, ref_rng = _reference_kv_windows(
        num_pages, ops, opp, drift_per_window, block, seed, gen, windows,
        reset_at,
    )
    for g, x in zip(got, want):
        assert np.array_equal(g, x)
    assert w._rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)


class TestRMAT:
    def test_shape(self):
        edges = rmat_edges(scale=8, edge_factor=4, seed=0)
        assert edges.shape == (2, 4 * 256)
        assert edges.max() < 256

    def test_degree_skew(self):
        edges = rmat_edges(scale=12, edge_factor=8, seed=1)
        deg = degrees(edges, 1 << 12)
        # Power law: the max degree dwarfs the median.
        assert deg.max() > 20 * max(1, np.median(deg))

    def test_csr_roundtrip(self):
        edges = rmat_edges(scale=6, edge_factor=4, seed=2)
        offsets, targets = to_csr(edges, 64)
        assert offsets[-1] == edges.shape[1]
        for v in range(64):
            expected = sorted(edges[1][edges[0] == v].tolist())
            got = sorted(targets[offsets[v] : offsets[v + 1]].tolist())
            assert got == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            rmat_edges(scale=0)
        with pytest.raises(ValueError):
            rmat_edges(scale=4, a=0.9, b=0.3, c=0.3)


class TestGraphWorkloads:
    def test_pagerank_sweep_rotates(self):
        w = PageRankWorkload(scale=10, edge_factor=8, ops_per_window=2000)
        first = set(np.unique(w.next_window()))
        second = set(np.unique(w.next_window()))
        assert first != second  # the sweep moved on

    def test_pagerank_hubs_recur(self):
        w = PageRankWorkload(scale=10, edge_factor=8, ops_per_window=2000)
        batches = [set(np.unique(w.next_window())) for _ in range(4)]
        common = set.intersection(*batches)
        assert common  # hub vertex pages appear in every window

    def test_bfs_resumes_across_windows(self):
        w = BFSWorkload(scale=10, edge_factor=8, ops_per_window=1000)
        w.next_window()
        visited_after_one = int(w._visited.sum()) if w._visited is not None else 0
        w.next_window()
        visited_after_two = int(w._visited.sum()) if w._visited is not None else 0
        assert visited_after_two >= visited_after_one

    def test_bfs_within_budget_factor(self):
        w = BFSWorkload(scale=10, edge_factor=8, ops_per_window=1000)
        batch = w.next_window()
        assert len(batch) <= 1000

    def test_region_aligned(self):
        for w in (
            PageRankWorkload(scale=10, edge_factor=8),
            BFSWorkload(scale=10, edge_factor=8),
        ):
            assert w.num_pages % PAGES_PER_REGION == 0


class TestOtherWorkloads:
    def test_xsbench_index_hot(self):
        w = XSBenchWorkload(num_pages=4096, ops_per_window=5000)
        batch = w.next_window()
        index_share = (batch < w.index_pages).mean()
        expected = w.index_accesses / (w.index_accesses + w.data_accesses)
        assert abs(index_share - expected) < 0.05

    def test_xsbench_batch_size(self):
        w = XSBenchWorkload(num_pages=4096, ops_per_window=1000)
        assert len(w.next_window()) == 1000 * (
            w.index_accesses + w.data_accesses
        )

    def test_graphsage_epoch_sweep(self):
        w = GraphSAGEWorkload(scale=13, ops_per_window=5000)
        assert w._epoch_cursor == 0
        w.next_window()
        assert w._epoch_cursor > 0

    def test_masim_hot_set(self):
        w = MasimWorkload(num_pages=1024, ops_per_window=20_000, hot_fraction=0.1)
        batch = w.next_window()
        assert (batch < 103).mean() > 0.8

    def test_base_validation(self):
        with pytest.raises(ValueError):
            MasimWorkload(num_pages=100)  # less than one region
        with pytest.raises(ValueError):
            MasimWorkload(num_pages=1024, ops_per_window=0)


class TestDiurnalSeed:
    """Regression: the wrapper's ``seed`` must actually steer the stream.

    DiurnalWorkload used to pass its seed to the base class only; the
    phases kept streaming from their own constructor seeds, so two
    wrappers with different seeds produced identical accesses.
    """

    def _windows(self, seed, n=6):
        w = diurnal_kv(num_pages=1024, ops_per_window=2000, seed=seed)
        return [w.next_window().copy() for _ in range(n)]

    def test_same_seed_identical(self):
        for a, b in zip(self._windows(7), self._windows(7)):
            np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(self._windows(1), self._windows(2))
        )

    def test_phases_reseeded_onto_substreams(self):
        # Both phases are built from the same constructor seed; without
        # child-seed reseeding they would emit identical streams.
        w = DiurnalWorkload(
            phases=[
                KVWorkload.memcached_ycsb(num_pages=1024, ops_per_window=2000),
                KVWorkload.memcached_ycsb(num_pages=1024, ops_per_window=2000),
            ],
            windows_per_phase=1,
            seed=3,
        )
        first, second = w.next_window().copy(), w.next_window()
        assert not np.array_equal(first, second)

    def test_reset_replays(self):
        w = diurnal_kv(num_pages=1024, ops_per_window=2000, seed=9)
        first = [w.next_window().copy() for _ in range(5)]
        w.reset()
        for batch in first:
            np.testing.assert_array_equal(w.next_window(), batch)


class TestTenantChurn:
    def _make(self, seed=0):
        return TenantChurnWorkload(
            num_pages=1024, ops_per_window=5000, tenants=8, seed=seed
        )

    def test_range_and_determinism(self):
        w1, w2 = self._make(), self._make()
        for _ in range(4):
            a, b = w1.next_window(), w2.next_window()
            np.testing.assert_array_equal(a, b)
            assert a.min() >= 0 and a.max() < 1024

    def test_population_churns(self):
        w = self._make()
        initial = [s for s in w._slots]
        assert w.active_tenants == 6  # 8 slots * 0.75
        for _ in range(30):
            w.next_window()
        assert w._slots != initial
        assert 1 <= w.active_tenants <= 8

    def test_reset_replays_arrivals(self):
        w = self._make(seed=5)
        first = [w.next_window().copy() for _ in range(6)]
        slots = list(w._slots)
        w.reset()
        for batch in first:
            np.testing.assert_array_equal(w.next_window(), batch)
        assert w._slots == slots

    def test_validation(self):
        with pytest.raises(ValueError, match="slots"):
            TenantChurnWorkload(num_pages=1000, tenants=7)
        with pytest.raises(ValueError, match="active_fraction"):
            TenantChurnWorkload(num_pages=1024, active_fraction=0.0)
        with pytest.raises(ValueError, match="two tenant"):
            TenantChurnWorkload(num_pages=1024, tenants=1)


class TestFlashCrowd:
    def _make(self, seed=0, **kwargs):
        return flash_crowd_kv(
            num_pages=1024, ops_per_window=2000, seed=seed, **kwargs
        )

    def test_range_and_determinism(self):
        w1, w2 = self._make(seed=4), self._make(seed=4)
        for _ in range(6):
            a, b = w1.next_window(), w2.next_window()
            np.testing.assert_array_equal(a, b)
            assert a.min() >= 0 and a.max() < 1024

    def test_crowd_forms_and_concentrates(self):
        w = FlashCrowdWorkload(
            diurnal_kv(num_pages=1024, ops_per_window=2000, seed=2),
            arrival_prob=1.0,
            crowd_share=0.9,
            crowd_fraction=0.02,
            seed=2,
        )
        batch = w.next_window()
        assert w.crowd_active
        band = w.crowd_pages
        start = w._crowd_start
        in_band = ((batch >= start) & (batch < start + band)).mean()
        assert in_band >= 0.8  # ~crowd_share of traffic hit the band

    def test_crowd_expires(self):
        w = FlashCrowdWorkload(
            diurnal_kv(num_pages=1024, ops_per_window=2000, seed=2),
            arrival_prob=0.0,
            duration_windows=1,
            seed=2,
        )
        w.next_window()
        assert not w.crowd_active

    def test_reset_replays(self):
        w = self._make(seed=8)
        first = [w.next_window().copy() for _ in range(5)]
        w.reset()
        for batch in first:
            np.testing.assert_array_equal(w.next_window(), batch)

    def test_validation(self):
        base = diurnal_kv(num_pages=1024, ops_per_window=2000)
        with pytest.raises(ValueError, match="crowd_share"):
            FlashCrowdWorkload(base, crowd_share=1.5)
        with pytest.raises(ValueError, match="duration"):
            FlashCrowdWorkload(base, duration_windows=0)


class TestRegistry:
    def test_table2_rows(self):
        rows = workload_table()
        names = {r["workload"] for r in rows}
        assert {
            "memcached-ycsb",
            "redis-ycsb",
            "bfs",
            "pagerank",
            "xsbench",
            "graphsage",
        } <= names
        for row in rows:
            assert row["sim_rss_mb"] > 0

    def test_paper_rss_recorded(self):
        assert WORKLOADS["xsbench"].paper_rss_gb == 119.0
        assert WORKLOADS["redis-ycsb"].paper_rss_gb == 90.0

    def test_make_workload(self):
        w = make_workload("masim", num_pages=1024)
        assert isinstance(w, Workload)
        with pytest.raises(KeyError, match="available"):
            make_workload("spark")

    def test_live_workloads_registered_but_not_in_table(self):
        live = {"diurnal-kv", "tenant-churn", "flash-crowd", "trace"}
        assert live <= set(WORKLOADS)
        table_names = {r["workload"] for r in workload_table()}
        assert not (live & table_names)

    def test_make_live_workloads(self):
        w = make_workload(
            "tenant-churn", seed=3, num_pages=1024, ops_per_window=1000
        )
        assert isinstance(w, TenantChurnWorkload)
        assert make_workload(
            "diurnal-kv", seed=1, num_pages=1024, ops_per_window=1000
        ).name == "diurnal-kv"
