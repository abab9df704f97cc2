"""Windows are per-page count vectors: equivalence to the id path.

The i.i.d. samplers draw a window's counts directly (one multinomial
over the pages their hot-rank table touches) and the PEBS sampler thins
by position; both must equal the id path -- ``bincount`` of sampled ids,
Bernoulli thinning of the expanded ids -- in distribution.  Each
comparison is a chi-square test at fixed seeds, so the suite is
deterministic; ``ALPHA`` is the rejection level.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.mem.page import PAGES_PER_REGION
from repro.telemetry.pebs import PEBSSampler
from repro.workloads.base import Workload, expand_counts
from repro.workloads.distributions import HotWarmColdGenerator, ZipfianGenerator
from repro.workloads.masim import MasimWorkload
from repro.workloads.registry import WORKLOADS, make_workload
from repro.workloads.trace import record_trace

ALPHA = 1e-3

#: memcached-ycsb's population parameters (``KVWorkload.memcached_ycsb``)
#: and xsbench's data-table parameters (``XSBenchWorkload``).
YCSB = dict(
    hot_fraction=0.10,
    warm_fraction=0.30,
    hot_mass=0.988,
    warm_mass=0.005,
    hot_theta=0.99,
    cold_active_fraction=0.05,
    cold_advance_fraction=0.02,
    hot_drift_fraction=0.08,
)
XSBENCH = dict(
    hot_fraction=0.15,
    warm_fraction=0.35,
    hot_mass=0.90,
    warm_mass=0.08,
    hot_theta=0.8,
    cold_active_fraction=0.06,
    cold_advance_fraction=0.03,
)


def homogeneity_p(a: np.ndarray, b: np.ndarray, min_expected: float = 5.0):
    """Chi-square test that two count vectors share one distribution.

    Bins whose expected count is below ``min_expected`` are pooled into
    one, so the test's approximation holds.
    """
    total = a + b
    expected_min = np.minimum(a.sum(), b.sum()) * total / total.sum()
    big = expected_min >= min_expected
    table = np.stack((a[big], b[big]), axis=1)
    rest = np.array([[a[~big].sum(), b[~big].sum()]])
    if rest.sum():
        table = np.concatenate((table, rest))
    return stats.chi2_contingency(table.T, correction=False).pvalue


def _windows(gen, size, windows, seed, lut, minlength, direct):
    """Sum of ``windows`` windows (the generator advancing between them)
    drawn by ``sample_counts`` or by the bincount of ``sample``."""
    rng = np.random.default_rng(seed)
    total = np.zeros(minlength, dtype=np.int64)
    for _ in range(windows):
        if direct:
            total += gen.sample_counts(size, rng, lut=lut, minlength=minlength)
        else:
            total += np.bincount(gen.sample(size, rng, lut=lut), minlength=minlength)
        gen.advance()
    gen.reset()
    return total


@pytest.mark.parametrize(
    "params, items, keys_per_page",
    [(YCSB, 4 * 1024, 4), (XSBENCH, 4096, 1)],
    ids=["ycsb", "xsbench"],
)
def test_hot_warm_cold_counts_match_bincount_of_ids(params, items, keys_per_page):
    gen = HotWarmColdGenerator(items, **params)
    lut = np.arange(items) // keys_per_page if keys_per_page > 1 else None
    pages = items // keys_per_page
    direct = np.zeros(pages, dtype=np.int64)
    via_ids = np.zeros(pages, dtype=np.int64)
    for seed in range(4):
        direct += _windows(gen, 20_000, 8, seed, lut, pages, True)
        via_ids += _windows(gen, 20_000, 8, 100 + seed, lut, pages, False)
    assert direct.sum() == via_ids.sum() == 4 * 8 * 20_000
    assert homogeneity_p(direct, via_ids) > ALPHA


def test_cold_modulo_bias_is_reproduced():
    """``ChurningColdSet.map`` folds ``cold_items`` uniform draws onto
    ``active`` slots by ``%``; when ``active`` does not divide
    ``cold_items`` the low residues get one extra draw each.  The counts
    path must carry that bias, not a uniform active window."""
    gen = HotWarmColdGenerator(
        100,
        hot_fraction=0.1,
        warm_fraction=0.3,
        hot_mass=0.1,
        warm_mass=0.1,
        cold_active_fraction=0.7,
        cold_advance_fraction=0.0,
    )
    cold, active = gen.cold_items, gen._cold.active
    assert cold % active  # 60 items folded onto 42 slots
    # Exact item probabilities: Zipfian hot, uniform warm, biased cold.
    pmf = np.zeros(100)
    pmf[: gen.hot_items] = gen.hot_mass * gen._hot._probabilities
    pmf[gen.hot_items : gen.hot_items + gen.warm_items] = (
        gen.warm_mass / gen.warm_items
    )
    residues = np.bincount(np.arange(cold) % active, minlength=active)
    base = gen.hot_items + gen.warm_items
    pmf[base : base + active] = (1 - gen.hot_mass - gen.warm_mass) * (
        residues / cold
    )
    rng = np.random.default_rng(0)
    counts = sum(gen.sample_counts(5_000, rng, minlength=100) for _ in range(40))
    assert counts.sum() == 200_000
    support = pmf > 0  # cold items outside the active window idle
    assert not counts[~support].any()
    expected = 200_000 * pmf[support] / pmf[support].sum()
    assert stats.chisquare(counts[support], expected).pvalue > ALPHA
    # The bias is visible: a low residue gets about twice a high one.
    low = counts[base : base + cold % active].mean()
    high = counts[base + cold % active : base + active].mean()
    assert 1.8 < low / high < 2.2
    via_ids = np.bincount(
        np.concatenate([gen.sample(5_000, rng) for _ in range(40)]),
        minlength=100,
    )
    assert homogeneity_p(counts, via_ids) > ALPHA


def test_zipfian_counts_with_a_table_match_bincount_of_ids():
    gen = ZipfianGenerator(3000, theta=0.99)
    lut = np.random.default_rng(5).permutation(3000) // 3  # 3 ranks/page
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(2)
    direct = sum(gen.sample_counts(10_000, rng_a, lut=lut) for _ in range(20))
    via_ids = np.bincount(
        np.concatenate([gen.sample(10_000, rng_b, lut=lut) for _ in range(20)])
    )
    assert direct.shape == via_ids.shape == (1000,)
    assert homogeneity_p(direct, via_ids) > ALPHA


def test_pebs_by_position_matches_bernoulli_thinning():
    """Sample totals and their allocation over regions, against Bernoulli
    thinning of the same window's expanded ids."""
    rate, trials = 50, 600
    rng0 = np.random.default_rng(3)
    # 64 touched pages over 40 regions, the last one partial.
    num_pages = 40 * PAGES_PER_REGION - 100
    counts = np.zeros(num_pages, dtype=np.int64)
    touched_pages = rng0.choice(num_pages, size=64, replace=False)
    counts[touched_pages] = rng0.zipf(1.6, size=64).clip(1, 4000)
    ids = expand_counts(counts)
    n = int(counts.sum())
    region_counts = np.bincount(
        np.arange(num_pages) // PAGES_PER_REGION, weights=counts
    )
    touched = region_counts > 0

    sampler = PEBSSampler(rate=rate, seed=7)
    rng = np.random.default_rng(8)
    totals = np.empty((2, trials), dtype=np.int64)
    per_region = np.zeros((2, len(region_counts)), dtype=np.int64)
    for t in range(trials):
        by_position = sampler.sample(counts)
        thinned = ids[rng.random(n) < 1.0 / rate]
        thinned = np.bincount(
            thinned // PAGES_PER_REGION, minlength=len(region_counts)
        )
        for side, sampled in enumerate((by_position, thinned)):
            totals[side, t] = sampled.sum()
            per_region[side] += sampled

    # Totals: Binomial(n, 1/R) on both sides, binned at quantiles.
    edges = np.quantile(totals, np.linspace(0, 1, 9)[1:-1])
    binned = [np.bincount(np.searchsorted(edges, t), minlength=8) for t in totals]
    assert homogeneity_p(*binned) > ALPHA
    expected = n / rate
    assert abs(totals[0].mean() - expected) < 4 * np.sqrt(expected / trials)
    # Allocation: proportional to the region's accesses on both sides,
    # and never to a region without accesses.
    assert homogeneity_p(per_region[0], per_region[1]) > ALPHA
    assert not per_region[0][~touched].any()
    gof = stats.chisquare(
        per_region[0][touched],
        per_region[0].sum() * region_counts[touched] / n,
    )
    assert gof.pvalue > ALPHA
    assert sampler.events_seen == trials * n


#: Small inputs for every registered workload (``trace`` gets a path).
SMALL = {
    "memcached-ycsb": dict(num_pages=1024, ops_per_window=5000),
    "memcached-memtier": dict(num_pages=1024, ops_per_window=5000),
    "redis-ycsb": dict(num_pages=1024, ops_per_window=5000),
    "bfs": dict(scale=10, edge_factor=8, ops_per_window=2000),
    "pagerank": dict(scale=10, edge_factor=8, ops_per_window=2000),
    "xsbench": dict(num_pages=2048, ops_per_window=500),
    "graphsage": dict(scale=12, ops_per_window=2000),
    "masim": dict(num_pages=1024, ops_per_window=2000),
    "diurnal-kv": dict(num_pages=1024, ops_per_window=2000),
    "tenant-churn": dict(num_pages=1024, ops_per_window=2000),
    "flash-crowd": dict(num_pages=1024, ops_per_window=2000),
    "pingpong": dict(num_pages=1024, ops_per_window=2000),
    "trace": dict(),
}


def test_every_registered_workload_is_covered():
    assert set(SMALL) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_next_window_is_a_count_vector(name, tmp_path):
    kwargs = dict(SMALL[name])
    if name == "trace":
        source = MasimWorkload(num_pages=1024, ops_per_window=2000, seed=3)
        kwargs["path"] = record_trace(source, 2, tmp_path / "t.npz")
    workload = make_workload(name, seed=1, **kwargs)
    per_op = 1
    if name == "xsbench":
        per_op = workload.index_accesses + workload.data_accesses
    for _ in range(4):
        window = workload.next_window()
        assert window.shape == (workload.num_pages,)
        assert window.dtype == np.int64
        assert window.min() >= 0
        assert window.sum() == workload.ops_per_window * per_op


@pytest.mark.parametrize("bad", [-1, 512], ids=["negative", "past-the-end"])
def test_ordered_generator_out_of_range_id_raises(bad):
    class Ordered(Workload):
        name = "ordered"

        def _generate(self, rng):
            return np.array([0, 3, bad, 7])

    with pytest.raises(AssertionError, match="out-of-range"):
        Ordered(num_pages=512, ops_per_window=4).next_window()
