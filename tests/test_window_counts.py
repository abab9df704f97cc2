"""Windows are per-page count vectors: equivalence to the id path.

The i.i.d. samplers draw a window's counts directly (one multinomial
over the pages their hot-rank table touches) and the PEBS sampler thins
by position; both must equal the id path -- ``bincount`` of sampled ids,
Bernoulli thinning of the expanded ids -- in distribution.  Each
comparison is a chi-square test at fixed seeds, so the suite is
deterministic; ``ALPHA`` is the rejection level.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.mem.page import PAGES_PER_REGION
from repro.telemetry.pebs import PEBSSampler
from repro.workloads.base import (
    SEARCH_MIN_IDS_PER_PAGE,
    Workload,
    count_ids,
    expand_counts,
)
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


# -- ids -> counts ----------------------------------------------------------

#: Out-of-range ids mixed into windows: far and near either end.
_OUTSIDE_LOW = (-(2**40), -3, -1)


def _reference_count_ids(ids, num_pages):
    kept = ids[(ids >= 0) & (ids < num_pages)]
    return np.bincount(kept, minlength=num_pages), len(ids) - len(kept)


def _assert_counts_like_reference(ids, num_pages):
    """Untrusted windows always; trusted ones too while ``bincount`` of
    the whole window stays small (no id past 2**20)."""
    expected, expected_rejected = _reference_count_ids(ids, num_pages)
    trust = (False, True) if not len(ids) or ids.max() < 2**20 else (False,)
    for trusted in trust:
        counts, rejected = count_ids(ids, num_pages, trusted=trusted)
        assert counts.dtype == expected.dtype
        assert counts.shape == expected.shape == (num_pages,)
        assert np.array_equal(counts, expected)
        assert rejected == expected_rejected


@settings(max_examples=300, deadline=None)
@given(
    num_pages=st.integers(1, 16),
    # Up to 600 ids: windows both shorter and longer than the search
    # threshold of SEARCH_MIN_IDS_PER_PAGE * num_pages in-range ids.
    length=st.integers(0, 600),
    low=st.integers(0, 4),
    high=st.integers(0, 4),
    ascending=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_pages=4, length=0, low=0, high=0, ascending=True, seed=0)
@example(num_pages=4, length=1, low=0, high=0, ascending=True, seed=0)
@example(num_pages=4, length=1, low=1, high=0, ascending=True, seed=0)
@example(num_pages=1, length=0, low=2, high=3, ascending=True, seed=1)
@example(num_pages=1, length=0, low=2, high=3, ascending=False, seed=1)
@example(num_pages=3, length=48, low=1, high=1, ascending=True, seed=2)
def test_count_ids_matches_filter_and_bincount(
    num_pages, length, low, high, ascending, seed
):
    """``length`` in-range ids plus ``low`` ids below 0 and ``high`` at or
    past ``num_pages`` (±2**40 included), ascending or shuffled."""
    rng = np.random.default_rng(seed)
    outside_high = (num_pages, num_pages + 2, 2**40)
    ids = np.concatenate(
        (
            rng.integers(0, num_pages, size=length),
            rng.choice(_OUTSIDE_LOW, size=low),
            rng.choice(outside_high, size=high),
        )
    ).astype(np.int64)
    if ascending:
        ids.sort()
    else:
        rng.shuffle(ids)
    _assert_counts_like_reference(ids, num_pages)


@pytest.mark.parametrize("num_pages", [1, 5, 512])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("ends", [(0, 0), (2, 0), (0, 2), (1, 3)])
def test_count_ids_at_the_search_threshold(num_pages, extra, ends):
    """Ascending windows one id short of, at and past the search
    threshold, with out-of-range ids at neither, either or both ends."""
    rng = np.random.default_rng(num_pages)
    kept = SEARCH_MIN_IDS_PER_PAGE * num_pages + extra
    ids = np.sort(
        np.concatenate(
            (
                rng.integers(0, num_pages, size=kept),
                np.full(ends[0], -(2**40)),
                np.full(ends[1], num_pages),
            )
        )
    )
    _assert_counts_like_reference(ids, num_pages)


def test_count_ids_inverts_expand_counts():
    rng = np.random.default_rng(4)
    counts = rng.multinomial(60_000, np.full(1024, 1 / 1024))
    back, rejected = count_ids(expand_counts(counts), 1024)
    assert rejected == 0
    assert np.array_equal(back, counts)


_SWEEP = np.arange(50_000, dtype=np.int64) * 512 // 50_000


@pytest.mark.parametrize(
    "ids",
    [
        np.arange(100_000, dtype=np.int64)[::-1] % 512,
        # a PageRank-like window: ascending edge pages, then random
        # vertex pages
        np.concatenate(
            (_SWEEP, np.random.default_rng(0).integers(0, 512, 50_000))
        ),
    ],
    ids=["reversed", "sorted-head"],
)
def test_unsorted_window_fails_an_order_probe(ids):
    """A window out of order in its first or last ids never pays for the
    full order pass (its comparison array would be as long as the
    window)."""
    seen = []

    class Probe(np.ndarray):
        def __ge__(self, other):
            seen.append(np.size(self))
            return np.ndarray.__ge__(self, other)

    counts, rejected = count_ids(ids.view(Probe), 512)
    assert rejected == 0
    assert np.array_equal(counts, np.bincount(ids, minlength=512))
    assert seen and max(seen) < 100


# -- the drifting hot set's page probabilities --------------------------------


def _rebuilt_counts(gen, size, rng, lut, minlength):
    """``HotWarmColdGenerator.sample_counts`` with the hot-page pmf
    rebuilt from the rotated table every window: a weighted ``bincount``
    over the table, then ``flatnonzero``."""
    masses = np.array([gen.hot_mass, gen.warm_mass, 0.0])
    masses[2] = max(0.0, 1.0 - masses[0] - masses[1])
    n_hot, n_warm, n_cold = rng.multinomial(size, masses).tolist()
    warm = gen.hot_items + rng.integers(0, gen.warm_items, size=n_warm)
    cold = gen.hot_items + gen.warm_items + gen._cold.map(
        rng.integers(0, gen.cold_items, size=n_cold)
    )
    items = np.concatenate((warm, cold))
    rest = np.bincount(
        items if lut is None else lut.take(items), minlength=minlength
    )
    head = np.arange(gen.hot_items) if lut is None else lut[: gen.hot_items]
    offset = gen._hot_offset
    table = np.concatenate((head[offset:], head[:offset]))
    mass = np.bincount(table, weights=gen._hot._probabilities)
    entries = np.flatnonzero(mass)
    pmf = mass[entries] / mass[entries].sum()
    counts = np.zeros(max(rest.size, int(entries[-1]) + 1), dtype=np.int64)
    counts[entries] = rng.multinomial(n_hot, pmf)
    counts[: rest.size] += rest
    return counts


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(12, 3000),
    theta=st.floats(0.0, 1.6, allow_nan=False),
    drift=st.floats(0.02, 0.6),
    table=st.sampled_from(["none", "pages", "drifting"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1000, theta=0.99, drift=0.08, table="pages", seed=7)
@example(n=1001, theta=0.99, drift=0.34, table="none", seed=8)
def test_rotated_hot_pmf_matches_rebuilding_it(n, theta, drift, table, seed):
    """Counts and RNG state equal the rebuild path's for every window past
    a full rotation of the hot set.  ``pages`` is an item -> page table
    with 4 items per page, whose last hot page is shared with warm items
    when ``hot_items % 4``; ``drifting`` hands in a new table each
    window, like a key layout that drifts too."""
    params = dict(hot_fraction=0.17, warm_fraction=0.3, hot_theta=theta,
                  hot_drift_fraction=drift)
    gen = HotWarmColdGenerator(n, **params)
    ref = HotWarmColdGenerator(n, **params)
    layout = np.random.default_rng(seed).permutation(-(-n // 4)).repeat(4)
    pages = layout.max() + 1
    windows = gen.hot_items // max(1, gen._hot_step) + 3
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for w in range(windows):
        lut = {"none": None, "pages": layout, "drifting": np.roll(layout, w)}
        lut = lut[table]
        size = 500 + w
        got = gen.sample_counts(size, rng, lut=lut, minlength=pages)
        want = _rebuilt_counts(ref, size, ref_rng, lut, pages)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        gen.advance()
        ref.advance()
    restored = pickle.loads(pickle.dumps(gen))
    hot = restored._hot
    assert hot._ranks is None and hot._pmf is None
    assert hot._pmf_lut is None and hot._pmf_shift is None
    assert not any(name.startswith("_hot_table") for name in vars(restored))


def test_shifted_zipfian_sample_is_the_rotated_table():
    gen = ZipfianGenerator(101, theta=0.9)
    lut = np.random.default_rng(1).permutation(101) // 4
    for shift in (0, 1, 37, 100):
        rotated = np.concatenate((lut[shift:], lut[:shift]))
        identity = np.roll(np.arange(101), -shift)
        for table, plain in ((lut, rotated), (None, identity)):
            rng = np.random.default_rng(shift)
            got = gen.sample(2000, rng, lut=table, shift=shift)
            want = gen.sample(2000, np.random.default_rng(shift), lut=plain)
            assert np.array_equal(got, want)
