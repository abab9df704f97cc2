"""Property tests pinning the vectorized hot paths to scalar references.

The batched implementations in :mod:`repro.mem.system` and the bulk
allocator paths exist purely for speed; semantically each must be
indistinguishable from the per-page / per-object loops they replaced.
Hypothesis drives random placements, batches and size streams through
both and compares the full observable state.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators import ZsmallocAllocator
from repro.allocators.zbud import ZbudAllocator
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import _PAGE_CHUNKS, TieredMemorySystem
from repro.mem.tier import ByteAddressableTier
from repro.workloads.distributions import ZipfianGenerator

from tests.conftest import make_tiers


def _make_system(seed: int) -> TieredMemorySystem:
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=seed)
    return TieredMemorySystem(make_tiers(space), space)


def _scatter(system: TieredMemorySystem, rng: np.random.Generator) -> None:
    """Random placement: spread regions and stray pages across tiers."""
    for region in range(system.space.num_regions):
        system.move_region(region, int(rng.integers(0, len(system.tiers))))
    for page in rng.integers(0, system.space.num_pages, size=16):
        system.move_page(int(page), int(rng.integers(0, len(system.tiers))))


def _scalar_access_batch(system, page_ids, write_fraction):
    """Per-page reference implementation of ``access_batch``.

    Mirrors the pre-vectorization loop: pages grouped by tier in tier
    order, compressed pages faulted one at a time with the promotion
    target re-resolved per page.  Returns ``(access_ns, faults,
    histogram)`` and applies the same state mutations.
    """
    pages, counts = np.unique(np.asarray(page_ids), return_counts=True)
    system.last_access_window[pages] = system.current_window
    total = int(counts.sum())
    system.clock.total_accesses += total
    system.clock.optimal_ns += total * system.dram.media.read_ns
    access_ns = 0.0
    faults = 0
    histogram = []
    locations = system.page_location[pages]
    for idx, tier in enumerate(system.tiers):
        mask = locations == idx
        if not mask.any():
            continue
        tier_counts = counts[mask]
        if isinstance(tier, ByteAddressableTier):
            n_acc = int(tier_counts.sum())
            ns = tier.access_ns(n_acc, write_fraction)
            tier.stats.accesses += n_acc
            access_ns += ns
            histogram.append((ns / n_acc, n_acc))
            continue
        for page, count in zip(pages[mask].tolist(), tier_counts.tolist()):
            fault_ns = tier.remove_page(page, fault=True)
            tier.stats.accesses += 1
            faults += 1
            t_idx = system._promotion_target()
            target = system.tiers[t_idx]
            target.add_pages(1)
            system.page_location[page] = t_idx
            fault_ns += target.media.write_ns * _PAGE_CHUNKS
            access_ns += fault_ns
            histogram.append((fault_ns, 1))
            rest = count - 1
            if rest:
                per_access = target.media.read_ns * (
                    1.0 - write_fraction
                ) + target.media.write_ns * write_fraction
                rest_ns = rest * per_access
                target.stats.accesses += rest
                access_ns += rest_ns
                histogram.append((rest_ns / rest, rest))
    system.clock.access_ns += access_ns
    return access_ns, faults, histogram


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    batch_seed=st.integers(0, 10_000),
    write_fraction=st.floats(0.0, 0.5),
)
def test_access_batch_matches_scalar_reference(seed, batch_seed, write_fraction):
    system = _make_system(seed)
    _scatter(system, np.random.default_rng(seed))
    reference = copy.deepcopy(system)

    rng = np.random.default_rng(batch_seed)
    batch = rng.integers(0, system.space.num_pages, size=int(rng.integers(1, 400)))

    result = system.access_batch(batch, write_fraction)
    ref_ns, ref_faults, ref_hist = _scalar_access_batch(
        reference, batch, write_fraction
    )

    assert np.array_equal(system.page_location, reference.page_location)
    assert result.faults == ref_faults
    for got, want in zip(system.tiers, reference.tiers):
        assert got.stats.accesses == want.stats.accesses
        assert got.used_pages == want.used_pages
    assert np.isclose(result.access_ns, ref_ns, rtol=1e-12)
    assert np.isclose(system.clock.access_ns, reference.clock.access_ns, rtol=1e-12)
    assert len(result.latency_histogram) == len(ref_hist)
    assert np.allclose(
        np.asarray(result.latency_histogram), np.asarray(ref_hist), rtol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_placement_counts_conserved_across_migration_waves(seed, data):
    system = _make_system(seed)
    rng = np.random.default_rng(seed)
    num_pages = system.space.num_pages
    waves = data.draw(st.integers(1, 6))
    for _ in range(waves):
        for region in rng.permutation(system.space.num_regions):
            system.move_region(
                int(region),
                int(rng.integers(0, len(system.tiers))),
                recency_windows=int(rng.integers(0, 3)),
            )
        system.advance_window()
        counts = system.placement_counts()
        assert counts.sum() == num_pages
        for idx, tier in enumerate(system.tiers):
            if isinstance(tier, ByteAddressableTier):
                assert counts[idx] == tier.used_pages
            else:
                assert counts[idx] == tier.resident_pages


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4096), min_size=0, max_size=300),
    free_seed=st.integers(0, 10_000),
    allocator_cls=st.sampled_from([ZsmallocAllocator, ZbudAllocator]),
)
def test_store_many_free_many_match_sequential(sizes, free_seed, allocator_cls):
    bulk = allocator_cls(arena_pages=1 << 12)
    sequential = allocator_cls(arena_pages=1 << 12)

    bulk_handles = bulk.store_many(sizes)
    seq_handles = [sequential.store(size) for size in sizes]
    assert bulk_handles == seq_handles

    assert bulk.pool_pages == sequential.pool_pages
    assert bulk.stored_bytes == sequential.stored_bytes
    assert bulk.stored_objects == sequential.stored_objects
    assert bulk._next_id == sequential._next_id

    # Free a random subset in bulk vs one at a time.
    rng = np.random.default_rng(free_seed)
    keep = rng.random(len(sizes)) < 0.5
    drop = [h for h, k in zip(bulk_handles, keep) if not k]
    bulk.free_many(drop)
    for handle in drop:
        sequential.free(handle)
    assert bulk.pool_pages == sequential.pool_pages
    assert bulk.stored_bytes == sequential.stored_bytes
    assert bulk.stored_objects == sequential.stored_objects


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_csize_and_accept_caches_match_scalar(seed, data):
    system = _make_system(seed)
    # Overwrite compressibility with adversarial values (clamp-floor and
    # reject-threshold neighbourhoods included) before any cache fills.
    n = system.space.num_pages
    values = data.draw(
        st.lists(
            st.floats(1e-9, 1.0, allow_nan=False, exclude_min=False),
            min_size=8,
            max_size=8,
        )
    )
    rng = np.random.default_rng(seed)
    comp = rng.random(n)
    comp[rng.integers(0, n, size=len(values))] = values
    system.space.compressibility = np.clip(comp, 1e-9, 1.0)

    ct_idx = next(
        i
        for i, tier in enumerate(system.tiers)
        if not isinstance(tier, ByteAddressableTier)
    )
    tier = system.tiers[ct_idx]
    ids = rng.integers(0, n, size=64)
    got_sizes = system._tier_csizes(ct_idx, ids)
    got_accepts = system._tier_accepts(ct_idx, ids)
    for pid, size, ok in zip(ids.tolist(), got_sizes.tolist(), got_accepts.tolist()):
        intrinsic = float(system.space.compressibility[pid])
        assert size == tier.algorithm.compressed_size(intrinsic)
        assert ok == tier.accepts(intrinsic)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_move_pages_matches_scalar_reference(seed, data):
    """The batched SoA migration path == the per-page move_page loop."""
    system = _make_system(seed)
    rng = np.random.default_rng(seed)
    _scatter(system, rng)
    reference = copy.deepcopy(system)

    for _ in range(data.draw(st.integers(1, 5))):
        region = int(rng.integers(0, system.space.num_regions))
        dst = int(rng.integers(0, len(system.tiers)))
        pages = system.space.regions[region].pages()
        page_ids = np.arange(pages.start, pages.stop, dtype=np.int64)
        got = system._move_pages(page_ids, dst)
        want = reference._move_pages_scalar(page_ids, dst)
        assert np.isclose(got, want, rtol=1e-12)

    assert np.array_equal(system.page_location, reference.page_location)
    assert np.isclose(
        system.clock.migration_ns, reference.clock.migration_ns, rtol=1e-12
    )
    assert system.migrated_pages == reference.migrated_pages
    for got_t, want_t in zip(system.tiers, reference.tiers):
        assert got_t.used_pages == want_t.used_pages
        assert got_t.stats.snapshot() == want_t.stats.snapshot()
        if got_t.is_compressed:
            assert got_t.resident_pages == want_t.resident_pages
            assert got_t.allocator.stored_bytes == want_t.allocator.stored_bytes
            assert got_t.allocator.stored_objects == want_t.allocator.stored_objects
            assert got_t.allocator.pool_pages == want_t.allocator.pool_pages


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 500))
def test_checkpoint_roundtrip_resumes_identically(seed):
    """Capture mid-run (v2 array path), restore, finish == uninterrupted."""
    from repro.chaos.checkpoint import capture_session, restore_session
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    spec = ScenarioSpec(
        workload="memcached-ycsb",
        workload_kwargs={
            "num_pages": 2 * PAGES_PER_REGION,
            "ops_per_window": 2000,
        },
        policy="waterfall",
        windows=4,
        seed=seed,
    )
    full = Session(spec)
    for _ in range(4):
        full.run_window()

    half = Session(spec)
    for _ in range(2):
        half.run_window()
    resumed, _, done = restore_session(capture_session(half))
    assert done == 2
    # The restored page table carries the exact columns of the captured
    # system (the array path is lossless).
    for name, col in half.system.pt.columns().items():
        assert np.array_equal(col, getattr(resumed.system.pt, name)), name
    for _ in range(2):
        resumed.run_window()

    assert len(resumed.records) == len(full.records)
    for got, want in zip(resumed.records, full.records):
        assert np.array_equal(got.placement, want.placement)
        assert np.array_equal(got.faults, want.faults)
        assert np.array_equal(got.pool_pages, want.pool_pages)
        assert got.tco == want.tco
        assert got.access_ns == want.access_ns


def test_memcached_checkpoint_carries_no_scratch():
    """Sampler and PEBS scratch buffers stay out of checkpoints.

    At full scale (500k accesses per window) the scratch alone used to be
    ~22 MB of a ~24 MB checkpoint.
    """
    from repro.chaos.checkpoint import capture_session
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    session = Session(
        ScenarioSpec(workload="memcached-ycsb", policy="waterfall", windows=3)
    )
    for _ in range(3):
        session.run_window()
    assert len(capture_session(session)) < 5_000_000


def test_checkpoint_v1_fixture_loads_and_resumes_identically():
    """Backward compat: a pre-SoA (v1) checkpoint restores into the
    columnar core and finishes byte-identically to a fresh run.

    The fixture was captured with the pre-refactor object-layer code
    after 3 of 6 windows of the spec below.
    """
    from pathlib import Path

    from repro.chaos.checkpoint import load_checkpoint, restore_session
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec
    from repro.mem.stats import tier_rollup

    fixture = Path(__file__).parent / "fixtures" / "checkpoint_v1.ckpt"
    sess, rows, done = restore_session(load_checkpoint(fixture))
    assert done == 3
    assert rows == [{"w": 0}, {"w": 1}, {"w": 2}]
    # The fixture's samplers carry scratch and the unfolded bucket table;
    # both are dropped on load and rebuilt on demand.
    hot = sess.workload.distribution._hot
    assert not hasattr(hot, "_bucket_lo") and hot._scr_u is None
    for _ in range(sess.spec.windows - done):
        sess.run_window()

    spec = ScenarioSpec(
        workload="memcached-ycsb",
        workload_kwargs={"num_pages": 4096, "ops_per_window": 20_000},
        policy="waterfall",
        windows=6,
        seed=7,
    )
    fresh = Session(spec)
    for _ in range(spec.windows):
        fresh.run_window()

    assert len(sess.records) == len(fresh.records) == 6
    for got, want in zip(sess.records, fresh.records):
        for name in ("recommended", "placement", "pool_pages", "faults", "hotness"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("tco", "tco_savings", "access_ns", "accesses",
                     "migration_wall_ns"):
            assert getattr(got, name) == getattr(want, name), name
    got_rollup = tier_rollup(sess.system.tiers)
    want_rollup = tier_rollup(fresh.system.tiers)
    for name, col in got_rollup.items():
        assert np.array_equal(col, want_rollup[name]), name


@settings(max_examples=30, deadline=None)
@given(
    # Past n = 8192 the bucket count is capped at 2**17, so buckets hold
    # several CDF steps and the straddler walk takes more than one step.
    n=st.one_of(st.integers(1, 5000), st.integers(8193, 200_000)),
    theta=st.floats(0.0, 1.8, allow_nan=False),
    size=st.integers(1, 2000),
    seed=st.integers(0, 10_000),
)
def test_zipfian_sampler_matches_generator_choice(n, theta, size, seed):
    gen = ZipfianGenerator(n, theta=theta)
    got = gen.sample(size, np.random.default_rng(seed))
    want = np.random.default_rng(seed).choice(
        n, size=size, p=gen._probabilities
    )
    assert np.array_equal(got, want)
    # The sampler must consume the RNG stream exactly like choice() so
    # downstream draws stay aligned.
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    gen.sample(size, rng_a)
    rng_b.random(size)
    assert rng_a.integers(0, 1 << 62) == rng_b.integers(0, 1 << 62)


@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(st.integers(1, 5000), st.integers(8193, 200_000)),
    theta=st.floats(0.0, 1.8, allow_nan=False),
    size=st.integers(1, 2000),
    seed=st.integers(0, 10_000),
)
def test_zipfian_lut_matches_lut_of_generator_choice(n, theta, size, seed):
    """``sample(lut=t)`` is ``t[choice(...)]``, also when ``t`` changes."""
    gen = ZipfianGenerator(n, theta=theta)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    tables = np.random.default_rng(seed + 1).integers(0, 1 << 40, size=(2, n))
    # First table, same table again (cached composition), second table,
    # then no table (the rank path after a composition).
    for lut in (tables[0], tables[0], tables[1], None):
        got = gen.sample(size, rng, lut=lut)
        ranks = ref.choice(n, size=size, p=gen._probabilities)
        assert np.array_equal(got, ranks if lut is None else lut[ranks])
    assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)
