"""Property tests pinning the vectorized hot paths to scalar references.

The batched implementations in :mod:`repro.mem.system` and the bulk
allocator paths exist purely for speed; semantically each must be
indistinguishable from the per-page / per-object loops they replaced.
Hypothesis drives random placements, batches and size streams through
both and compares the full observable state.
"""

import copy
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators import ZsmallocAllocator
from repro.allocators.base import Handle
from repro.allocators.zsmalloc import size_class
from repro.allocators.zbud import ZbudAllocator
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.mem.stats import tier_rollup
from repro.mem.system import _PAGE_CHUNKS, TieredMemorySystem
from repro.mem.tier import ByteAddressableTier
from repro.workloads.distributions import ZipfianGenerator

from tests.conftest import make_tiers

FIXTURES = Path(__file__).parent / "fixtures"


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

    result = system.access_batch(np.bincount(batch), write_fraction)
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
    histogram = np.column_stack((result.latency_ns, result.latency_count))
    assert len(histogram) == len(ref_hist)
    assert np.allclose(histogram, np.asarray(ref_hist), rtol=1e-12)


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
        np.testing.assert_array_equal(
            counts, system.pt.placement_counts(len(system.tiers))
        )
        for idx, tier in enumerate(system.tiers):
            if isinstance(tier, ByteAddressableTier):
                assert counts[idx] == tier.used_pages
            else:
                assert counts[idx] == tier.resident_pages


def _packing_state(pool):
    """Canonical pool state, independent of slot numbering.

    Each live zspage is named by its member-id set: (count, capacity,
    class) per zspage, each class's partial list as the order of those
    zspages, plus the pool's counters (and, for zbud/z3fold, the buddy's
    allocated pages).  Slot numbers are left out on purpose; bulk and
    sequential paths may recycle slots in a different order.
    """
    state = (pool.pool_pages, pool.stored_bytes, pool.stored_objects, pool._next_id)
    if not isinstance(pool, ZsmallocAllocator):
        return state, pool._buddy.allocated_pages
    owner = pool._obj_zspage[: pool._next_id]
    members: dict[int, set[int]] = {}
    for object_id in np.flatnonzero(owner >= 0).tolist():
        members.setdefault(int(owner[object_id]), set()).add(object_id)
    name = {slot: frozenset(ids) for slot, ids in members.items()}
    zspages = {
        name[slot]: (
            int(pool._zs_count[slot]),
            int(pool._zs_capacity[slot]),
            int(pool._zs_cls[slot]),
        )
        for slot in members
    }
    assert all(count == len(ids) for ids, (count, _, _) in zspages.items())
    partial = {
        cls: [name[slot] for slot in slots]
        for cls, slots in pool._partial.items()
        if slots
    }
    return state, zspages, partial


def _store_ids(pool, sizes) -> list:
    """``pool.store_ids(sizes)``, returning the handles that sequential
    ``store`` calls return (object ids ``first + k``)."""
    first = pool.store_ids(np.asarray(sizes, dtype=np.int64))
    return [Handle(pool.name, first + k, size) for k, size in enumerate(sizes)]


def _free_ids(pool, handles) -> None:
    """``pool.free_ids`` over the ids and sizes of ``handles``, in order."""
    pool.free_ids(
        np.array([h.object_id for h in handles], dtype=np.int64),
        np.array([h.size for h in handles], dtype=np.int64),
    )


#: Sizes sharing a handful of classes (zspage capacities 1 to 256), so
#: rounds refill partial zspages and free several of one class at once.
_REPEATED_SIZES = np.array([20, 33, 100, 700, 1500, 2900, 4096])


@settings(max_examples=40, deadline=None)
@given(
    rounds=st.lists(
        st.tuples(st.integers(0, 300), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 10_000),
    allocator_cls=st.sampled_from([ZsmallocAllocator, ZbudAllocator]),
)
def test_store_ids_free_ids_match_sequential(rounds, seed, allocator_cls):
    """Interleaved bulk store/free rounds leave the packing state of the
    same calls made one at a time, after every round."""
    bulk = allocator_cls(arena_pages=1 << 12)
    sequential = allocator_cls(arena_pages=1 << 12)
    rng = np.random.default_rng(seed)
    live: list = []
    for num_stores, drop_fraction in rounds:
        # Three in four sizes from the repeated classes, the rest anywhere.
        sizes = np.where(
            rng.random(num_stores) < 0.75,
            rng.choice(_REPEATED_SIZES, num_stores),
            rng.integers(1, 4097, num_stores),
        ).tolist()
        bulk_handles = _store_ids(bulk, sizes)
        seq_handles = [sequential.store(size) for size in sizes]
        assert bulk_handles == seq_handles
        live.extend(bulk_handles)
        assert _packing_state(bulk) == _packing_state(sequential)

        # Free a random subset, in shuffled order, in bulk vs one at a time.
        order = rng.permutation(len(live))
        cut = int(round(drop_fraction * len(live)))
        drop = [live[i] for i in order[:cut]]
        live = [live[i] for i in sorted(order[cut:])]
        _free_ids(bulk, drop)
        for handle in drop:
            sequential.free(handle)
        assert _packing_state(bulk) == _packing_state(sequential)


def _zspage_slots(pool):
    """Each live zspage's slot and frames, the zspage named by its
    members."""
    owner = pool._obj_zspage[: pool._next_id]
    members: dict[int, set[int]] = {}
    for object_id in np.flatnonzero(owner >= 0).tolist():
        members.setdefault(int(owner[object_id]), set()).add(object_id)
    return {
        frozenset(ids): (slot, int(pool._zs_pages[slot]))
        for slot, ids in members.items()
    }


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(st.integers(20, 400), min_size=1, max_size=4),
    seed=st.integers(0, 10_000),
)
def test_store_free_across_many_classes_match_sequential(batches, seed):
    """Batches spanning dozens of size classes, then one round that
    empties most of every zspage and refills the same zspages, and one
    that empties every zspage and refills the pool: bulk == sequential
    after every step.  Store-only rounds from equal pools also give
    each zspage the same slot (fresh zspages open in the order the
    sequential stores open them)."""
    bulk = ZsmallocAllocator(arena_pages=1 << 13)
    sequential = ZsmallocAllocator(arena_pages=1 << 13)
    rng = np.random.default_rng(seed)
    live: list = []

    def store(sizes):
        handles = _store_ids(bulk, sizes)
        assert handles == [sequential.store(size) for size in sizes]
        live.extend(handles)
        assert _packing_state(bulk) == _packing_state(sequential)

    def free(drop):
        _free_ids(bulk, drop)
        for handle in drop:
            sequential.free(handle)
        assert _packing_state(bulk) == _packing_state(sequential)

    for n in batches:
        sizes = rng.integers(1, 4097, n).tolist()
        assert len({size_class(size) for size in sizes}) > 20 or n < 60
        store(sizes)
    assert _zspage_slots(bulk) == _zspage_slots(sequential)

    # Keep one object per zspage: every zspage goes partial (or empties,
    # if it held one object) and the refill lands on those zspages.
    owner = bulk._obj_zspage
    first_of: dict = {}
    for handle in live:
        first_of.setdefault(int(owner[handle.object_id]), handle)
    kept = set(first_of.values())
    drop = [live[i] for i in rng.permutation(len(live)) if live[i] not in kept]
    live = [handle for handle in live if handle in kept]
    free(drop)
    store([handle.size for handle in drop])

    # Empty every zspage, then refill the released slots.
    drop, live = live, []
    free(drop)
    assert bulk.pool_pages == 0
    assert sorted(bulk._zs_free_slots) == list(range(bulk._n_slots))
    store([h.size for h in drop])


@settings(max_examples=20, deadline=None)
@given(
    rounds=st.lists(
        st.tuples(st.integers(0, 300), st.floats(0.0, 1.0)),
        min_size=2,
        max_size=5,
    ),
    seed=st.integers(0, 10_000),
)
def test_bulk_pool_pickles_mid_sequence(rounds, seed):
    """A bulk pool pickled after the first round restores to the same
    packing state and partial stacks, and keeps matching the sequential
    pool round after round."""
    import pickle

    bulk = ZsmallocAllocator(arena_pages=1 << 12)
    sequential = ZsmallocAllocator(arena_pages=1 << 12)
    rng = np.random.default_rng(seed)
    live: list = []
    for index, (num_stores, drop_fraction) in enumerate(rounds):
        sizes = rng.choice(_REPEATED_SIZES, num_stores).tolist()
        live.extend(_store_ids(bulk, sizes))
        for size in sizes:
            sequential.store(size)
        order = rng.permutation(len(live))
        cut = int(round(drop_fraction * len(live)))
        drop = [live[i] for i in order[:cut]]
        live = [live[i] for i in sorted(order[cut:])]
        _free_ids(bulk, drop)
        for handle in drop:
            sequential.free(handle)
        if index == 0:
            restored = pickle.loads(pickle.dumps(bulk))
            assert restored._partial == bulk._partial
            assert _packing_state(restored) == _packing_state(bulk)
            bulk = restored
        assert _packing_state(bulk) == _packing_state(sequential)


def test_store_ids_exhausting_arena_commits_sequential_prefix():
    """A batch the arena cannot hold raises with exactly the stores a
    sequential loop commits before it runs out, never more."""
    import pytest

    from repro.allocators.base import AllocationError

    sizes = np.random.default_rng(5).integers(1, 4097, 400)
    bulk = ZsmallocAllocator(arena_pages=64)
    sequential = ZsmallocAllocator(arena_pages=64)
    with pytest.raises(AllocationError):
        bulk.store_ids(sizes)
    with pytest.raises(AllocationError):
        for size in sizes.tolist():
            sequential.store(size)
    assert 0 < bulk.stored_objects < sizes.size
    assert _packing_state(bulk) == _packing_state(sequential)


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
    ids = rng.integers(0, n, size=64)
    _assert_tables_match_scalar(system, ct_idx, ids)

    # A second replacement (the level index is keyed by the array's
    # identity) must rebuild the tables, not reuse the first ones.
    comp = rng.random(n)
    comp[rng.integers(0, n, size=len(values))] = values[::-1]
    system.space.compressibility = np.clip(comp, 1e-9, 1.0)
    _assert_tables_match_scalar(system, ct_idx, ids)


def _assert_tables_match_scalar(system, tier_idx, ids) -> None:
    """``_tier_csizes``/``_tier_accepts`` == the scalar law, page by page."""
    tier = system.tiers[tier_idx]
    got_sizes = system._tier_csizes(tier_idx, ids)
    got_accepts = system._tier_accepts(tier_idx, ids)
    for pid, size, ok in zip(ids.tolist(), got_sizes.tolist(), got_accepts.tolist()):
        intrinsic = float(system.space.compressibility[pid])
        assert size == tier.algorithm.compressed_size(intrinsic)
        assert ok == tier.accepts(intrinsic)


def test_restored_fixtures_rebuild_level_tables():
    """A restore carries no per-level tables; the rebuilt ones match the
    scalar law for every page."""
    from repro.chaos.checkpoint import load_checkpoint, restore_session

    blob = load_checkpoint(FIXTURES / "checkpoint_counts.ckpt")
    session, _, _ = restore_session(blob)
    system = session.system
    assert system._level_csizes is None
    ids = np.arange(system.space.num_pages)
    for idx, tier in enumerate(system.tiers):
        if tier.is_compressed:
            _assert_tables_match_scalar(system, idx, ids)


def test_checkpoint_carries_no_level_tables():
    """A fresh capture pickles the system without its level index,
    per-level tables or any per-page compression memo."""
    import pickle

    from repro.chaos.checkpoint import capture_session, read_frames
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    session = Session(
        ScenarioSpec(
            workload="memcached-ycsb",
            workload_kwargs={"num_pages": 4 * PAGES_PER_REGION, "ops_per_window": 2000},
            policy="waterfall",
            windows=3,
        )
    )
    for _ in range(3):
        session.run_window()
    assert session.system._page_level is not None  # the tables were used

    class RawState:
        def __setstate__(self, state):
            self.state = state

    class Probe(pickle.Unpickler):
        def find_class(self, module, name):
            if (module, name) == ("repro.mem.system", "TieredMemorySystem"):
                return RawState
            return super().find_class(module, name)

    frames = read_frames(capture_session(session))
    graph = Probe(io.BytesIO(frames[0]), buffers=frames[1:]).load()
    state = graph["system"].state
    # Per-page state lives in the page table; the system itself pickles
    # no array, directly or in a per-tier dict.
    carried = [
        name
        for name, value in state.items()
        if isinstance(value, np.ndarray)
        or (
            isinstance(value, dict)
            and any(isinstance(v, np.ndarray) for v in value.values())
        )
    ]
    assert carried == []
    assert not {"_csize_cache", "_accepts_cache"} & set(state)


def _scalar_page_cost(tier, intrinsic: float) -> float:
    """The per-value planning cost law the array form replaced."""
    from repro.allocators.zsmalloc import size_class
    from repro.mem.page import PAGE_SIZE

    ratio = tier.algorithm.ratio(intrinsic)
    max_per_page = getattr(tier.allocator, "max_objects_per_page", None)
    if max_per_page is not None:
        effective = max(ratio, 1.0 / max_per_page)
    else:
        effective = size_class(max(1, int(round(ratio * PAGE_SIZE)))) / PAGE_SIZE
    return effective * tier.media.cost_per_page


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(1e-9, 1.0, allow_nan=False),
            st.integers(1, 16).map(lambda k: k / 16.0),  # quantized levels
        ),
        min_size=1,
        max_size=12,
    )
)
def test_planning_columns_match_scalar(values):
    """The ILP's cost and penalty columns equal the per-value scalar law
    bit for bit, for every Table 1 tier option."""
    from repro.bench.configs import enumerate_tiers, make_compressed_tier
    from repro.core import perf, tco

    intrinsics = np.array(values)
    tiers = [make_tiers(AddressSpace(PAGES_PER_REGION))[0]]
    for algo, alloc, backing in enumerate_tiers():
        tiers.append(
            make_compressed_tier(f"{algo}/{alloc}/{backing}", algo, alloc, backing, 64)
        )
    costs = tco.cost_matrix(tiers, intrinsics)
    penalties = perf.per_access_penalty(tiers, intrinsics)
    for t, tier in enumerate(tiers[1:], start=1):
        for r, c in enumerate(values):
            assert costs[r, t] == PAGES_PER_REGION * _scalar_page_cost(tier, c)
            assert penalties[r, t] == tier.fault_latency_ns(intrinsic=c)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(1e-9, 1.0, allow_nan=False),
            st.integers(1, 16).map(lambda k: k / 16.0),  # quantized levels
        ),
        min_size=1,
        max_size=12,
    )
)
def test_migration_latency_columns_match_scalar(values):
    """The wave executor's per-object load and store latencies equal
    the scalar ``fault_latency_ns``/``store_latency_ns`` bit for bit,
    for every Table 1 tier option."""
    from repro.bench.configs import enumerate_tiers, make_compressed_tier

    intrinsics = np.array(values)
    for algo, alloc, backing in enumerate_tiers():
        tier = make_compressed_tier(f"{algo}/{alloc}/{backing}", algo, alloc, backing, 64)
        csizes = tier.algorithm.compressed_sizes(intrinsics)
        loads = tier.csize_fault_ns(csizes)
        stores = tier.csize_store_ns(csizes)
        for r, c in enumerate(values):
            assert loads[r] == tier.fault_latency_ns(intrinsic=c)
            assert stores[r] == tier.store_latency_ns(c)


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
        got = system.move_region(region, dst)
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_move_pages_clock_is_bit_identical_to_scalar(seed):
    """The batched clock adds each page's cost in page order from the
    current clock value: totals equal the per-page loop's exactly, also
    with latencies (unlike the shipped media's) that float addition
    rounds differently in another order."""
    from repro.compression.registry import algorithm
    from repro.mem.media import MediaSpec
    from repro.mem.tier import CompressedTier

    fast = MediaSpec("fast", read_ns=33.1, write_ns=33.7, cost_per_gb=1.0)
    slow = MediaSpec("slow", read_ns=78.3, write_ns=120.9, cost_per_gb=0.3)
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=seed)
    n = space.num_pages
    system = TieredMemorySystem(
        [
            ByteAddressableTier("DRAM", fast, capacity_pages=n),
            ByteAddressableTier("NVMM", slow, capacity_pages=n),
            CompressedTier(
                "CT",
                algorithm=algorithm("lzo"),
                allocator=ZsmallocAllocator(arena_pages=1 << 14),
                media=slow,
                capacity_pages=n,
            ),
        ],
        space,
    )
    rng = np.random.default_rng(seed)
    _scatter(system, rng)
    reference = copy.deepcopy(system)
    for _ in range(6):
        region = int(rng.integers(0, system.space.num_regions))
        dst = int(rng.integers(0, len(system.tiers)))
        pages = system.space.regions[region].pages()
        page_ids = np.arange(pages.start, pages.stop, dtype=np.int64)
        assert system.move_region(region, dst) == reference._move_pages_scalar(
            page_ids, dst
        )
        assert system.clock.migration_ns == reference.clock.migration_ns


def test_free_ids_repeated_id_fails_like_sequential_frees():
    """A repeated object id fails at its second free, after the frees
    before it, exactly as one call per id does."""
    import pytest

    bulk = ZsmallocAllocator(arena_pages=1 << 10)
    sequential = ZsmallocAllocator(arena_pages=1 << 10)
    sizes = [700] * 30
    handles = _store_ids(bulk, sizes)
    for size in sizes:
        sequential.store(size)
    drop = [handles[3], handles[25], handles[7], handles[3], handles[8]]
    with pytest.raises(KeyError):
        _free_ids(bulk, drop)
    with pytest.raises(KeyError):
        for handle in drop:
            sequential.free(handle)
    assert _packing_state(bulk) == _packing_state(sequential)
    assert bulk._obj_zspage[handles[8].object_id] >= 0


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


def _records_equal(got, want) -> None:
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        for name in ("recommended", "placement", "pool_pages", "faults", "hotness"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        for name in ("tco", "tco_savings", "access_ns", "accesses",
                     "migration_wall_ns"):
            assert getattr(a, name) == getattr(b, name), name
    got_rollup = tier_rollup(got.system.tiers)
    want_rollup = tier_rollup(want.system.tiers)
    for name, col in got_rollup.items():
        assert np.array_equal(col, want_rollup[name]), name


def test_counts_fixture_resumes_like_a_fresh_run():
    """``checkpoint_counts.ckpt`` was captured after 3 of 6 windows of the
    spec below; restored and run to the end, it matches an uninterrupted
    run of that spec, and it passes the capacity invariants."""
    from repro.chaos.checkpoint import load_checkpoint, restore_session
    from repro.chaos.invariants import check_capacity
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    blob = load_checkpoint(FIXTURES / "checkpoint_counts.ckpt")
    assert blob[:8] == b"TSCKPT\r\n"
    recaptured, rows, done = restore_session(blob)
    assert done == 3
    assert rows == [{"w": 0}, {"w": 1}, {"w": 2}]
    spec = ScenarioSpec(
        workload="memcached-ycsb",
        workload_kwargs={"num_pages": 4096, "ops_per_window": 20_000},
        policy="waterfall",
        windows=6,
        seed=7,
    )
    assert recaptured.spec == spec
    for _ in range(spec.windows - done):
        recaptured.run_window()
    check_capacity(recaptured.system)
    fresh = Session(spec)
    for _ in range(spec.windows):
        fresh.run_window()
    _records_equal(recaptured, fresh)


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


# -- the lean bulk paths' branches against their scalar oracles ----------


@pytest.mark.parametrize("stacked", ["none", "some", "all"])
def test_store_ids_with_stacked_zspages_in_none_some_or_all_classes(stacked):
    """A batch whose classes have no zspage on a partial stack, some of
    them or all of them: slots, partial stacks and ``pool_pages`` equal
    sequential ``store`` calls."""
    # One object each opens a partial zspage of classes 112, 704 and
    # 1504 (capacities 36, 23 and 13 objects).
    history = [100, 700, 1500]
    batch = {
        "none": [20, 2900, 20, 4096, 33, 2900],
        "some": [700, 20, 700, 2900, 100, 33],
        "all": [100, 700, 1500, 1500, 700, 100] * 9,
    }[stacked]
    bulk = ZsmallocAllocator(arena_pages=1 << 12)
    sequential = ZsmallocAllocator(arena_pages=1 << 12)
    for pool in (bulk, sequential):
        for size in history:
            pool.store(size)
    batch_classes = {size_class(size) for size in batch}
    on_stack = batch_classes & set(bulk._partial)
    if stacked == "none":
        assert not on_stack
    elif stacked == "some":
        assert 0 < len(on_stack) < len(batch_classes)
    else:
        assert on_stack == batch_classes

    handles = _store_ids(bulk, batch)
    assert handles == [sequential.store(size) for size in batch]
    assert _packing_state(bulk) == _packing_state(sequential)
    assert _zspage_slots(bulk) == _zspage_slots(sequential)
    assert bulk._partial == sequential._partial
    assert bulk.pool_pages == sequential.pool_pages


def test_size_classes_equal_size_class_below_and_above_a_page():
    """``size_classes`` is ``size_class`` per size, past a page too; the
    class-index table agrees with it up to a page."""
    from repro.allocators.zsmalloc import (
        CLASS_DELTA,
        PAGE_SIZE,
        _class_indices,
        size_classes,
    )

    sizes = np.arange(1, 3 * PAGE_SIZE + 1)
    assert size_classes(sizes).tolist() == [size_class(int(s)) for s in sizes]
    small = sizes[:PAGE_SIZE]
    assert np.array_equal(_class_indices(small) * CLASS_DELTA, size_classes(small))


def _assert_access_like_scalar(system, counts, write_fraction=0.2):
    """``access_batch(counts)`` == the per-page reference, state included."""
    reference = copy.deepcopy(system)
    batch = np.repeat(np.arange(len(counts)), counts)
    result = system.access_batch(counts, write_fraction)
    ref_ns, ref_faults, ref_hist = _scalar_access_batch(
        reference, batch, write_fraction
    )
    assert result.accesses == int(np.sum(counts))
    assert result.faults == ref_faults
    assert np.array_equal(system.page_location, reference.page_location)
    assert np.array_equal(system.last_access_window, reference.last_access_window)
    assert system.clock.total_accesses == reference.clock.total_accesses
    assert system.clock.optimal_ns == reference.clock.optimal_ns
    for got, want in zip(system.tiers, reference.tiers):
        assert got.stats.snapshot() == want.stats.snapshot()
        assert got.used_pages == want.used_pages
    assert np.isclose(result.access_ns, ref_ns, rtol=1e-12)
    if ref_hist:
        histogram = np.column_stack((result.latency_ns, result.latency_count))
        assert np.allclose(histogram, np.asarray(ref_hist), rtol=1e-12)
    else:
        assert result.latency_ns.size == result.latency_count.size == 0
    return result


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_access_batch_window_shapes_match_scalar(seed):
    """An all-zero window, one shorter than the address space, and windows
    touching only byte tiers or only compressed tiers."""
    system = _make_system(seed)
    rng = np.random.default_rng(seed)
    _scatter(system, rng)
    n = system.space.num_pages
    compressed = np.array([tier.is_compressed for tier in system.tiers])

    before = copy.deepcopy(system)
    result = system.access_batch(np.zeros(n, dtype=np.int64))
    assert (result.accesses, result.faults, result.access_ns) == (0, 0, 0.0)
    assert np.array_equal(system.last_access_window, before.last_access_window)
    assert system.clock.total_accesses == before.clock.total_accesses

    short = np.zeros(n // 3, dtype=np.int64)
    short[rng.integers(0, short.size, 50)] = rng.integers(1, 9, 50)
    system.advance_window()
    _assert_access_like_scalar(system, short)

    for in_pool in (False, True):
        pages = np.flatnonzero(compressed[system.page_location] == in_pool)
        assert pages.size
        counts = np.zeros(n, dtype=np.int64)
        chosen = rng.choice(pages, min(40, pages.size), replace=False)
        counts[chosen] = rng.integers(1, 6, chosen.size)
        system.advance_window()
        result = _assert_access_like_scalar(system, counts)
        assert result.faults == (chosen.size if in_pool else 0)


def _two_pool_system(seed: int) -> TieredMemorySystem:
    """DRAM, NVMM and two zsmalloc tiers whose algorithms disagree on
    admission: deflate (CT-1) keeps pages that 842 (CT-2) rejects."""
    from repro.bench.configs import make_compressed_tier
    from repro.compression.data import page_compressibilities
    from repro.mem.media import DRAM, NVMM

    n = 6 * PAGES_PER_REGION
    rng = np.random.default_rng(seed)
    comp = page_compressibilities("mixed", n, seed=seed)
    comp[rng.random(n) < 0.2] = 0.93
    space = AddressSpace(n, compressibility=comp)
    tiers = [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
        make_compressed_tier("CT-1", "deflate", "zsmalloc", DRAM, n, 1 << 14),
        make_compressed_tier("CT-2", "842", "zsmalloc", NVMM, n, 1 << 14),
    ]
    return TieredMemorySystem(tiers, space)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_multi_group_wave_is_bit_identical_to_per_page_moves(seed):
    """Six groups with frees and stores on both zsmalloc tiers and
    promotions of pages CT-2 rejects: the wave's region nanoseconds and
    clock equal the per-page path's bit for bit, and so does the state."""
    def build():
        system = _two_pool_system(seed)
        system.move_regions([(0, 2), (1, 2), (2, 3), (3, 3), (4, 1)])
        return system

    system, reference = build(), build()
    wave = [(0, 3), (1, 0), (2, 2), (3, 1), (4, 2), (5, 3)]
    before = system.page_location.copy()
    stored_before = [tier.stats.pages_in for tier in system.tiers]
    result = system.move_regions(wave)
    assert not result.per_page
    assert result.allocator_calls >= 4

    region_ns = []
    for region_id, dst in wave:
        pages = np.arange(region_id * PAGES_PER_REGION, (region_id + 1) * PAGES_PER_REGION)
        movers = pages[reference.page_location[pages] != dst]
        region_ns.append(reference._move_pages_scalar(movers, dst))
    assert result.region_ns == region_ns
    assert system.clock.migration_ns == reference.clock.migration_ns
    assert np.array_equal(system.page_location, reference.page_location)
    for name in ("ct_owner", "csize", "obj_id"):
        assert np.array_equal(getattr(system.pt, name), getattr(reference.pt, name))
    for got, want in zip(system.tiers, reference.tiers):
        assert got.stats.snapshot() == want.stats.snapshot()
        assert got.used_pages == want.used_pages
        if got.is_compressed:
            assert _packing_state(got.allocator) == _packing_state(want.allocator)
            assert got.allocator._partial == want.allocator._partial

    # The wave freed from and stored into both pools, and promoted the
    # pages CT-2 rejects out of CT-1.
    region0 = slice(0, PAGES_PER_REGION)
    promoted = (before[region0] == 2) & (system.page_location[region0] == 0)
    assert promoted.any()
    for idx in (2, 3):
        assert system.tiers[idx].stats.pages_out > 0
        assert system.tiers[idx].stats.pages_in > stored_before[idx]
