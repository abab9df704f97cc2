"""The wave executor (``TieredMemorySystem.move_regions``) against its
references, and the growth bound its capacity proof rests on.

A wave is one batched pass over many region moves.  Semantically it must
be indistinguishable from the same moves made one region at a time
(``move_region``) and one page at a time (``_move_pages_scalar``): the
same placements, statistics, pool packing, object ids and clock, bit for
bit, also when tight pools and arenas make waves fall back or stores
fail, and with the §7.1 same-algorithm copy on or off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators import ZsmallocAllocator
from repro.allocators.base import Handle
from repro.allocators.z3fold import Z3foldAllocator
from repro.allocators.zbud import ZbudAllocator
from repro.bench.configs import make_compressed_tier
from repro.chaos.invariants import check_capacity
from repro.compression.data import page_compressibilities
from repro.mem.address_space import AddressSpace
from repro.mem.media import DRAM, NVMM
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import ByteAddressableTier

REGIONS = 6


def _wave_system(seed: int, pools, fast: bool = False) -> TieredMemorySystem:
    """DRAM, NVMM and three compressed tiers over six regions, one page
    in seven incompressible: lzo/zsmalloc on DRAM, lz4/z3fold on NVMM
    and lzo/zbud on NVMM (so the §7.1 copy has a same-algorithm pair on
    different media).  ``pools`` gives each compressed tier's
    ``(capacity_pages, arena_pages)``; ``fast`` turns the copy on."""
    n = REGIONS * PAGES_PER_REGION
    rng = np.random.default_rng(seed)
    comp = page_compressibilities("mixed", n, seed=seed)
    comp[rng.random(n) < 1 / 7] = 1.0
    space = AddressSpace(n, compressibility=comp)
    (cap1, arena1), (cap2, arena2), (cap3, arena3) = pools
    tiers = [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
        make_compressed_tier("CT-1", "lzo", "zsmalloc", DRAM, cap1, arena1),
        make_compressed_tier("CT-2", "lz4", "z3fold", NVMM, cap2, arena2),
        make_compressed_tier("CT-3", "lzo", "zbud", NVMM, cap3, arena3),
    ]
    return TieredMemorySystem(tiers, space, fast_same_algo_migration=fast)


def _prepared_system(seed: int, pools, fast: bool = False) -> TieredMemorySystem:
    """:func:`_wave_system` after a random placement, with some pages
    touched in the current window."""
    system = _wave_system(seed, pools, fast)
    rng = np.random.default_rng(seed)
    for region in range(REGIONS):
        system.move_region(region, int(rng.integers(0, len(system.tiers))))
    system.advance_window()
    system.access_batch(np.bincount(rng.integers(0, system.space.num_pages, 400)))
    return system


def _scalar_wave(system, wave, recency_windows):
    """``move_regions`` page by page: the per-page reference."""
    region_ns = []
    for region_id, dst in wave:
        region = system.space.regions[region_id]
        pages = np.arange(region.start_page, region.end_page)
        if system.tiers[dst].is_compressed and recency_windows > 0:
            cutoff = system.current_window - recency_windows
            pages = pages[system.last_access_window[pages] <= cutoff]
        movers = pages[system.page_location[pages] != dst]
        region_ns.append(system._move_pages_scalar(movers, dst))
        region.assigned_tier = dst
    return region_ns


def _pool_state(pool):
    """Pool state without slot numbers: each class's partial stack as a
    sequence of ``(count, capacity)``, plus the pool's counters."""
    state = (pool.pool_pages, pool.stored_bytes, pool.stored_objects, pool._next_id)
    if not isinstance(pool, ZsmallocAllocator):
        return state, pool._buddy.allocated_pages
    stacks = {
        cls: [(int(pool._zs_count[s]), int(pool._zs_capacity[s])) for s in slots]
        for cls, slots in pool._partial.items()
    }
    return state, stacks


def _assert_same(got: TieredMemorySystem, want: TieredMemorySystem) -> None:
    assert np.array_equal(got.page_location, want.page_location)
    assert np.array_equal(got.pt.region_assigned, want.pt.region_assigned)
    for name in ("ct_owner", "csize", "obj_id"):
        assert np.array_equal(getattr(got.pt, name), getattr(want.pt, name)), name
    assert got.clock.migration_ns == want.clock.migration_ns
    assert got.migrated_pages == want.migrated_pages
    assert got.failed_stores == want.failed_stores
    for got_t, want_t in zip(got.tiers, want.tiers):
        assert got_t.used_pages == want_t.used_pages
        assert got_t.stats.snapshot() == want_t.stats.snapshot()
        if got_t.is_compressed:
            assert got_t.resident_pages == want_t.resident_pages
            assert _pool_state(got_t.allocator) == _pool_state(want_t.allocator)


def _draw_wave(data, rng):
    regions = data.draw(
        st.lists(st.integers(0, REGIONS - 1), min_size=1, max_size=2 * REGIONS)
    )
    if data.draw(st.booleans()):
        regions = sorted(set(regions))
    return [(r, int(rng.integers(0, 5))) for r in regions]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    pools=st.tuples(
        *[st.tuples(st.integers(8, 1200), st.sampled_from([64, 256, 1024, 4096]))]
        * 3
    ),
    recency_windows=st.sampled_from([0, 1]),
    fast=st.booleans(),
    data=st.data(),
)
def test_wave_matches_region_loop_and_scalar_reference(
    seed, pools, recency_windows, fast, data
):
    """Random waves -- every kind of move, rejected pages, tight pools and
    arenas, repeated regions, the §7.1 copy on or off -- leave the state
    of a per-region ``move_region`` loop and of the per-page path, bit
    for bit; so does one more wave on top."""
    # Three systems built by the same calls (not copies: a copy of a
    # buddy free-list set may pop its blocks in another order).
    wave_system, region_system, scalar_system = (
        _prepared_system(seed, pools, fast) for _ in range(3)
    )
    rng = np.random.default_rng(seed + 1)
    for _ in range(2):
        wave = _draw_wave(data, rng)
        result = wave_system.move_regions(wave, recency_windows)
        region_ns = [
            region_system.move_region(r, d, recency_windows) for r, d in wave
        ]
        scalar_ns = _scalar_wave(scalar_system, wave, recency_windows)
        assert result.region_ns == region_ns == scalar_ns
        _assert_same(wave_system, region_system)
        _assert_same(wave_system, scalar_system)
        check_capacity(wave_system)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wave_sums_are_bit_identical_with_odd_latencies(seed):
    """Per-region nanoseconds and the clock add page costs left to
    right, also with latencies whose float sums depend on the order."""
    from repro.compression.registry import algorithm
    from repro.mem.media import MediaSpec
    from repro.mem.tier import CompressedTier

    fast = MediaSpec("fast", read_ns=33.1, write_ns=33.7, cost_per_gb=1.0)
    slow = MediaSpec("slow", read_ns=78.3, write_ns=120.9, cost_per_gb=0.3)

    def build() -> TieredMemorySystem:
        space = AddressSpace(REGIONS * PAGES_PER_REGION, "mixed", seed=seed)
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
        system.move_regions([(r, int(rng.integers(0, 3))) for r in range(REGIONS)])
        return system

    system, reference = build(), build()
    rng = np.random.default_rng(seed + 1)
    wave = [(r, int(rng.integers(0, 3))) for r in range(REGIONS)]
    result = system.move_regions(wave)
    assert not result.per_page
    assert result.region_ns == _scalar_wave(reference, wave, 0)
    assert system.clock.migration_ns == reference.clock.migration_ns


def _roomy_system() -> TieredMemorySystem:
    space = AddressSpace(REGIONS * PAGES_PER_REGION, "mixed", seed=5)
    n = space.num_pages
    tiers = [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        make_compressed_tier("CT", "lzo", "zsmalloc", DRAM, n),
    ]
    return TieredMemorySystem(tiers, space)


def test_class_exact_bound_keeps_a_large_wave_in_one_pass():
    """Every region into one zsmalloc tier: four pages per store would
    overrun the tier's capacity, the class-exact bound proves the wave
    in one pass -- one ``store_ids`` call."""
    system = _roomy_system()
    pool = system.tiers[1]
    assert REGIONS * PAGES_PER_REGION * 4 > pool.capacity_pages
    result = system.move_regions([(r, 1) for r in range(REGIONS)])
    assert not result.per_page
    assert result.allocator_calls == 1
    assert pool.resident_pages > 0


def test_full_pool_falls_back_page_by_page():
    """A pool that cannot take the wave moves each region's pages one at
    a time; the result is the per-page path's."""
    system, reference = _roomy_system(), _roomy_system()
    system.tiers[1].capacity_pages = reference.tiers[1].capacity_pages = 40
    wave = [(r, 1) for r in range(REGIONS)]
    result = system.move_regions(wave)
    assert result.per_page
    assert result.allocator_calls == 0
    assert result.region_ns == _scalar_wave(reference, wave, 0)
    _assert_same(system, reference)


def test_proof_leaves_room_for_the_last_store():
    """Stores whose bound would fill the pool exactly fail the proof:
    once the last fresh zspage opens the pool is full, and the
    per-page path refuses the stores after it."""

    def build() -> TieredMemorySystem:
        # One size class: 1568-byte objects, five to a two-page zspage,
        # so the last of 103 zspages takes two of the 512 objects.
        n = PAGES_PER_REGION
        space = AddressSpace(n, compressibility=np.full(n, 0.2))
        tiers = [
            ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
            make_compressed_tier("CT", "lzo", "zsmalloc", DRAM, n),
        ]
        return TieredMemorySystem(tiers, space)

    system, reference = build(), build()
    sizes = system._tier_csizes(1, np.arange(PAGES_PER_REGION))
    pages = system.tiers[1].allocator.store_bound(sizes)
    system.tiers[1].capacity_pages = reference.tiers[1].capacity_pages = pages
    result = system.move_regions([(0, 1)])
    assert result.per_page
    assert result.region_ns == _scalar_wave(reference, [(0, 1)], 0)
    _assert_same(system, reference)
    # The pool took all but the last page.
    assert np.count_nonzero(system.page_location == 0) == 1


def test_merged_runs_follow_region_order():
    """Frees and stores on one tier alternate with the regions; each
    maximal run of one kind is one allocator call."""
    system, reference = _roomy_system(), _roomy_system()
    for each in (system, reference):
        each.move_regions([(0, 1), (2, 1), (4, 1)])
    # Out of the pool, into it, out twice, into it: F S F S on the pool
    # (the two middle frees merge).
    wave = [(0, 0), (1, 1), (2, 0), (4, 0), (5, 1)]
    result = system.move_regions(wave)
    assert result.allocator_calls == 4
    region_ns = [reference.move_region(r, d) for r, d in wave]
    assert result.region_ns == region_ns
    _assert_same(system, reference)


@settings(max_examples=60, deadline=None)
@given(
    allocator_cls=st.sampled_from([ZsmallocAllocator, ZbudAllocator, Z3foldAllocator]),
    seed=st.integers(0, 10_000),
    runs=st.lists(
        st.tuples(st.integers(0, 400), st.floats(0.0, 1.0)), min_size=1, max_size=6
    ),
)
def test_store_bound_covers_what_store_ids_opens(allocator_cls, seed, runs):
    """For any pool state and any size batch, ``store_bound`` is at least
    the pool pages ``store_ids`` opens, and the per-run bounds of store
    runs separated by frees add up to at least their total."""
    pool = allocator_cls(arena_pages=1 << 16)
    rng = np.random.default_rng(seed)
    live = []
    total = bound_sum = 0
    for n, drop in runs:
        sizes = rng.integers(1, 4097, n)
        bound = pool.store_bound(sizes)
        first = pool._next_id
        before = pool.pool_pages
        pool.store_ids(sizes)
        opened = pool.pool_pages - before
        assert bound >= opened
        total += opened
        bound_sum += bound
        live.extend(zip(range(first, first + n), sizes.tolist()))
        # Free a random share before the next run.
        order = rng.permutation(len(live))
        cut = int(drop * len(live))
        gone = [live[i] for i in order[:cut]]
        live = [live[i] for i in sorted(order[cut:])]
        if gone:
            ids, gone_sizes = zip(*gone)
            pool.free_ids(np.array(ids), np.array(gone_sizes))
    assert bound_sum >= total


def test_zsmalloc_bound_is_per_class():
    """One zspage per class when each class's objects fit in one."""
    from repro.allocators.zsmalloc import size_class, zspage_geometry

    pool = ZsmallocAllocator()
    pages = sum(zspage_geometry(size_class(s))[0] for s in (700, 1500, 40))
    assert pool.store_bound(np.array([700, 700, 1500, 40, 40])) == pages
    # 24 objects of 700 bytes need two 23-object zspages.
    assert pool.store_bound(np.full(24, 700)) == 2 * zspage_geometry(704)[0]
    assert pool.store_bound(np.zeros(0, dtype=np.int64)) == 0
    assert ZbudAllocator().store_bound(np.array([700, 700])) == 2


def test_stores_fit_keeps_every_store_below_capacity():
    """``stores_fit`` accepts runs only when no store can find the pool
    full: seven 3100-byte objects open two four-page zspages (eight
    pages for seven stores), so they need nine pages of room."""
    pool = ZsmallocAllocator()
    runs = [np.full(7, 3100)]
    assert not pool.stores_fit(runs, 8)
    assert pool.stores_fit(runs, 9)
    # Runs separated by frees are bounded run by run.
    assert not pool.stores_fit([np.full(1, 3100)] * 2, 8)
    assert pool.stores_fit([np.full(1, 3100)] * 2, 9)
    zbud = ZbudAllocator()
    assert not zbud.stores_fit([np.full(5, 700)], 5)
    assert zbud.stores_fit([np.full(5, 700)], 6)


def test_free_ids_releases_like_sequential_frees():
    """Bulk frees return emptied zspages' frames to the arena and their
    slots to the slot stack in the order one-at-a-time frees do, so
    every later slot, zspage and partial stack matches too."""
    bulk = ZsmallocAllocator(arena_pages=1 << 10)
    sequential = ZsmallocAllocator(arena_pages=1 << 10)
    sizes = np.array([700, 1500, 2900, 4096] * 30)
    first = bulk.store_ids(sizes)
    sequential.store_ids(sizes)
    ids = np.random.default_rng(0).permutation(np.arange(first, first + sizes.size))
    bulk.free_ids(ids, sizes[ids - first])
    for object_id in ids.tolist():
        sequential.free(Handle("zsmalloc", object_id, int(sizes[object_id - first])))
    assert bulk._zs_free_slots == sequential._zs_free_slots
    assert bulk.pool_pages == sequential.pool_pages == 0
    more = np.array([1500, 100] * 40)
    bulk.store_ids(more)
    for size in more.tolist():
        sequential.store(size)
    n = bulk._n_slots
    assert n == sequential._n_slots
    for column in ("_zs_pages", "_zs_cls", "_zs_count"):
        got, want = getattr(bulk, column), getattr(sequential, column)
        assert np.array_equal(got[:n], want[:n])
    ids = bulk._next_id
    assert np.array_equal(bulk._obj_zspage[:ids], sequential._obj_zspage[:ids])
    assert bulk._partial == sequential._partial
    assert bulk.pool_pages == sequential.pool_pages


@pytest.mark.parametrize("fail_fraction", [0.3, 1.0])
def test_engine_moves_the_prefix_as_one_wave(fail_fraction):
    """With a chaos fail point, the engine moves the prefix as one wave
    and rolls the failing move back; counters, the wave's wall time and
    the clock equal a region-by-region engine's."""
    from repro.chaos.faults import FaultInjector, FaultPlan, FaultSpec
    from repro.mem.migration import MigrationEngine

    plan = FaultPlan(
        events=(
            FaultSpec(kind="migration_partial", window=0, magnitude=fail_fraction),
        )
    )
    system = _roomy_system()
    reference = _roomy_system()
    waves = []
    move_regions = system.move_regions

    def spy(wave, recency_windows=0):
        waves.append(list(wave))
        return move_regions(wave, recency_windows)

    system.move_regions = spy
    engine = MigrationEngine(system, injector=FaultInjector(plan))
    moves = {r: 1 for r in range(REGIONS)}
    wall_ns = engine.apply(moves, window=0)

    fail_at = min(REGIONS - 1, int(REGIONS * (1.0 - fail_fraction)))
    items = sorted(moves.items())
    # The prefix, then the failing region's forward move (rolled back).
    assert waves == [items[:fail_at], [items[fail_at]]]
    wave_ns = 0.0
    for region_id, dst in items[:fail_at]:
        wave_ns += reference.move_region(region_id, dst, recency_windows=1)
    wave_ns += MigrationEngine(reference)._rollback_move(*items[fail_at])
    assert wall_ns == wave_ns / engine.push_threads
    assert engine.stats.serial_ns == wave_ns
    assert engine.stats.regions_moved == fail_at
    assert engine.stats.pages_moved == reference.migrated_pages
    assert engine.stats.rollbacks == 1
    assert engine.stats.moves_dropped == REGIONS - fail_at - 1
    _assert_same(system, reference)


def test_migrate_span_and_fallback_counter():
    """The ``migrate`` span carries the wave's allocator calls and
    whether it moved page by page; fallbacks are counted."""
    from repro.mem.migration import MigrationEngine
    from repro.obs import Observability, parse_prometheus, to_prometheus

    obs = Observability(metrics=True, tracing=True)
    system = _roomy_system()
    engine = MigrationEngine(system, obs=obs)
    engine.apply({r: 1 for r in range(3)})
    pool = system.tiers[1]
    pool.capacity_pages = pool.used_pages + 8
    engine.apply({r: 1 for r in range(3, REGIONS)})
    spans = [s for s in obs.tracer.spans if s.name == "migrate"]
    assert [s.attrs["per_page"] for s in spans] == [False, True]
    assert [s.attrs["allocator_calls"] for s in spans] == [1, 0]
    parsed = parse_prometheus(to_prometheus(obs.registry))
    assert parsed["repro_migration_waves_total"][()] == 2
    assert parsed["repro_migration_wave_fallbacks_total"][()] == 1


def test_spectrum_waterfall_copies_run_in_one_pass():
    """With the §7.1 copy on, every wave of a spectrum-mix waterfall run
    -- copies between its same-algorithm tiers included -- runs as one
    pass and leaves the per-page path's run, bit for bit."""
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec
    from repro.mem.system import WaveResult

    spec = ScenarioSpec(
        policy="waterfall",
        mix="spectrum",
        percentile=50.0,
        scale=0.25,
        windows=6,
        fast_same_algo_migration=True,
    )
    session, oracle = Session(spec), Session(spec)
    waves = []
    move_regions = session.system.move_regions

    def one_pass(wave, recency_windows=0):
        waves.append(move_regions(wave, recency_windows))
        return waves[-1]

    session.system.move_regions = one_pass
    reference = oracle.system
    copies = []
    copy_object = reference._move_compressed_object

    def counted_copy(page_id, *args):
        copies.append(page_id)
        return copy_object(page_id, *args)

    def per_page(wave, recency_windows=0):
        return WaveResult(_scalar_wave(reference, wave, recency_windows), 0, True)

    reference._move_compressed_object = counted_copy
    reference.move_regions = per_page
    assert session.run() == oracle.run()
    assert copies
    assert waves and not any(wave.per_page for wave in waves)
    _assert_same(session.system, reference)
