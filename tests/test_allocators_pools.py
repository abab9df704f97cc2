"""Unit and property tests for the zbud / z3fold / zsmalloc pool managers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators import (
    AllocationError,
    Z3foldAllocator,
    ZbudAllocator,
    ZsmallocAllocator,
    make_allocator,
)
from repro.allocators.zsmalloc import (
    CLASS_DELTA,
    MAX_PAGES_PER_ZSPAGE,
    MIN_CLASS,
    size_class,
    zspage_geometry,
)
from repro.mem.page import PAGE_SIZE

ALL = [ZbudAllocator, Z3foldAllocator, ZsmallocAllocator]


@pytest.mark.parametrize("cls", ALL)
class TestCommonBehaviour:
    def test_store_and_free_reclaims(self, cls):
        pool = cls(arena_pages=1 << 10)
        handles = [pool.store(1000) for _ in range(20)]
        assert pool.stored_objects == 20
        assert pool.pool_pages > 0
        for handle in handles:
            pool.free(handle)
        assert pool.stored_objects == 0
        assert pool.stored_bytes == 0
        assert pool.pool_pages == 0

    def test_density_bounded(self, cls):
        pool = cls(arena_pages=1 << 10)
        for _ in range(50):
            pool.store(700)
        assert 0.0 < pool.density <= 1.0
        assert pool.stored_bytes <= pool.pool_bytes

    def test_rejects_bad_sizes(self, cls):
        pool = cls(arena_pages=1 << 10)
        with pytest.raises(ValueError):
            pool.store(0)
        with pytest.raises(AllocationError):
            pool.store(PAGE_SIZE + 1)

    def test_foreign_handle_rejected(self, cls):
        pool = cls(arena_pages=1 << 10)
        other = (
            ZbudAllocator(arena_pages=1 << 10)
            if cls is not ZbudAllocator
            else ZsmallocAllocator(arena_pages=1 << 10)
        )
        handle = other.store(100)
        with pytest.raises(AllocationError):
            pool.free(handle)


class TestZbud:
    def test_two_objects_per_page(self):
        pool = ZbudAllocator(arena_pages=1 << 10)
        pool.store(1000)
        pool.store(1000)
        assert pool.pool_pages == 1  # buddied into one page
        pool.store(1000)
        assert pool.pool_pages == 2

    def test_savings_capped_at_half(self):
        """Paper §2: zbud caps savings at 50 % regardless of ratio."""
        pool = ZbudAllocator(arena_pages=1 << 10)
        for _ in range(100):
            pool.store(200)  # tiny objects, still 2 per page max
        assert pool.pool_pages >= 50

    def test_best_fit_pairs_small_with_large(self):
        pool = ZbudAllocator(arena_pages=1 << 10)
        pool.store(3000)
        pool.store(3000)
        pool.store(1000)  # should buddy into one of the 3000-pages
        assert pool.pool_pages == 2

    def test_no_overfull_page(self):
        pool = ZbudAllocator(arena_pages=1 << 10)
        pool.store(3000)
        pool.store(3000)
        # A 2000-byte object cannot share with a 3000-byte one.
        pool.store(2000)
        assert pool.pool_pages == 3


class TestZ3fold:
    def test_three_objects_per_page(self):
        pool = Z3foldAllocator(arena_pages=1 << 10)
        for _ in range(3):
            pool.store(1000)
        assert pool.pool_pages == 1
        pool.store(1000)
        assert pool.pool_pages == 2

    def test_higher_overhead_than_zbud(self):
        assert Z3foldAllocator.mgmt_overhead_ns > ZbudAllocator.mgmt_overhead_ns


class TestZsmalloc:
    def test_size_class_rounding(self):
        assert size_class(1) == MIN_CLASS
        assert size_class(MIN_CLASS) == MIN_CLASS
        assert size_class(MIN_CLASS + 1) == MIN_CLASS + CLASS_DELTA
        assert size_class(4096) == 4096

    def test_zspage_geometry_bounds(self):
        for cls_size in range(MIN_CLASS, 4097, CLASS_DELTA):
            pages, objs = zspage_geometry(cls_size)
            assert 1 <= pages <= MAX_PAGES_PER_ZSPAGE
            assert objs >= 1
            assert objs * cls_size <= pages * PAGE_SIZE

    def test_densest_of_the_three(self):
        """Paper §2: zsmalloc packs best.  For 1.2 KB objects zbud fits 2
        and z3fold 3 per page, zsmalloc ~3.3."""
        pools = [c(arena_pages=1 << 12) for c in ALL]
        for pool in pools:
            for _ in range(120):
                pool.store(1200)
        zbud, z3fold, zsmalloc = (p.pool_pages for p in pools)
        assert zsmalloc <= z3fold <= zbud

    def test_highest_overhead(self):
        assert (
            ZsmallocAllocator.mgmt_overhead_ns
            > Z3foldAllocator.mgmt_overhead_ns
        )

    def test_full_zspage_reuse_after_free(self):
        pool = ZsmallocAllocator(arena_pages=1 << 10)
        handles = [pool.store(2048) for _ in range(2)]  # fills one zspage
        pages_full = pool.pool_pages
        pool.free(handles[0])
        pool.store(2048)  # must reuse the freed slot
        assert pool.pool_pages == pages_full

    def test_zspages_take_order_0_frames(self):
        """A 3-page zspage costs 3 arena frames, not a 4-page block, so
        a 4-frame arena still holds a 1-page zspage beside it."""
        assert zspage_geometry(size_class(48))[0] == 3
        pool = ZsmallocAllocator(arena_pages=4)
        small = pool.store(48)
        page = pool.store(4096)
        assert pool.pool_pages == 4
        with pytest.raises(AllocationError):
            pool.store(4096)
        assert pool.pool_pages == 4 and pool.stored_objects == 2
        pool.free(small)
        assert pool.pool_pages == 1
        pool.store(4096)
        pool.free(page)
        assert pool.pool_pages == 1


class TestRegistry:
    def test_all_kernel_names(self):
        for name in ("zbud", "z3fold", "zsmalloc"):
            assert make_allocator(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError, match="available"):
            make_allocator("slub")


@pytest.mark.parametrize("cls", ALL)
@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.integers(1, PAGE_SIZE), min_size=1, max_size=80), data=st.data())
def test_pool_invariants_property(cls, ops, data):
    """Random store/free sequences keep accounting consistent and reclaim
    everything at the end."""
    pool = cls(arena_pages=1 << 12)
    live = []
    for size in ops:
        if live and data.draw(st.booleans()):
            pool.free(live.pop(data.draw(st.integers(0, len(live) - 1))))
        live.append(pool.store(size))
        assert pool.stored_objects == len(live)
        assert pool.stored_bytes == sum(h.size for h in live)
        assert pool.stored_bytes <= pool.pool_bytes or pool.pool_pages == 0
    for handle in live:
        pool.free(handle)
    assert pool.pool_pages == 0
    assert pool.stored_bytes == 0
