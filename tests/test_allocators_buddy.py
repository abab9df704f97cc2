"""Unit and property tests for the binary buddy allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.base import AllocationError
from repro.allocators.buddy import BuddyAllocator


def test_requires_power_of_two():
    with pytest.raises(ValueError):
        BuddyAllocator(100)


def test_single_page_alloc_free():
    buddy = BuddyAllocator(16)
    pfn = buddy.alloc(1)
    assert 0 <= pfn < 16
    assert buddy.allocated_pages == 1
    buddy.free(pfn)
    assert buddy.allocated_pages == 0
    assert buddy.free_pages == 16


def test_rounds_to_power_of_two():
    buddy = BuddyAllocator(16)
    buddy.alloc(3)  # rounds to 4
    assert buddy.allocated_pages == 4


def test_exhaustion_raises():
    buddy = BuddyAllocator(4)
    buddy.alloc(4)
    with pytest.raises(AllocationError, match="out of memory"):
        buddy.alloc(1)


def test_oversized_request_raises():
    buddy = BuddyAllocator(8)
    with pytest.raises(AllocationError, match="exceeds arena"):
        buddy.alloc(16)


def test_double_free_raises():
    buddy = BuddyAllocator(8)
    pfn = buddy.alloc(1)
    buddy.free(pfn)
    with pytest.raises(AllocationError):
        buddy.free(pfn)


def test_free_unknown_raises():
    buddy = BuddyAllocator(8)
    with pytest.raises(AllocationError):
        buddy.free(3)


def test_coalescing_restores_max_block():
    buddy = BuddyAllocator(16)
    pfns = [buddy.alloc(1) for _ in range(16)]
    for pfn in pfns:
        buddy.free(pfn)
    # After freeing everything, the full arena must be allocatable again.
    assert buddy.alloc(16) == 0


def test_distinct_blocks_do_not_overlap():
    buddy = BuddyAllocator(64)
    blocks = []
    for size in (1, 2, 4, 8, 1, 2):
        pfn = buddy.alloc(size)
        order = buddy.order_for(size)
        blocks.append((pfn, pfn + (1 << order)))
    blocks.sort()
    for (_, end_a), (start_b, _) in zip(blocks, blocks[1:]):
        assert end_a <= start_b


def test_fragmentation_metric():
    buddy = BuddyAllocator(16)
    assert buddy.fragmentation() == 0.0
    held = [buddy.alloc(1) for _ in range(16)]
    assert buddy.fragmentation() == 0.0  # nothing free
    # Free alternating pages: free memory is maximally fragmented.
    for pfn in held[::2]:
        buddy.free(pfn)
    assert buddy.fragmentation() > 0.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 8), max_size=40), st.data())
def test_random_alloc_free_invariants(sizes, data):
    buddy = BuddyAllocator(256)
    live: list[int] = []
    for size in sizes:
        # Interleave random frees.
        if live and data.draw(st.booleans()):
            buddy.free(live.pop(data.draw(st.integers(0, len(live) - 1))))
        try:
            live.append(buddy.alloc(size))
        except AllocationError:
            pass
        assert 0 <= buddy.allocated_pages <= 256
        assert buddy.free_pages + buddy.allocated_pages == 256
    for pfn in live:
        buddy.free(pfn)
    assert buddy.allocated_pages == 0
    assert buddy.alloc(256) == 0  # fully coalesced


def _reference_alloc(buddy: BuddyAllocator, num_pages: int) -> int:
    """The classic one-block allocation, on ``buddy``'s own free lists."""
    order = buddy.order_for(num_pages)
    avail = order
    while avail <= buddy.max_order and not buddy._free_lists[avail]:
        avail += 1
    if avail > buddy.max_order:
        raise AllocationError("out of memory")
    pfn = buddy._free_lists[avail].pop()
    while avail > order:
        avail -= 1
        buddy._free_lists[avail].add(pfn + (1 << avail))
    buddy._allocated[pfn] = order
    buddy.allocated_pages += 1 << order
    return pfn


def _reference_free(buddy: BuddyAllocator, pfn: int) -> None:
    """The classic one-block free with coalescing."""
    order = buddy._allocated.pop(pfn)
    buddy.allocated_pages -= 1 << order
    while order < buddy.max_order:
        mate = pfn ^ (1 << order)
        if mate not in buddy._free_lists[order]:
            break
        buddy._free_lists[order].remove(mate)
        pfn = min(pfn, mate)
        order += 1
    buddy._free_lists[order].add(pfn)


def _buddy_state(buddy: BuddyAllocator):
    # Iteration order included: the same pops and adds in the same
    # order leave every set (and the allocated map) identically laid out.
    return (
        [list(free) for free in buddy._free_lists],
        list(buddy._allocated.items()),
        buddy.allocated_pages,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 12), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_alloc_many_free_many_match_sequential(rounds, rand):
    """alloc_many/free_many leave the free lists, allocated map and page
    count of the same sequence of single-block calls, exhaustion included."""
    bulk, sequential = BuddyAllocator(64), BuddyAllocator(64)
    live: list[int] = []
    for num_pages, k, free_some in rounds:
        try:
            got = bulk.alloc_many(num_pages, k)
        except AllocationError:
            got = None
        expected: list[int] = []
        try:
            for _ in range(k):
                expected.append(_reference_alloc(sequential, num_pages))
        except AllocationError:
            assert got is None
            # The blocks handed out before exhaustion stay allocated.
            live.extend(expected)
        else:
            assert got == expected
            live.extend(got)
        assert _buddy_state(bulk) == _buddy_state(sequential)
        if free_some and live:
            rand.shuffle(live)
            drop, live[:] = live[: len(live) // 2 + 1], live[len(live) // 2 + 1 :]
            bulk.free_many(drop)
            for pfn in drop:
                _reference_free(sequential, pfn)
            assert _buddy_state(bulk) == _buddy_state(sequential)


def test_free_many_unknown_pfn_commits_prefix():
    buddy = BuddyAllocator(16)
    a, b = buddy.alloc_many(1, 2)
    with pytest.raises(AllocationError):
        buddy.free_many([a, 99, b])
    assert buddy.allocated_pages == 1
    assert b in buddy._allocated and a not in buddy._allocated


@settings(max_examples=60, deadline=None)
@given(
    setup=st.lists(st.tuples(st.integers(1, 8), st.booleans()), max_size=40),
    orders=st.lists(st.integers(0, 2), max_size=60),
    rand=st.randoms(use_true_random=False),
)
def test_alloc_orders_match_sequential(setup, orders, rand):
    """Mixed-order ``alloc_orders`` on a fragmented arena equals one
    reference alloc per block, exhaustion included: the blocks before
    the first that does not fit stay allocated."""
    bulk, sequential = BuddyAllocator(128), BuddyAllocator(128)
    live: list[int] = []
    for num_pages, free_one in setup:
        try:
            live.append(bulk.alloc(num_pages))
            _reference_alloc(sequential, num_pages)
        except AllocationError:
            pass
        if free_one and live:
            pfn = live.pop(rand.randrange(len(live)))
            bulk.free(pfn)
            _reference_free(sequential, pfn)
    expected: list[int] = []
    try:
        for order in orders:
            expected.append(_reference_alloc(sequential, 1 << order))
    except AllocationError:
        with pytest.raises(AllocationError):
            bulk.alloc_orders(orders)
    else:
        assert bulk.alloc_orders(orders) == expected
    assert _buddy_state(bulk) == _buddy_state(sequential)
