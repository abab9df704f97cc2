"""Runtime capacity/accounting invariants for chaos runs.

Fault injection is only useful if a surviving run is a *correct* run.
:func:`check_capacity` asserts the accounting invariants every fault
sequence must preserve -- the property tests call it after each window
of a randomized chaos run and after every operation of the memory-system
fuzz tests, and it doubles as a debugging aid for new fault kinds.
"""

from __future__ import annotations

import numpy as np

from repro.allocators.zsmalloc import CLASS_DELTA, _GEOM_PAGES, ZsmallocAllocator
from repro.mem.tier import ByteAddressableTier, CompressedTier


def check_capacity(system) -> None:
    """Assert the system's residency and accounting invariants.

    Checks, for any fault sequence:

    * every application page is located in exactly one tier and the
      per-tier residency counts match ``page_location``,
    * byte tiers never exceed their capacity (capacity shocks target
      compressed tiers only),
    * each compressed tier's stored set matches ``page_location`` and
      its ``compressed_bytes`` statistic equals the stored objects'
      sizes (no page charged whose store failed),
    * each compressed tier's pool spans at most four pages per resident
      page (one zspage when nearly empty), and its allocator is
      self-consistent (:func:`check_pool`),
    * TCO is positive and at most the all-DRAM bound plus the
      fragmentation allowance that pool bound implies,
    * the access and migration clocks are non-negative.

    Raises:
        AssertionError: Naming the violated invariant and tier.
    """
    counts = system.pt.placement_counts(len(system.tiers))
    total = int(counts.sum())
    assert total == system.space.num_pages, (
        f"placement counts sum to {total}, expected "
        f"{system.space.num_pages}"
    )
    for idx, tier in enumerate(system.tiers):
        located = int(counts[idx])
        if isinstance(tier, ByteAddressableTier):
            assert tier.used_pages == located, (
                f"byte tier {tier.name}: {tier.used_pages} resident but "
                f"{located} pages located there"
            )
            assert 0 <= tier.used_pages <= tier.capacity_pages, (
                f"byte tier {tier.name} over capacity: "
                f"{tier.used_pages}/{tier.capacity_pages}"
            )
        elif isinstance(tier, CompressedTier):
            assert tier.resident_pages == located, (
                f"compressed tier {tier.name}: {tier.resident_pages} "
                f"stored but {located} pages located there"
            )
            stored_bytes = int(tier.stored_csizes().sum())
            assert tier.stats.compressed_bytes == stored_bytes, (
                f"compressed tier {tier.name}: accounting says "
                f"{tier.stats.compressed_bytes} B but objects hold "
                f"{stored_bytes} B"
            )
            # A zspage holds at least one object and spans at most four
            # pages: the low-occupancy fragmentation bound.
            bound = max(1, 4 * located)
            assert 0 <= tier.used_pages <= bound, (
                f"compressed tier {tier.name} pool spans {tier.used_pages} "
                f"pages, outside [0, {bound}] for {located} resident"
            )
            check_pool(tier)
    # Each compressed pool may exceed its residents by up to
    # ``3 * resident + 1`` pages, each costing at most a DRAM page.
    dram_cost = system.dram.media.cost_per_page
    frag_allowance = sum(
        (3 * int(counts[idx]) + 1) * dram_cost
        for idx, tier in enumerate(system.tiers)
        if isinstance(tier, CompressedTier)
    )
    tco = system.tco()
    tco_bound = system.tco_max() + frag_allowance
    assert 0 < tco <= tco_bound, f"TCO {tco} outside (0, {tco_bound}]"
    clock = system.clock
    assert clock.access_ns >= 0 and clock.migration_ns >= 0, (
        f"negative clock: access {clock.access_ns} ns, "
        f"migration {clock.migration_ns} ns"
    )


def check_pool(tier: CompressedTier) -> None:
    """Assert a compressed tier's pool allocator is self-consistent.

    Checks that the allocator's object and byte counts match the tier's
    stored pages and that its pool pages stay within ``arena_pages``;
    for zbud/z3fold, that the buddy arena charges exactly their pool
    pages; for zsmalloc, also that the zspage columns agree with the
    object membership:

    * each live zspage's count is the number of objects mapped to it,
      between 1 and its capacity, and no object maps to a free slot;
    * the partial stacks hold exactly the live zspages with
      ``0 < count < capacity``, each once;
    * each live zspage holds its class's page count, and
      ``pool_pages`` is the live zspages' pages.

    Raises:
        AssertionError: Naming the violated invariant and tier.
    """
    pool = tier.allocator
    name = tier.name
    assert pool.stored_objects == tier.resident_pages, (
        f"pool of {name}: {pool.stored_objects} objects stored for "
        f"{tier.resident_pages} resident pages"
    )
    stored_bytes = int(tier.stored_csizes().sum())
    assert pool.stored_bytes == stored_bytes, (
        f"pool of {name}: {pool.stored_bytes} B stored but its pages "
        f"hold {stored_bytes} B"
    )
    assert pool.pool_pages <= pool.arena_pages, (
        f"pool of {name}: {pool.pool_pages} pool pages exceed its arena "
        f"of {pool.arena_pages}"
    )
    if isinstance(pool, ZsmallocAllocator):
        _check_zsmalloc(name, pool)
    else:
        # zbud/z3fold pages are single order-0 blocks.
        assert pool._buddy.allocated_pages == pool.pool_pages, (
            f"pool of {name}: {pool.pool_pages} pool pages but the buddy "
            f"charges {pool._buddy.allocated_pages}"
        )


def _check_zsmalloc(name: str, pool: ZsmallocAllocator) -> None:
    n = pool._n_slots
    live = np.ones(n, dtype=bool)
    live[pool._zs_free_slots] = False
    count = pool._zs_count[:n].astype(np.int64)
    capacity = pool._zs_capacity[:n]
    members = pool._obj_zspage[: pool._next_id]
    members = members[members >= 0]
    assert members.size == pool.stored_objects, (
        f"pool of {name}: {pool.stored_objects} objects stored but "
        f"{members.size} mapped to zspages"
    )
    mapped = np.bincount(members, minlength=n)
    assert mapped.size == n and np.array_equal(mapped, np.where(live, count, 0)), (
        f"pool of {name}: zspage counts (sum {int(count[live].sum())}) "
        f"differ from the objects mapped to them (sum {int(mapped.sum())})"
    )
    assert ((count[live] >= 1) & (count[live] <= capacity[live])).all(), (
        f"pool of {name}: a live zspage is empty or over capacity"
    )
    stack = pool._zs_stack[:n]
    stacked = stack >= 0
    partial = live & (count < capacity)
    assert np.array_equal(stacked, partial), (
        f"pool of {name}: partial stacks hold {int(stacked.sum())} zspages, "
        f"{int(partial.sum())} live zspages are partly filled"
    )
    assert np.unique(stack[stacked]).size == int(stacked.sum()), (
        f"pool of {name}: a zspage is stacked twice"
    )
    pages = pool._zs_pages[:n][live].astype(np.int64)
    geometry = _GEOM_PAGES[pool._zs_cls[:n][live] // CLASS_DELTA]
    assert np.array_equal(pages, geometry), (
        f"pool of {name}: a live zspage's frames differ from its class's "
        f"page count"
    )
    assert pool.pool_pages == int(pages.sum()), (
        f"pool of {name}: {pool.pool_pages} pool pages but live zspages "
        f"span {int(pages.sum())}"
    )
