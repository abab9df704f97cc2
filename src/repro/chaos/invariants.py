"""Runtime capacity/accounting invariants for chaos runs.

Fault injection is only useful if a surviving run is a *correct* run.
:func:`check_capacity` asserts the accounting invariants every fault
sequence must preserve -- the property tests call it after each window
of a randomized chaos run and after every operation of the memory-system
fuzz tests, and it doubles as a debugging aid for new fault kinds.
"""

from __future__ import annotations

import numpy as np

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
      page (one zspage when nearly empty),
    * TCO is positive and at most the all-DRAM bound plus the
      fragmentation allowance that pool bound implies,
    * the access and migration clocks are non-negative.

    Raises:
        AssertionError: Naming the violated invariant and tier.
    """
    counts = np.bincount(system.page_location, minlength=len(system.tiers))
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
