"""Unit and property tests for the columnar page table (SoA core)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.mem.pagetable import NEVER_ACCESSED, PageTable
from repro.mem.region import Region, RegionSet
from repro.mem.system import TieredMemorySystem

from tests.conftest import make_tiers


# -- group_ordered -----------------------------------------------------------


def _python_groups(keys, first_seen):
    groups = {}
    for pos, key in enumerate(keys):
        groups.setdefault(int(key), []).append(pos)
    order = groups.keys() if first_seen else sorted(groups)
    return [(k, groups[k]) for k in order]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-5, 12), min_size=0, max_size=200),
    first_seen=st.booleans(),
)
def test_group_ordered_matches_python_grouping(keys, first_seen):
    got = PageTable.group_ordered(np.asarray(keys, dtype=np.int64),
                                  first_seen=first_seen)
    want = _python_groups(keys, first_seen)
    assert [(k, pos.tolist()) for k, pos in got] == want


def _two_sort_group_ordered(keys, first_seen):
    """``group_ordered`` as it was with a second sort: a stable argsort
    for the positions, ``np.unique`` for the keys and their bounds."""
    n = len(keys)
    if n == 0:
        return []
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq, first = np.unique(keys, return_index=True)
    starts = np.searchsorted(sorted_keys, uniq)
    ends = np.append(starts[1:], n)
    ks = range(len(uniq))
    if first_seen:
        ks = np.argsort(first, kind="stable").tolist()
    return [(int(uniq[k]), order[starts[k] : ends[k]]) for k in ks]


@settings(max_examples=120, deadline=None)
@given(
    keys=st.one_of(
        # Wide keys: the argsort path.
        st.lists(st.integers(-(1 << 40), 1 << 40), max_size=300).map(
            lambda k: np.asarray(k, dtype=np.int64)
        ),
        st.lists(st.integers(0, 300), max_size=600).map(
            lambda k: np.asarray(k, dtype=np.int32)
        ),
        # Tier-like keys: spans of one to eight values, page-table dtype.
        st.tuples(st.integers(0, 3), st.integers(0, 7)).flatmap(
            lambda t: st.lists(
                st.integers(t[0], t[0] + t[1]), max_size=600
            ).map(lambda k: np.asarray(k, dtype=np.int16))
        ),
    ),
    first_seen=st.booleans(),
)
def test_group_ordered_matches_two_sort_version(keys, first_seen):
    got = PageTable.group_ordered(keys, first_seen=first_seen)
    want = _two_sort_group_ordered(keys, first_seen)
    assert [(k, pos.tolist()) for k, pos in got] == [
        (k, pos.tolist()) for k, pos in want
    ]
    assert all(isinstance(k, int) for k, _ in got)


# -- columns -----------------------------------------------------------------


def test_page_table_initial_state():
    pt = PageTable(2 * PAGES_PER_REGION)
    assert pt.num_pages == 2 * PAGES_PER_REGION
    assert pt.num_regions == 2
    assert (pt.tier == 0).all()
    assert (pt.last_access == NEVER_ACCESSED).all()
    assert (pt.ct_owner == -1).all()
    assert pt.resident.all()
    assert pt.region_id[0] == 0
    assert pt.region_id[-1] == 1
    assert np.array_equal(pt.placement_counts(3),
                          [2 * PAGES_PER_REGION, 0, 0])


def test_reset_placement_keeps_region_columns():
    pt = PageTable(PAGES_PER_REGION)
    pt.tier[:] = 2
    pt.ct_owner[:10] = 1
    pt.csize[:10] = 512
    pt.region_hotness[0] = 3.5
    pt.region_assigned[0] = 2
    pt.reset_placement()
    assert (pt.tier == 0).all()
    assert (pt.ct_owner == -1).all()
    assert (pt.csize == 0).all()
    # Regions belong to the address space, not to one system.
    assert pt.region_hotness[0] == 3.5
    assert pt.region_assigned[0] == 2


def test_grow_preserves_and_fills():
    pt = PageTable(0, num_regions=0)
    pt.grow(10)
    assert pt.num_pages >= 10
    pt.ct_owner[3] = 7
    pt.csize[3] = 99
    old = pt.num_pages
    pt.grow(5 * old)
    assert pt.num_pages >= 5 * old
    assert pt.ct_owner[3] == 7 and pt.csize[3] == 99
    assert (pt.ct_owner[old:] == -1).all()
    assert (pt.obj_id[old:] == -1).all()


def test_compressed_bytes_in_range_filters_by_token():
    pt = PageTable(PAGES_PER_REGION)
    pt.ct_owner[4:8] = 1
    pt.csize[4:8] = 100
    pt.ct_owner[8] = 2
    pt.csize[8] = 999
    assert pt.compressed_bytes_in_range(1, 0, PAGES_PER_REGION) == 400
    assert pt.compressed_bytes_in_range(1, 5, 7) == 200
    assert pt.compressed_bytes_in_range(2, 0, PAGES_PER_REGION) == 999


# -- view objects ------------------------------------------------------------


def test_region_view_reads_and_writes_table_columns():
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=0)
    region = space.regions[1]
    region.hotness = 2.25
    region.assigned_tier = 3
    assert space.page_table.region_hotness[1] == 2.25
    assert space.page_table.region_assigned[1] == 3
    # A second view over the same table sees the same state.
    again = space.regions[1]
    assert again.hotness == 2.25
    assert again.assigned_tier == 3
    with pytest.raises(IndexError):
        space.regions[2]


def test_detached_region_roundtrips_through_pickle():
    region = Region(region_id=5, assigned_tier=2, hotness=1.5)
    clone = pickle.loads(pickle.dumps(region))
    assert clone.region_id == 5
    assert clone.assigned_tier == 2
    assert clone.hotness == 1.5


def test_regionset_pickle_roundtrip_preserves_columns():
    rs = RegionSet.for_pages(2 * PAGES_PER_REGION)
    rs[0].hotness = 0.75
    rs[1].assigned_tier = 4
    clone = pickle.loads(pickle.dumps(rs))
    assert len(clone) == 2
    assert clone[0].hotness == 0.75
    assert clone[1].assigned_tier == 4


def test_system_binds_tiers_to_shared_table():
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=2)
    system = TieredMemorySystem(make_tiers(space), space)
    for idx, tier in enumerate(system.tiers):
        if tier.is_compressed:
            assert tier._pt is system.pt
            assert tier._token == idx
    system.move_region(0, 2)
    stored = np.flatnonzero(system.pt.ct_owner == 2)
    assert stored.size == system.tiers[2].resident_pages
    assert (system.pt.csize[stored] > 0).all()
    assert (system.pt.obj_id[stored] >= 0).all()
