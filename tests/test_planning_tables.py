"""The planner's per-region tables cached on the memory system.

:meth:`TieredMemorySystem.planning_tables` keeps the per-access penalty
and cost matrices (and ``TCO_min``/``TCO_max``) per address space.
Pinned here: they equal freshly built tables bit for bit, they are
rebuilt when ``space.compressibility`` is replaced, and checkpoints
carry none of them -- a restored session rebuilds them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.checkpoint import capture_session, restore_session
from repro.core import perf, tco
from repro.engine.session import Session
from repro.engine.spec import ScenarioSpec

SPEC = ScenarioSpec(
    workload="memcached-ycsb",
    workload_kwargs={"num_pages": 2048, "ops_per_window": 5000},
    policy="am-tco",
    windows=10,
    seed=5,
)


def _assert_fresh(system, tables):
    region_comp = system.space.region_compressibility()
    per_access = perf.per_access_penalty(system.tiers, region_comp)
    cost = tco.cost_matrix(system.tiers, region_comp)
    assert tables.per_access.tobytes() == per_access.tobytes()
    assert tables.cost.tobytes() == cost.tobytes()
    assert tables.tco_min == tco.tco_min(cost)
    assert tables.tco_max == tco.tco_max(cost)


@pytest.fixture
def session() -> Session:
    session = Session(SPEC)
    for _ in range(2):
        session.run_window()
    return session


def test_tables_equal_fresh_build_and_are_shared(session):
    system = session.system
    tables = system.planning_tables()
    _assert_fresh(system, tables)
    assert system.planning_tables() is tables
    assert not tables.cost.flags.writeable
    assert not tables.per_access.flags.writeable


def test_replaced_compressibility_rebuilds(session):
    system = session.system
    before = system.planning_tables()
    space = system.space
    space.compressibility = np.full_like(space.compressibility, 0.5)
    after = system.planning_tables()
    assert after is not before
    assert after.cost.tobytes() != before.cost.tobytes()
    _assert_fresh(system, after)


def test_checkpoint_carries_no_tables(session):
    system = session.system
    system.planning_tables()
    with_tables = capture_session(session)
    system._plan = None
    assert capture_session(session) == with_tables
    assert b"_plan" not in with_tables
    restored, _, _ = restore_session(with_tables)
    assert restored.system._plan is None
    _assert_fresh(restored.system, restored.system.planning_tables())
