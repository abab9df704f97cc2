"""Shared fixtures: small systems, spaces and workloads for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators import ZsmallocAllocator
from repro.compression.registry import algorithm
from repro.mem.address_space import AddressSpace
from repro.mem.media import DRAM, NVMM
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import ByteAddressableTier, CompressedTier


@pytest.fixture
def space() -> AddressSpace:
    """Four-region (8 MB) address space with mixed compressibility."""
    return AddressSpace(4 * PAGES_PER_REGION, "mixed", seed=7)


def make_tiers(space: AddressSpace):
    """DRAM + NVMM + one compressed tier sized for ``space``."""
    n = space.num_pages
    return [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
        CompressedTier(
            "CT",
            algorithm=algorithm("lzo"),
            allocator=ZsmallocAllocator(arena_pages=1 << 14),
            media=DRAM,
            capacity_pages=n,
        ),
    ]


def run_windows(daemon, workload, windows: int):
    """Drive ``windows`` profile windows of ``workload`` through a
    hand-built daemon's ``run_window``; returns the run summary."""
    for _ in range(windows):
        daemon.run_window(
            workload.next_window(), write_fraction=workload.write_fraction
        )
    return daemon.summary(workload.name)


@pytest.fixture
def system(space: AddressSpace) -> TieredMemorySystem:
    """A 3-tier system over the small address space."""
    return TieredMemorySystem(make_tiers(space), space)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
