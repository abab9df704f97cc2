"""Tier configurations used by the evaluation (paper §5.1, §8).

* :func:`characterization_tiers` -- the 12 tiers of Figure 2:
  {zbud, zsmalloc} x {lz4, lzo, deflate} x {DRAM, Optane}, numbered C1-C12
  so that the paper's picks line up: C1 = zbud/lz4/DRAM (best latency),
  C2 = zbud/lz4/Optane (fastest Optane-backed), C4 = zsmalloc/lz4/Optane,
  C7 = zsmalloc/lzo/DRAM (the GSwap production tier), C12 =
  zsmalloc/deflate/Optane (best TCO savings).
* :func:`standard_mix` -- §8.2: DRAM + NVMM + CT-1 (GSwap-style:
  lzo/zsmalloc/DRAM) + CT-2 (TMO-style: zstd/zsmalloc/Optane).
* :func:`spectrum_mix` -- §8.3: DRAM + C1 + C2 + C4 + C7 + C12.
* :func:`enumerate_tiers` -- the full 7 x 3 x 3 = 63-point option space of
  Table 1.
"""

from __future__ import annotations

import itertools

from repro.allocators import make_allocator
from repro.compression.registry import algorithm
from repro.mem.address_space import AddressSpace
from repro.mem.media import DRAM, MediaSpec, NVMM, media
from repro.mem.tier import ByteAddressableTier, CompressedTier, Tier

#: Figure 2 tier matrix, in C1..C12 order: (allocator, algorithm, media).
_CHARACTERIZATION_MATRIX: list[tuple[str, str, str]] = [
    ("zbud", "lz4", "DRAM"),  # C1
    ("zbud", "lz4", "NVMM"),  # C2
    ("zsmalloc", "lz4", "DRAM"),  # C3
    ("zsmalloc", "lz4", "NVMM"),  # C4
    ("zbud", "lzo", "DRAM"),  # C5
    ("zbud", "lzo", "NVMM"),  # C6
    ("zsmalloc", "lzo", "DRAM"),  # C7  (GSwap's production tier)
    ("zsmalloc", "lzo", "NVMM"),  # C8
    ("zbud", "deflate", "DRAM"),  # C9
    ("zbud", "deflate", "NVMM"),  # C10
    ("zsmalloc", "deflate", "DRAM"),  # C11
    ("zsmalloc", "deflate", "NVMM"),  # C12 (best TCO savings)
]


def make_compressed_tier(
    name: str,
    algorithm_name: str,
    allocator_name: str,
    backing: MediaSpec | str,
    capacity_pages: int,
    arena_pages: int | None = None,
) -> CompressedTier:
    """Build one compressed tier from its three ingredients."""
    if isinstance(backing, str):
        backing = media(backing)
    if arena_pages is None:
        arena_pages = 1 << max(10, (capacity_pages - 1).bit_length())
    return CompressedTier(
        name=name,
        algorithm=algorithm(algorithm_name),
        allocator=make_allocator(allocator_name, arena_pages=arena_pages),
        media=backing,
        capacity_pages=capacity_pages,
    )


def characterization_tiers(capacity_pages: int = 1 << 18) -> list[CompressedTier]:
    """The 12 Figure 2 tiers, C1..C12."""
    tiers = []
    for i, (alloc, algo, med) in enumerate(_CHARACTERIZATION_MATRIX, start=1):
        tiers.append(
            make_compressed_tier(
                name=f"C{i}",
                algorithm_name=algo,
                allocator_name=alloc,
                backing=med,
                capacity_pages=capacity_pages,
            )
        )
    return tiers


def characterization_label(index: int) -> str:
    """Figure 2's encoding for tier ``C{index}`` (e.g. ``ZB-L4-DR``)."""
    alloc, algo, med = _CHARACTERIZATION_MATRIX[index - 1]
    alloc_code = {"zbud": "ZB", "zsmalloc": "ZS", "z3fold": "Z3"}[alloc]
    algo_code = {"lz4": "L4", "lzo": "LO", "deflate": "DE"}[algo]
    media_code = {"DRAM": "DR", "NVMM": "OP"}[med]
    return f"{alloc_code}-{algo_code}-{media_code}"


def standard_mix(space: AddressSpace) -> list[Tier]:
    """§8.2's tier mix: DRAM, NVMM, CT-1 (GSwap), CT-2 (TMO)."""
    n = space.num_pages
    return [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        ByteAddressableTier("NVMM", NVMM, capacity_pages=n),
        make_compressed_tier("CT-1", "lzo", "zsmalloc", DRAM, capacity_pages=n),
        make_compressed_tier("CT-2", "zstd", "zsmalloc", NVMM, capacity_pages=n),
    ]


def single_ct_mix(space: AddressSpace) -> list[Tier]:
    """Figure 1's setup: DRAM plus one GSwap-style compressed tier."""
    n = space.num_pages
    return [
        ByteAddressableTier("DRAM", DRAM, capacity_pages=n),
        make_compressed_tier("CT-1", "lzo", "zsmalloc", DRAM, capacity_pages=n),
    ]


#: The spectrum experiment's compressed-tier picks (§5.1).
SPECTRUM_PICKS = (1, 2, 4, 7, 12)


def spectrum_mix(space: AddressSpace) -> list[Tier]:
    """§8.3's tier mix: DRAM plus compressed tiers C1, C2, C4, C7, C12."""
    n = space.num_pages
    tiers: list[Tier] = [ByteAddressableTier("DRAM", DRAM, capacity_pages=n)]
    for i in SPECTRUM_PICKS:
        alloc, algo, med = _CHARACTERIZATION_MATRIX[i - 1]
        tiers.append(
            make_compressed_tier(
                name=f"C{i}",
                algorithm_name=algo,
                allocator_name=alloc,
                backing=med,
                capacity_pages=n,
            )
        )
    return tiers


def enumerate_tiers() -> list[tuple[str, str, str]]:
    """Table 1's full option space: 7 algorithms x 3 allocators x 3 media."""
    algorithms = ["deflate", "lzo", "lzo-rle", "lz4", "zstd", "842", "lz4hc"]
    allocators = ["zsmalloc", "zbud", "z3fold"]
    backings = ["DRAM", "CXL", "NVMM"]
    return list(itertools.product(algorithms, allocators, backings))


# ---------------------------------------------------------------------------
# Fleet workload profiles (repro.fleet)
# ---------------------------------------------------------------------------

#: Named per-node workload templates for fleet simulation: node ``i`` of a
#: fleet draws template ``i % len(profile)``.  Each entry is
#: ``(registry workload name, factory kwargs)``; sizes are scaled down from
#: the single-node defaults so a multi-node fleet stays laptop-runnable,
#: and the fleet spec further scales ``num_pages``/``ops_per_window`` per
#: node (see :class:`repro.fleet.spec.FleetSpec`).
FLEET_PROFILES: dict[str, tuple[tuple[str, dict], ...]] = {
    # A rack slice of the paper's Table 2 service classes: caches, a
    # store, and an HPC batch job.
    "standard": (
        ("memcached-ycsb", {"num_pages": 8192, "ops_per_window": 200_000}),
        ("redis-ycsb", {"num_pages": 12288, "ops_per_window": 200_000}),
        ("memcached-memtier", {"num_pages": 8192, "ops_per_window": 200_000}),
        ("xsbench", {"num_pages": 16384, "ops_per_window": 20_000}),
    ),
    # Caching fleet: only the KV service classes.
    "kv": (
        ("memcached-ycsb", {"num_pages": 8192, "ops_per_window": 200_000}),
        ("memcached-memtier", {"num_pages": 8192, "ops_per_window": 200_000}),
        ("redis-ycsb", {"num_pages": 12288, "ops_per_window": 200_000}),
    ),
    # Analytics/HPC fleet: graph kernels plus XSBench.  Graph footprints
    # derive from the rMat scale parameter, so only ops are scalable.
    "analytics": (
        ("pagerank", {"scale": 13, "ops_per_window": 100_000}),
        ("bfs", {"scale": 13, "ops_per_window": 100_000}),
        ("xsbench", {"num_pages": 16384, "ops_per_window": 20_000}),
        ("graphsage", {"scale": 13, "ops_per_window": 50_000}),
    ),
    # Microbenchmark fleet: fast, used by tests and CI smoke runs.
    "micro": (
        ("masim", {"num_pages": 1024, "ops_per_window": 20_000}),
    ),
}


def fleet_profile(name: str) -> tuple[tuple[str, dict], ...]:
    """Look up a fleet workload profile by name."""
    try:
        return FLEET_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fleet profile {name!r}; "
            f"available: {sorted(FLEET_PROFILES)}"
        ) from None
