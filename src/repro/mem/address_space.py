"""Virtual address space of a simulated application.

An :class:`AddressSpace` is the unit a workload generator produces accesses
against: a contiguous range of 4 KB pages, tiled into 2 MB regions, where
each page carries an *intrinsic compressibility* (the deflate-9
compressed/original ratio of its virtual contents) drawn from a workload
specific profile (see :mod:`repro.compression.data`).
"""

from __future__ import annotations

import numpy as np

from repro.compression.data import page_compressibilities
from repro.mem.page import PAGE_SIZE, PAGES_PER_REGION
from repro.mem.pagetable import PageTable
from repro.mem.region import RegionSet

#: Allocation-run lengths (pages) drawn for the ``alloc_site`` column:
#: uniform in ``[min, max)``, mean a quarter region, so objects straddle
#: region boundaries (the OBASE granularity argument needs misalignment).
ALLOC_RUN_PAGES = (PAGES_PER_REGION // 16, PAGES_PER_REGION // 2)

#: Extra entropy word for the allocation-site stream, keeping it
#: independent of the compressibility draw (which pins existing goldens).
_ALLOC_SITE_STREAM = 0x0BA5E


def draw_alloc_sites(num_pages: int, seed: int) -> np.ndarray:
    """Assign contiguous variable-length allocation runs to pages.

    Models a slab of allocations laid out by address: each run is one
    allocation site's object, its length drawn uniformly from
    :data:`ALLOC_RUN_PAGES`.  The stream is seeded independently of every
    other draw in the simulator so adding the column perturbs no pinned
    RNG sequence.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, _ALLOC_SITE_STREAM))
    )
    lo, hi = ALLOC_RUN_PAGES
    sites = np.empty(num_pages, dtype=np.int32)
    pos = 0
    site = 0
    while pos < num_pages:
        remaining = num_pages - pos
        for length in rng.integers(lo, hi, size=remaining // lo + 1).tolist():
            end = min(pos + length, num_pages)
            sites[pos:end] = site
            site += 1
            pos = end
            if pos >= num_pages:
                break
    return sites


class AddressSpace:
    """Pages + regions + per-page compressibility for one application.

    Args:
        num_pages: Total pages; must tile into whole 2 MB regions.
        compressibility_profile: Key of
            :data:`repro.compression.data.PROFILES` describing how
            compressible this application's data is.
        seed: RNG seed for the per-page compressibility draw.
    """

    def __init__(
        self,
        num_pages: int,
        compressibility_profile: str = "mixed",
        seed: int = 0,
        compressibility: np.ndarray | None = None,
    ) -> None:
        if num_pages < PAGES_PER_REGION:
            raise ValueError(
                f"address space needs at least one region "
                f"({PAGES_PER_REGION} pages), got {num_pages}"
            )
        if num_pages % PAGES_PER_REGION:
            raise ValueError(
                f"num_pages ({num_pages}) must be a multiple of "
                f"{PAGES_PER_REGION} (2 MB regions)"
            )
        self.num_pages = num_pages
        #: The columnar metadata store every page/region view reads.
        self.page_table = PageTable(num_pages)
        self.page_table.alloc_site = draw_alloc_sites(num_pages, seed)
        self.regions = RegionSet(self.page_table)
        if compressibility is not None:
            compressibility = np.asarray(compressibility, dtype=np.float64)
            if compressibility.shape != (num_pages,):
                raise ValueError(
                    f"explicit compressibility must have shape "
                    f"({num_pages},), got {compressibility.shape}"
                )
            if (compressibility <= 0).any() or (compressibility > 1).any():
                raise ValueError("compressibility values must be in (0, 1]")
            self.profile = "custom"
            self.compressibility = compressibility
        else:
            self.profile = compressibility_profile
            self.compressibility = page_compressibilities(
                compressibility_profile, num_pages, seed=seed
            )

    @classmethod
    def with_size(
        cls, size_bytes: int, compressibility_profile: str = "mixed", seed: int = 0
    ) -> "AddressSpace":
        """Build an address space of ``size_bytes`` (rounded up to regions)."""
        pages = -(-size_bytes // PAGE_SIZE)
        pages = -(-pages // PAGES_PER_REGION) * PAGES_PER_REGION
        return cls(pages, compressibility_profile, seed)

    @property
    def num_regions(self) -> int:
        """Number of 2 MB regions."""
        return len(self.regions)

    @property
    def size_bytes(self) -> int:
        """Total size in bytes (the application's RSS in the simulation)."""
        return self.num_pages * PAGE_SIZE

    def region_compressibility(self) -> np.ndarray:
        """Mean intrinsic compressibility per region, shape (num_regions,)."""
        return self.compressibility.reshape(
            self.num_regions, PAGES_PER_REGION
        ).mean(axis=1)
