"""Memory tiers: byte-addressable and compressed (paper §4).

A tier is where pages live.  Byte-addressable tiers (DRAM, NVMM, CXL) serve
loads directly at their medium's latency.  Compressed tiers hold pages as
compressed objects inside a pool allocator; an access faults, pays
decompression plus pool-management plus media-streaming latency, and the
page is promoted to a byte-addressable tier (paper §6.5).

Latency model for one compressed-page fault::

    Lat_CT = mgmt_overhead(allocator)
           + decompress_ns(algorithm)
           + media.read_ns * ceil(compressed_size / CHUNK_BYTES)

i.e. the compressed object is streamed from the backing medium in
:data:`CHUNK_BYTES` units while the algorithm decompresses.  Storing a page
is symmetric with ``compress_ns`` and ``write_ns``.  The model reproduces
the paper's Figure 2a structure: the algorithm dominates, the pool manager
adds a constant, and an Optane backing stretches the media term by ~3x.
"""

from __future__ import annotations

import math

import numpy as np

from repro.allocators.base import AllocationError, Handle, PoolAllocator
from repro.allocators.zsmalloc import size_classes
from repro.compression.model import AlgorithmModel
from repro.mem.media import DRAM, MediaSpec
from repro.mem.page import PAGE_SIZE
from repro.mem.pagetable import PageTable
from repro.mem.stats import TierStats

#: Granularity at which compressed objects stream from their backing medium.
CHUNK_BYTES = 256

#: zswap rejects objects that barely compress (paper footnote 1).
REJECT_RATIO = 0.95


def _repeats(ids: np.ndarray) -> bool:
    """Whether any id occurs twice.  Strictly increasing ids (every
    migration and fault batch) are proved unique in one O(n) pass;
    only other orders pay for ``np.unique``."""
    if ids.size < 2 or (ids[1:] > ids[:-1]).all():
        return False
    return np.unique(ids).size != ids.size


class Tier:
    """Base class for all tiers.

    Args:
        name: Display name (e.g. ``"DRAM"``, ``"CT-1"``).
        media: Backing physical medium.
        capacity_pages: Physical pages this tier may occupy.
    """

    is_compressed = False

    def __init__(self, name: str, media: MediaSpec, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be >= 0")
        self.name = name
        self.media = media
        self.capacity_pages = capacity_pages
        self.stats = TierStats()

    # -- interface ----------------------------------------------------------

    @property
    def used_pages(self) -> int:
        """Physical pages currently occupied."""
        raise NotImplementedError

    @property
    def free_pages(self) -> int:
        """Physical pages still available."""
        return self.capacity_pages - self.used_pages

    def cost(self) -> float:
        """Current TCO contribution (relative $; DRAM page = cost unit)."""
        return self.used_pages * self.media.cost_per_page

    def expected_page_cost(self, intrinsic: float) -> float:
        """Modelled cost of placing one page here (for the ILP, Eq. 8)."""
        raise NotImplementedError

    def expected_page_costs(self, intrinsics: np.ndarray) -> np.ndarray:
        """:meth:`expected_page_cost` over an array, bit-identical."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name}, "
            f"{self.used_pages}/{self.capacity_pages} pages)"
        )


class ByteAddressableTier(Tier):
    """DRAM / NVMM / CXL tier: loads served in place at media latency."""

    def __init__(self, name: str, media: MediaSpec, capacity_pages: int) -> None:
        super().__init__(name, media, capacity_pages)
        self._resident = 0

    @property
    def used_pages(self) -> int:
        return self._resident

    def access_ns(self, count: int = 1, write_fraction: float = 0.0) -> float:
        """Latency of ``count`` accesses to resident pages."""
        read_ns = self.media.read_ns * (1.0 - write_fraction)
        write_ns = self.media.write_ns * write_fraction
        return count * (read_ns + write_ns)

    def add_pages(self, count: int = 1) -> None:
        """Account ``count`` pages moving in; raises when over capacity."""
        if self._resident + count > self.capacity_pages:
            raise AllocationError(
                f"tier {self.name} over capacity: "
                f"{self._resident}+{count} > {self.capacity_pages}"
            )
        self._resident += count
        self.stats.pages_in += count

    def remove_pages(self, count: int = 1) -> None:
        """Account ``count`` pages moving out."""
        if count > self._resident:
            raise AllocationError(
                f"tier {self.name} cannot release {count} pages "
                f"({self._resident} resident)"
            )
        self._resident -= count
        self.stats.pages_out += count

    def expected_page_cost(self, intrinsic: float) -> float:
        return self.media.cost_per_page

    def expected_page_costs(self, intrinsics: np.ndarray) -> np.ndarray:
        return np.full(np.shape(intrinsics), float(self.media.cost_per_page))


class CompressedTier(Tier):
    """A zswap-style compressed tier = algorithm + allocator + medium.

    Membership is columnar: the tier marks the pages it stores in a
    :class:`~repro.mem.pagetable.PageTable`'s ``ct_owner`` column under
    its *token* and keeps each page's compressed size and pool object id
    in the ``csize`` / ``obj_id`` columns.  A tier inside a
    :class:`~repro.mem.system.TieredMemorySystem` is bound to the address
    space's shared table (token = tier index); a standalone tier lazily
    creates a private table sized to the page ids it sees.

    Args:
        name: Display name (e.g. ``"C7"``).
        algorithm: Compression algorithm cost model.
        allocator: Pool allocator instance (owned by this tier).
        media: Medium backing the pool pages.
        capacity_pages: Bound on pool pages.
    """

    is_compressed = True

    def __init__(
        self,
        name: str,
        algorithm: AlgorithmModel,
        allocator: PoolAllocator,
        media: MediaSpec,
        capacity_pages: int,
    ) -> None:
        super().__init__(name, media, capacity_pages)
        self.algorithm = algorithm
        self.allocator = allocator
        self._pt: PageTable | None = None
        self._token = 0
        self._resident = 0

    # -- membership columns -------------------------------------------------

    def bind_table(self, table: PageTable, token: int) -> None:
        """Adopt a shared page table; called when a system binds the tier.

        A tier that already stores pages keeps its current table (its
        membership columns are authoritative wherever they live; every
        access goes through the tier, never the table directly).
        """
        if self._resident == 0:
            self._pt = table
            self._token = token

    def _table(self, min_pages: int = 0) -> PageTable:
        """This tier's membership table, growing a private one on demand."""
        pt = self._pt
        if pt is None:
            pt = self._pt = PageTable(0, num_regions=0)
        if min_pages > pt.num_pages:
            pt.grow(min_pages)
        return pt

    # -- capacity -----------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return self.allocator.pool_pages

    @property
    def resident_pages(self) -> int:
        """Application pages stored compressed (not pool pages)."""
        return self._resident

    def contains(self, page_id: int) -> bool:
        pt = self._pt
        return (
            pt is not None
            and 0 <= page_id < pt.num_pages
            and pt.ct_owner[page_id] == self._token
        )

    def stored_bytes_in_range(self, start: int, end: int) -> int:
        """Compressed bytes stored for pages in ``[start, end)``.

        Used for per-tenant TCO attribution when applications are
        co-located in one address space.
        """
        pt = self._pt
        if pt is None:
            return 0
        return pt.compressed_bytes_in_range(
            self._token, max(start, 0), min(end, pt.num_pages)
        )

    def stored_csizes(self) -> np.ndarray:
        """Compressed sizes of every stored page (accounting invariants)."""
        pt = self._pt
        if pt is None:
            return np.zeros(0, dtype=np.int64)
        return pt.csize[pt.ct_owner == self._token]

    # -- admission ----------------------------------------------------------

    def accepts(self, intrinsic: float) -> bool:
        """Whether zswap would admit a page of this compressibility."""
        return self.algorithm.ratio(intrinsic) < REJECT_RATIO

    def accepts_many(self, intrinsics: np.ndarray) -> np.ndarray:
        """:meth:`accepts` over an array of intrinsic ratios."""
        return self.algorithm.ratios(intrinsics) < REJECT_RATIO

    # -- latency model ------------------------------------------------------

    def _media_stream_ns(self, nbytes: int, write: bool) -> float:
        per_chunk = self.media.write_ns if write else self.media.read_ns
        return per_chunk * math.ceil(nbytes / CHUNK_BYTES)

    def store_latency_ns(self, intrinsic: float) -> float:
        """Nanoseconds to compress and store one page."""
        csize = self.algorithm.compressed_size(intrinsic)
        return (
            self.allocator.mgmt_overhead_ns
            + self.algorithm.compress_ns()
            + self._media_stream_ns(csize, write=True)
        )

    def fault_latency_ns(self, page_id: int | None = None, intrinsic: float | None = None) -> float:
        """Nanoseconds to decompress one page on demand (Eq. 4's Lat_CT).

        Either ``page_id`` (for a stored page) or ``intrinsic`` (for
        planning) must be given.
        """
        if page_id is not None and self.contains(page_id):
            csize = int(self._pt.csize[page_id])
        elif intrinsic is not None:
            csize = self.algorithm.compressed_size(intrinsic)
        else:
            raise ValueError("need a stored page_id or an intrinsic ratio")
        return (
            self.allocator.mgmt_overhead_ns
            + self.algorithm.decompress_ns()
            + self._media_stream_ns(csize, write=False)
        )

    def fault_latencies_ns(self, intrinsics: np.ndarray) -> np.ndarray:
        """:meth:`fault_latency_ns` for planning, over an array of
        intrinsic ratios; bit-identical element for element."""
        return self.csize_fault_ns(self.algorithm.compressed_sizes(intrinsics))

    def csize_fault_ns(self, csizes: np.ndarray) -> np.ndarray:
        """Fault latency of objects of the given compressed sizes."""
        fixed = self.allocator.mgmt_overhead_ns + self.algorithm.decompress_ns()
        return fixed + self.media.read_ns * np.ceil(csizes / CHUNK_BYTES)

    def csize_store_ns(self, csizes: np.ndarray) -> np.ndarray:
        """Store latency of objects of the given compressed sizes."""
        fixed = self.allocator.mgmt_overhead_ns + self.algorithm.compress_ns()
        return fixed + self.media.write_ns * np.ceil(csizes / CHUNK_BYTES)

    def csize_copy_ns(self, dst: CompressedTier, csizes: np.ndarray) -> np.ndarray:
        """§7.1 copy of objects of the given compressed sizes to ``dst``,
        a tier of the same algorithm: both pools' management plus the
        object streamed off this medium and onto ``dst``'s, no codec."""
        chunks = np.ceil(csizes / CHUNK_BYTES)
        fixed = self.allocator.mgmt_overhead_ns + dst.allocator.mgmt_overhead_ns
        return fixed + self.media.read_ns * chunks + dst.media.write_ns * chunks

    def expected_fault_ns(self, intrinsic: float = 0.5) -> float:
        """Planning-time fault latency for a typical page (for the ILP)."""
        return self.fault_latency_ns(intrinsic=intrinsic)

    # -- store / remove -----------------------------------------------------

    def store_page(self, page_id: int, intrinsic: float) -> float:
        """Compress and store a page; returns the latency charged.

        Raises:
            AllocationError: If the page is already stored, zswap would
                reject it, or the pool is at capacity.
        """
        if self.contains(page_id):
            raise AllocationError(
                f"page {page_id} already stored in tier {self.name}"
            )
        if not self.accepts(intrinsic):
            raise AllocationError(
                f"tier {self.name} rejects page {page_id}: "
                f"ratio {self.algorithm.ratio(intrinsic):.2f} >= {REJECT_RATIO}"
            )
        csize = self.algorithm.compressed_size(intrinsic)
        if self.used_pages >= self.capacity_pages:
            raise AllocationError(f"tier {self.name} pool is at capacity")
        handle = self.allocator.store(csize)
        pt = self._table(page_id + 1)
        pt.ct_owner[page_id] = self._token
        pt.csize[page_id] = csize
        pt.obj_id[page_id] = handle.object_id
        self._resident += 1
        self.stats.pages_in += 1
        self.stats.stores += 1
        self.stats.compressed_bytes += csize
        return self.store_latency_ns(intrinsic)

    def remove_page(self, page_id: int, *, fault: bool = False) -> float:
        """Release a stored page; returns the decompression latency.

        Args:
            page_id: The page to remove.
            fault: True when removal is a demand fault (counted in tier
                fault statistics) rather than a daemon migration.
        """
        if not self.contains(page_id):
            raise AllocationError(
                f"page {page_id} is not stored in tier {self.name}"
            )
        csize, object_id = self._clear_page(page_id)
        latency = (
            self.allocator.mgmt_overhead_ns
            + self.algorithm.decompress_ns()
            + self._media_stream_ns(csize, write=False)
        )
        self.allocator.free(Handle(self.allocator.name, object_id, csize))
        self.stats.pages_out += 1
        self.stats.compressed_bytes -= csize
        if fault:
            self.stats.faults += 1
        return latency

    def _clear_page(self, page_id: int) -> tuple[int, int]:
        """Drop one page's membership columns; returns (csize, object_id)."""
        pt = self._pt
        csize = int(pt.csize[page_id])
        object_id = int(pt.obj_id[page_id])
        pt.ct_owner[page_id] = -1
        pt.csize[page_id] = 0
        pt.obj_id[page_id] = -1
        self._resident -= 1
        return csize, object_id

    def store_prepared_bulk(self, page_ids, csizes) -> None:
        """Store pages in order with precomputed compressed sizes.

        Bulk-migration primitive: the caller has already verified
        acceptance and proven the pool cannot overflow for the whole
        batch.  Fully columnar: one id-range store into the pool
        allocator, then three fancy-indexed column writes -- no Handle
        or per-page object is constructed anywhere on this path.
        """
        pids = np.asarray(page_ids, dtype=np.int64)
        n = pids.size
        if n == 0:
            return
        cs = np.asarray(csizes, dtype=np.int64)
        first = self.allocator.store_ids(cs)
        pt = self._table(int(pids.max()) + 1)
        pt.ct_owner[pids] = self._token
        pt.csize[pids] = cs
        pt.obj_id[pids] = np.arange(first, first + n, dtype=np.int64)
        self._resident += n

    def detach_pages_bulk(self, page_ids) -> tuple[np.ndarray, np.ndarray]:
        """Drop a batch's membership but keep its pool objects allocated.

        The first half of :meth:`remove_pages_bulk`, for a caller that
        frees the objects itself (a migration wave merges several
        batches' frees into one ``free_ids`` call).  Page ids must be
        distinct.

        Returns:
            The pages' ``(csizes, object_ids)``, in call order.

        Raises:
            AllocationError: Naming the first unstored page, before any
                mutation.
        """
        pt = self._pt
        pids = np.asarray(page_ids, dtype=np.int64)
        if pids.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        limit = pt.num_pages if pt is not None else 0
        if (
            pids.min() < 0
            or pids.max() >= limit
            or (pt.ct_owner[pids] != self._token).any()
        ):
            for pid in pids.tolist():
                if not self.contains(pid):
                    raise AllocationError(
                        f"page {pid} is not stored in tier {self.name}"
                    )
        cs = pt.csize[pids]
        oids = pt.obj_id[pids]
        pt.ct_owner[pids] = -1
        pt.csize[pids] = 0
        pt.obj_id[pids] = -1
        self._resident -= pids.size
        return cs, oids

    def remove_pages_bulk(self, page_ids, *, fault: bool = False) -> np.ndarray:
        """Release many stored pages; returns per-page latencies.

        Exact batched equivalent of calling :meth:`remove_page` for each
        id in order (pool frees happen in the given order, so the
        allocator's page-packing trajectory is unchanged); the latency
        model is evaluated once over the whole batch instead of per call.
        """
        pids = np.asarray(page_ids, dtype=np.int64)
        if _repeats(pids):
            return np.array(
                [self.remove_page(int(p), fault=fault) for p in pids.tolist()],
                dtype=np.float64,
            )
        cs, oids = self.detach_pages_bulk(pids)
        n = cs.size
        if n:
            self.allocator.free_ids(oids, cs)
        self.stats.pages_out += n
        self.stats.compressed_bytes -= int(cs.sum())
        if fault:
            self.stats.faults += n
        return self.csize_fault_ns(cs)

    # -- planning cost ------------------------------------------------------

    def expected_page_cost(self, intrinsic: float) -> float:
        """Modelled pool cost of one page (Eq. 8's ``C_CT * USD_CT``)."""
        return float(self.expected_page_costs(np.array([intrinsic]))[0])

    def expected_page_costs(self, intrinsics: np.ndarray) -> np.ndarray:
        """:meth:`expected_page_cost` over an array.

        The effective ratio is packing-aware: zbud/z3fold floor it at one
        object slot, zsmalloc rounds the object up to its size class.
        """
        algorithm = self.algorithm
        max_per_page = getattr(self.allocator, "max_objects_per_page", None)
        if max_per_page is not None:
            ratios = algorithm.ratios(intrinsics)
            effective = np.maximum(ratios, 1.0 / max_per_page)
        else:
            csizes = algorithm.compressed_sizes(intrinsics)
            effective = size_classes(csizes) / PAGE_SIZE
        return effective * self.media.cost_per_page
