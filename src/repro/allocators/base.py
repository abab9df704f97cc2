"""Pool allocator interface and shared bookkeeping.

A :class:`PoolAllocator` stores variable-size compressed objects inside
pool pages drawn from an arena of ``arena_pages`` order-0 frames: zbud
and z3fold take each page from a
:class:`~repro.allocators.buddy.BuddyAllocator`, whose pfns key their
unbuddied lists, while zsmalloc only counts the frames its zspages hold.
The two quantities the tiering models consume are:

* **density** -- how many pool pages the allocator needs to hold the
  currently stored bytes (:attr:`PoolAllocator.pool_pages`); this sets the
  tier's real memory footprint and therefore its TCO, and
* **management overhead** -- extra nanoseconds charged per store/lookup
  (:attr:`PoolAllocator.mgmt_overhead_ns`); zsmalloc pays more than zbud
  (paper §2).
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

from repro.mem.page import PAGE_SIZE


class AllocationError(Exception):
    """Raised when a pool or arena cannot satisfy a request."""


class Handle(NamedTuple):
    """Opaque reference to a stored compressed object.

    A named tuple rather than a dataclass: handles are minted on the
    migration hot path (tens of thousands per wave) and tuple
    construction is several times cheaper.

    Attributes:
        allocator: Name of the allocator that issued the handle.
        object_id: Allocator-local identifier.
        size: Stored object size in bytes.
    """

    allocator: str
    object_id: int
    size: int


class PoolAllocator(abc.ABC):
    """Abstract zswap pool manager.

    Subclasses must maintain the invariant ``stored_bytes <= pool_pages *
    PAGE_SIZE`` and must reclaim pool pages when objects are freed (possibly
    lazily, but the property tests bound the slack).
    """

    #: Identifier matching the kernel name (``"zbud"`` etc.).
    name: str = "pool"

    #: Management overhead charged on each store or lookup, nanoseconds.
    mgmt_overhead_ns: float = 0.0

    #: Worst-case pool-page growth of a single :meth:`store`, which the
    #: default :meth:`store_bound` charges every store; a subclass that
    #: keeps that default sets it.
    max_pool_pages_per_store: int

    #: Largest storable object, bytes.  zswap rejects objects that compress
    #: to more than a page; individual allocators may be stricter.
    max_object_size: int = PAGE_SIZE

    def __init__(self, arena_pages: int) -> None:
        #: Order-0 frames the pool may hold at once.
        self.arena_pages = arena_pages
        self.stored_bytes = 0
        self.stored_objects = 0
        self._next_id = 0

    # -- required operations ----------------------------------------------

    @abc.abstractmethod
    def store(self, size: int) -> Handle:
        """Store an object of ``size`` bytes; returns its handle."""

    @abc.abstractmethod
    def free(self, handle: Handle) -> None:
        """Release a stored object."""

    @property
    @abc.abstractmethod
    def pool_pages(self) -> int:
        """Pool pages currently backing the stored objects."""

    # -- id-based bulk operations -------------------------------------------
    #
    # The columnar tier membership stores (object id, size) columns
    # instead of Handle tuples, so the bulk migration path talks to the
    # allocator in plain integer arrays -- no Handle construction for
    # tens of thousands of objects per wave.  Object ids are consecutive
    # because every store mints them through ``_issue_handle`` in call
    # order; ``store_ids`` exposes that as a (first_id, n) contract.

    def store_ids(self, sizes) -> int:
        """Store objects in order; returns the first object id.

        The ``k``-th object of ``sizes`` gets id ``first + k``.  Pool
        state afterwards is identical to sequential :meth:`store` calls.
        """
        first = self._next_id
        for size in np.asarray(sizes).tolist():
            self.store(int(size))
        return first

    def free_ids(self, object_ids, sizes) -> None:
        """Free objects by id in order; equivalent to sequential :meth:`free`.

        ``sizes`` must be the sizes the objects were stored with (the
        caller's csize column carries them; stored-bytes accounting
        depends on them exactly as it does on ``Handle.size``).
        """
        name = self.name
        for object_id, size in zip(
            np.asarray(object_ids).tolist(), np.asarray(sizes).tolist()
        ):
            self.free(Handle(name, int(object_id), int(size)))

    def store_bound(self, sizes) -> int:
        """Growth bound of ``store_ids(sizes)``, pages.

        ``store_ids(sizes)`` grows :attr:`pool_pages` by at most this
        many pages, whatever the pool holds.  The default charges every
        store :attr:`max_pool_pages_per_store` fresh pages.
        """
        return len(sizes) * self.max_pool_pages_per_store

    def stores_fit(self, runs, room_pages: int) -> bool:
        """Whether ``store_ids`` runs provably open fewer pool pages than
        ``room_pages`` and fit the arena.

        ``runs`` are the runs' size arrays, in order; frees may separate
        them (frees only add room).  The runs' :meth:`store_bound`
        total decides.
        """
        pages = sum(self.store_bound(sizes) for sizes in runs)
        return pages < room_pages and self.arena_fits(pages)

    def arena_fits(self, pages: int) -> bool:
        """Whether ``pages`` fresh pool pages fit in the arena.

        Every pool page is one order-0 frame, so any free frame serves
        any open, in any order.
        """
        return self.pool_pages + pages <= self.arena_pages

    # -- shared helpers -----------------------------------------------------

    def _check_size(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"object size must be >= 1, got {size}")
        if size > self.max_object_size:
            raise AllocationError(
                f"{self.name} cannot store a {size}-byte object "
                f"(max {self.max_object_size})"
            )

    def _issue_handle(self, size: int) -> Handle:
        handle = Handle(allocator=self.name, object_id=self._next_id, size=size)
        self._next_id += 1
        self.stored_bytes += size
        self.stored_objects += 1
        return handle

    def _retire_handle(self, handle: Handle) -> None:
        if handle.allocator != self.name:
            raise AllocationError(
                f"handle from {handle.allocator!r} freed on {self.name!r}"
            )
        self.stored_bytes -= handle.size
        self.stored_objects -= 1

    @property
    def pool_bytes(self) -> int:
        """Physical bytes consumed by the pool."""
        return self.pool_pages * PAGE_SIZE

    @property
    def density(self) -> float:
        """Stored bytes per pool byte, in ``[0, 1]``; higher is denser."""
        if self.pool_pages == 0:
            return 0.0
        return self.stored_bytes / self.pool_bytes
