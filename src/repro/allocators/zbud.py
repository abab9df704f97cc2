"""zbud pool allocator: at most two objects ("buddies") per pool page.

The kernel's zbud stores one object from the front of a page and one from
the back; a page therefore holds at most two compressed objects and the
best possible savings is 50 % (paper §2).  Management is trivially cheap:
finding space is a lookup in per-free-size lists, so the tier's management
overhead is low.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.allocators.base import Handle, PoolAllocator
from repro.allocators.buddy import BuddyAllocator
from repro.mem.page import PAGE_SIZE

#: zbud rounds object sizes up to 1/64-page chunks, like the kernel.
CHUNK = PAGE_SIZE // 64


def _chunks(size: int) -> int:
    """Size in zbud chunks, rounded up."""
    return -(-size // CHUNK)


@dataclass
class _ZbudPage:
    pfn: int
    free_chunks: int = PAGE_SIZE // CHUNK
    objects: dict[int, int] = field(default_factory=dict)  # id -> chunks


class ZbudAllocator(PoolAllocator):
    """Two-objects-per-page pool manager."""

    name = "zbud"
    mgmt_overhead_ns = 150.0
    max_objects_per_page = 2
    #: A store claims at most one fresh pool page.
    max_pool_pages_per_store = 1

    def __init__(self, arena_pages: int = 1 << 20) -> None:
        super().__init__(arena_pages)
        self._buddy = BuddyAllocator(arena_pages)
        self._pages: dict[int, _ZbudPage] = {}  # pfn -> page
        self._page_of: dict[int, int] = {}  # object id -> pfn
        # Pages with exactly one object, bucketed by free chunks, so store()
        # can find a fitting buddy page in O(1) -- mirrors zbud's unbuddied
        # lists.
        self._unbuddied: list[set[int]] = [
            set() for _ in range(PAGE_SIZE // CHUNK + 1)
        ]

    def store(self, size: int) -> Handle:
        self._check_size(size)
        need = _chunks(size)
        page = self._find_unbuddied(need)
        if page is None:
            pfn = self._buddy.alloc(1)
            page = _ZbudPage(pfn=pfn)
            self._pages[pfn] = page
        else:
            self._unbuddied[page.free_chunks].discard(page.pfn)
        handle = self._issue_handle(size)
        page.objects[handle.object_id] = need
        page.free_chunks -= need
        self._page_of[handle.object_id] = page.pfn
        if len(page.objects) < self.max_objects_per_page:
            self._unbuddied[page.free_chunks].add(page.pfn)
        return handle

    def free(self, handle: Handle) -> None:
        self._retire_handle(handle)
        pfn = self._page_of.pop(handle.object_id)
        page = self._pages[pfn]
        if len(page.objects) < self.max_objects_per_page:
            self._unbuddied[page.free_chunks].discard(pfn)
        page.free_chunks += page.objects.pop(handle.object_id)
        if not page.objects:
            del self._pages[pfn]
            self._buddy.free(pfn)
        else:
            self._unbuddied[page.free_chunks].add(pfn)

    @property
    def pool_pages(self) -> int:
        return len(self._pages)

    def _find_unbuddied(self, need: int) -> _ZbudPage | None:
        """Best-fit search of the unbuddied lists for ``need`` chunks."""
        for free in range(need, len(self._unbuddied)):
            bucket = self._unbuddied[free]
            if bucket:
                return self._pages[next(iter(bucket))]
        return None
