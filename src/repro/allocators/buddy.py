"""Binary buddy allocator over a page-granular arena.

Zswap pools grow by requesting physical pages from the kernel's buddy
allocator (paper §2).  zbud and z3fold take their order-0 pool pages
from this one, whose pfns key their unbuddied lists.  This is a
faithful from-scratch implementation: power-of-two block sizes, free
lists per order, split on allocation, coalesce with the buddy on free.

Blocks are addressed by their first page frame number (PFN).  The arena
size must be a power of two pages; callers wanting "effectively unbounded"
pools simply size the arena at the machine's tier capacity.
"""

from __future__ import annotations

from repro.allocators.base import AllocationError


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class BuddyAllocator:
    """Classic binary buddy allocator.

    Args:
        total_pages: Arena size in pages; must be a power of two.
    """

    def __init__(self, total_pages: int) -> None:
        if not _is_power_of_two(total_pages):
            raise ValueError(
                f"buddy arena must be a power of two pages, got {total_pages}"
            )
        self.total_pages = total_pages
        self.max_order = total_pages.bit_length() - 1
        # free_lists[order] = set of start PFNs of free blocks of 2**order.
        self._free_lists: list[set[int]] = [
            set() for _ in range(self.max_order + 1)
        ]
        self._free_lists[self.max_order].add(0)
        # start PFN -> order, for currently allocated blocks.
        self._allocated: dict[int, int] = {}
        self.allocated_pages = 0

    # -- queries ------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        """Pages not currently handed out."""
        return self.total_pages - self.allocated_pages

    def order_for(self, num_pages: int) -> int:
        """Smallest order whose block fits ``num_pages``."""
        if num_pages < 1:
            raise ValueError("num_pages must be >= 1")
        return (num_pages - 1).bit_length()

    # -- allocation ---------------------------------------------------------

    def alloc(self, num_pages: int = 1) -> int:
        """Allocate a block of at least ``num_pages`` pages.

        Returns:
            The start PFN of the block.

        Raises:
            AllocationError: If no block of sufficient order is free.
        """
        return self.alloc_many(num_pages, 1)[0]

    def alloc_many(self, num_pages: int, k: int) -> list[int]:
        """Allocate ``k`` blocks of at least ``num_pages`` pages each.

        Free-list state afterwards is exactly that of ``k`` sequential
        :meth:`alloc` calls (same set pops and splits, same order); an
        exhausted arena raises after committing the blocks already
        handed out, as the sequential loop would.

        Returns:
            The blocks' start PFNs, in allocation order.
        """
        order = self.order_for(num_pages)
        if order > self.max_order:
            raise AllocationError(
                f"request of {num_pages} pages exceeds arena of "
                f"{self.total_pages} pages"
            )
        return self.alloc_orders([order] * k)

    def alloc_orders(self, orders: list[int]) -> list[int]:
        """Allocate one block of each order in ``orders``, in order.

        Exactly sequential :meth:`alloc` calls for blocks of those
        orders, failure point included: an exhausted arena raises after
        committing the blocks already handed out.

        Returns:
            The blocks' start PFNs, in allocation order.
        """
        max_order = self.max_order
        if orders and max(orders) > max_order:
            raise AllocationError(
                f"block of order {max(orders)} exceeds arena of "
                f"{self.total_pages} pages"
            )
        free_lists = self._free_lists
        allocated = self._allocated
        pfns: list[int] = []
        push = pfns.append
        for order in orders:
            exact = free_lists[order]
            if exact:
                push(exact.pop())
                continue
            avail = order + 1
            while avail <= max_order and not free_lists[avail]:
                avail += 1
            if avail > max_order:
                done = orders[: len(pfns)]
                allocated.update(zip(pfns, done))
                self.allocated_pages += sum(1 << o for o in done)
                raise AllocationError(
                    f"out of memory: no free block of order >= {order}"
                )
            pfn = free_lists[avail].pop()
            # Split down to the requested order.
            while avail > order:
                avail -= 1
                free_lists[avail].add(pfn + (1 << avail))
            push(pfn)
        allocated.update(zip(pfns, orders))
        self.allocated_pages += sum(1 << o for o in orders)
        return pfns

    def free(self, pfn: int) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        self.free_many((pfn,))

    def free_many(self, pfns) -> None:
        """Free blocks in order; exactly sequential :meth:`free` calls.

        An unknown PFN raises after committing the frees before it.
        """
        free_lists = self._free_lists
        allocated = self._allocated
        max_order = self.max_order
        freed = 0
        for pfn in pfns:
            try:
                order = allocated.pop(pfn)
            except KeyError:
                self.allocated_pages -= freed
                raise AllocationError(
                    f"PFN {pfn} is not an allocated block"
                ) from None
            size = 1 << order
            freed += size
            while order < max_order:
                same_order = free_lists[order]
                buddy = pfn ^ size
                if buddy not in same_order:
                    break
                same_order.remove(buddy)
                pfn &= ~size  # the lower of the pair
                order += 1
                size <<= 1
            free_lists[order].add(pfn)
        self.allocated_pages -= freed

    def fragmentation(self) -> float:
        """Fraction of free memory not in the largest free block.

        0.0 means all free memory is one contiguous block (or nothing is
        free); values near 1.0 indicate heavy external fragmentation.
        """
        free = self.free_pages
        if free == 0:
            return 0.0
        largest = 0
        for order in range(self.max_order, -1, -1):
            if self._free_lists[order]:
                largest = 1 << order
                break
        return 1.0 - largest / free
