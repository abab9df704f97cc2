"""Factory for pool allocators by kernel name."""

from __future__ import annotations

from typing import Callable

from repro.allocators.base import PoolAllocator
from repro.allocators.z3fold import Z3foldAllocator
from repro.allocators.zbud import ZbudAllocator
from repro.allocators.zsmalloc import ZsmallocAllocator

ALLOCATOR_FACTORIES: dict[str, Callable[[], PoolAllocator]] = {
    "zbud": ZbudAllocator,
    "z3fold": Z3foldAllocator,
    "zsmalloc": ZsmallocAllocator,
}


def make_allocator(name: str, arena_pages: int = 1 << 20) -> PoolAllocator:
    """Instantiate a pool allocator by its kernel name.

    Args:
        name: One of ``"zbud"``, ``"z3fold"``, ``"zsmalloc"``.
        arena_pages: Order-0 frames the pool may hold.  zbud and z3fold
            take them from a buddy arena of that size, which must be a
            power of two; zsmalloc only counts them.
    """
    try:
        factory = ALLOCATOR_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown pool allocator {name!r}; "
            f"available: {sorted(ALLOCATOR_FACTORIES)}"
        ) from None
    return factory(arena_pages)  # type: ignore[call-arg]
