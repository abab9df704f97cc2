"""zsmalloc pool allocator: size-class based dense packing.

The kernel's zsmalloc groups objects into *size classes* (16-byte spacing)
and backs each class with *zspages* -- groups of up to four physical pages
chosen so objects straddle page boundaries with minimal waste.  It achieves
the best packing density of the three pool managers at the cost of the most
complex management (paper §2), which we reflect in the highest per-operation
overhead.

Columnar internals: zspages are rows of five numpy slot columns (pfn,
pages, capacity, live-object count, class; narrow dtypes, ``_n_slots``
rows in use) and object membership is one int32 array mapping object
id -> zspage slot (-1 when free).  The bulk paths work once per *size
class* (store) or once per *batch* (free) rather than once per zspage:
fresh zspages open in one batch and counts update by fancy index, so
Python touches only the partial lists and released slots.  Object ids
grow monotonically; the membership array doubles on demand (ids are
never reused, so a very long-lived pool grows it linearly with total
stores -- 4 bytes per object ever stored).  Pickles carry only the
rows and ids in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.allocators.base import Handle, PoolAllocator
from repro.allocators.buddy import BuddyAllocator
from repro.mem.page import PAGE_SIZE
from repro.mem.pagetable import PageTable

#: Size-class spacing, bytes (kernel: ZS_SIZE_CLASS_DELTA).
CLASS_DELTA = 16
#: Smallest storable class.
MIN_CLASS = 32
#: Most physical pages a zspage may span (kernel: ZS_MAX_PAGES_PER_ZSPAGE).
MAX_PAGES_PER_ZSPAGE = 4


def size_class(size: int) -> int:
    """Round ``size`` up to its zsmalloc size class."""
    if size <= MIN_CLASS:
        return MIN_CLASS
    return -(-size // CLASS_DELTA) * CLASS_DELTA


def size_classes(sizes: np.ndarray) -> np.ndarray:
    """:func:`size_class` over an integer array (floor division on the
    negated array is a ceil)."""
    return np.where(
        sizes <= MIN_CLASS, MIN_CLASS, -(-sizes // CLASS_DELTA) * CLASS_DELTA
    )


def _kernel_geometry(cls: int) -> tuple[int, int]:
    """The kernel's ``get_pages_per_zspage`` choice for class ``cls``."""
    best = (1, PAGE_SIZE // cls)
    best_waste = PAGE_SIZE - best[1] * cls
    for pages in range(2, MAX_PAGES_PER_ZSPAGE + 1):
        objs = (pages * PAGE_SIZE) // cls
        waste = pages * PAGE_SIZE - objs * cls
        # Normalise waste per page so larger zspages must actually be
        # tighter to win.
        if waste / pages < best_waste / best[0]:
            best = (pages, objs)
            best_waste = waste
    return best


#: ``(pages, objects)`` per zspage, indexed by ``cls // CLASS_DELTA``
#: (the rows below ``MIN_CLASS`` repeat its geometry; no class maps there).
_GEOMETRY = [
    _kernel_geometry(max(cls, MIN_CLASS))
    for cls in range(0, PAGE_SIZE + 1, CLASS_DELTA)
]


def zspage_geometry(cls: int) -> tuple[int, int]:
    """Choose (pages, objects) for a zspage of class ``cls``.

    Picks the page count in 1..4 minimising wasted bytes per object, exactly
    the kernel's ``get_pages_per_zspage`` logic (precomputed per class).

    Returns:
        Tuple ``(pages_per_zspage, objects_per_zspage)``.
    """
    return _GEOMETRY[cls // CLASS_DELTA]


@dataclass(slots=True)
class _Zspage:
    """Pre-SoA zspage record; kept only so old pickles still load."""

    pfn: int
    pages: int
    capacity: int
    objects: set[int] = field(default_factory=set)

    @property
    def full(self) -> bool:
        return len(self.objects) >= self.capacity


#: Per-zspage slot columns and their dtypes (``_zs_pfn``'s is per arena).
_SLOT_COLUMNS = {
    "_zs_pfn": None,
    "_zs_pages": np.int8,
    "_zs_capacity": np.int16,
    "_zs_count": np.int16,
    "_zs_cls": np.int16,
}


class ZsmallocAllocator(PoolAllocator):
    """Dense size-class pool manager."""

    name = "zsmalloc"
    mgmt_overhead_ns = 600.0
    #: A store may open a fresh zspage spanning up to this many pages.
    max_pool_pages_per_store = MAX_PAGES_PER_ZSPAGE

    def __init__(self, arena_pages: int = 1 << 20) -> None:
        super().__init__()
        self._buddy = BuddyAllocator(arena_pages)
        # class size -> list of partially-filled zspage slots (kernel
        # semantics: stores fill the most recently touched partial).
        self._partial: dict[int, list[int]] = {}
        # Zspage slot columns; the first ``_n_slots`` rows are in use
        # (live or on the free-slot stack, recycled LIFO).
        for name, dtype in self._slot_dtypes().items():
            setattr(self, name, np.zeros(64, dtype=dtype))
        self._n_slots = 0
        self._zs_free_slots: list[int] = []
        # object id -> zspage slot, -1 when free.  Doubles on demand.
        self._obj_zspage = np.full(1024, -1, dtype=np.int32)
        self._pool_pages = 0

    # -- slot helpers --------------------------------------------------------

    def _slot_dtypes(self) -> dict[str, type]:
        pfn = np.int32 if self._buddy.total_pages <= 1 << 31 else np.int64
        return {name: dtype or pfn for name, dtype in _SLOT_COLUMNS.items()}

    def _open_zspages(self, classes: list[int], ks: list[int]) -> np.ndarray:
        """Open ``ks[i]`` fresh zspages of class ``classes[i]``, in order.

        Exactly the sequential opens: buddy blocks class by class in
        allocation order, freed slots reused most-recently-freed first,
        then new slots.  Counts start at zero.

        Returns:
            The slots, class by class.
        """
        geometry = [_GEOMETRY[cls // CLASS_DELTA] for cls in classes]
        pfns: list[int] = []
        for (pages, _), k in zip(geometry, ks):
            pfns += self._buddy.alloc_many(pages, k)
        total = len(pfns)
        pages = np.repeat([g[0] for g in geometry], ks)
        # The buddy allocator rounds to powers of two; charge only the
        # pages the zspage actually uses, as the kernel allocates
        # order-0 pages individually and links them.
        self._pool_pages += int(pages.sum())
        free = self._zs_free_slots
        reused = min(total, len(free))
        slots = np.empty(total, dtype=np.int64)
        if reused:
            slots[:reused] = free[: -reused - 1 : -1]
            del free[-reused:]
        n = self._n_slots
        fresh = total - reused
        if fresh:
            slots[reused:] = np.arange(n, n + fresh)
            self._n_slots = n + fresh
            if n + fresh > self._zs_count.size:
                self._grow_slots(n + fresh)
        self._zs_pfn[slots] = pfns
        self._zs_pages[slots] = pages
        self._zs_capacity[slots] = np.repeat([g[1] for g in geometry], ks)
        self._zs_count[slots] = 0
        self._zs_cls[slots] = np.repeat(classes, ks)
        return slots

    def _grow_slots(self, upto: int) -> None:
        size = max(upto, 2 * self._zs_count.size)
        for name in _SLOT_COLUMNS:
            old = getattr(self, name)
            col = np.zeros(size, dtype=old.dtype)
            col[: old.size] = old
            setattr(self, name, col)

    def _release_zspages(self, slots) -> None:
        """Return emptied zspages' pages to the buddy allocator, in order."""
        slots = np.asarray(slots, dtype=np.int64)
        self._buddy.free_many(self._zs_pfn[slots].tolist())
        self._pool_pages -= int(self._zs_pages[slots].sum())
        self._zs_free_slots.extend(slots.tolist())

    def _ensure_ids(self, upto: int) -> None:
        """Grow the membership column to cover object ids below ``upto``."""
        arr = self._obj_zspage
        if upto <= arr.size:
            return
        grown = np.full(max(upto, 2 * arr.size), -1, dtype=np.int32)
        grown[: arr.size] = arr
        self._obj_zspage = grown

    # -- scalar operations ---------------------------------------------------

    def store(self, size: int) -> Handle:
        self._check_size(size)
        cls = size_class(size)
        partial = self._partial.setdefault(cls, [])
        if partial:
            slot = partial[-1]
        else:
            slot = int(self._open_zspages([cls], [1])[0])
            partial.append(slot)
        handle = self._issue_handle(size)
        self._ensure_ids(handle.object_id + 1)
        self._obj_zspage[handle.object_id] = slot
        count = int(self._zs_count[slot]) + 1
        self._zs_count[slot] = count
        if count >= self._zs_capacity[slot]:
            # The filling zspage is always the list tail.
            partial.pop()
        return handle

    def free(self, handle: Handle) -> None:
        self._retire_handle(handle)
        object_id = handle.object_id
        slot = (
            int(self._obj_zspage[object_id])
            if 0 <= object_id < self._obj_zspage.size
            else -1
        )
        if slot < 0:
            raise KeyError(object_id)
        self._obj_zspage[object_id] = -1
        count = int(self._zs_count[slot])
        was_full = count >= self._zs_capacity[slot]
        count -= 1
        self._zs_count[slot] = count
        cls = int(self._zs_cls[slot])
        if count == 0:
            if not was_full:
                self._partial[cls].remove(slot)
            self._release_zspages([slot])
        elif was_full:
            self._partial.setdefault(cls, []).append(slot)

    # -- bulk operations -----------------------------------------------------

    def store_ids(self, sizes) -> int:
        """Vectorized consecutive-id stores; see ``PoolAllocator.store_ids``.

        Pool state is identical to sequential :meth:`store` calls: within
        each size class objects pack into zspages in input order, and
        classes create their partial lists in first-occurrence order.
        Work is per size class, not per zspage: each class's partial
        tail(s) fill first, then the fresh zspages every class needs
        (``ceil(rest / capacity)`` each) open in one batch -- one
        ``alloc_many`` per class, one fancy-indexed write per column and
        one ``np.repeat`` for the membership.  Fresh zspages for
        different classes are allocated grouped rather than interleaved,
        so the buddy's pfn assignment differs from the sequential loop's;
        pfns are not observable through any handle or statistic, and the
        arena-exhaustion error path -- unreachable at simulated scales --
        is the one place the mid-batch state could diverge.
        """
        arr = np.asarray(sizes, dtype=np.int64)
        n = arr.size
        first = self._next_id
        if n == 0:
            return first
        if (arr < 1).any() or (arr > self.max_object_size).any():
            # Invalid sizes raise mid-batch with the preceding stores
            # committed, exactly as sequential calls would.
            return super().store_ids(arr)
        classes = size_classes(arr)
        self._next_id = first + n
        self.stored_bytes += int(arr.sum())
        self.stored_objects += n
        self._ensure_ids(first + n)
        # Zspage slot of each new object, by input position.
        member = np.empty(n, dtype=np.int32)
        partial_map = self._partial
        # Classes needing fresh zspages: class, zspages, objects, positions.
        opening: list[tuple[int, int, int, np.ndarray]] = []
        # Visit classes in first-occurrence order so partial-list creation
        # order matches the sequential loop.
        for cls, positions in PageTable.group_ordered(classes, first_seen=True):
            m = positions.size
            partial = partial_map.get(cls)
            if partial is None:
                partial = partial_map[cls] = []
            pos = 0
            while partial and pos < m:
                slot = partial[-1]
                count = int(self._zs_count[slot])
                capacity = int(self._zs_capacity[slot])
                take = min(m - pos, capacity - count)
                member[positions[pos : pos + take]] = slot
                self._zs_count[slot] = count + take
                pos += take
                if count + take >= capacity:
                    partial.pop()
            if pos < m:
                capacity = _GEOMETRY[cls // CLASS_DELTA][1]
                rest = m - pos
                opening.append((cls, -(-rest // capacity), rest, positions[pos:]))
        if opening:
            classes_open, ks, rests, rest_positions = zip(*opening)
            slots = self._open_zspages(list(classes_open), list(ks))
            # Every fresh zspage fills to capacity except each class's
            # last, which takes the remainder.
            fill = self._zs_capacity[slots].astype(np.int64)
            last = np.cumsum(ks) - 1
            fill[last] = np.array(rests) - (np.array(ks) - 1) * fill[last]
            self._zs_count[slots] = fill
            member[np.concatenate(rest_positions)] = np.repeat(slots, fill)
            for cls, slot, capacity, left in zip(
                classes_open,
                slots[last].tolist(),
                self._zs_capacity[slots[last]].tolist(),
                fill[last].tolist(),
            ):
                if left < capacity:
                    partial_map[cls].append(slot)
        self._obj_zspage[first : first + n] = member
        return first

    def free_ids(self, object_ids, sizes) -> None:
        """Vectorized frees; see ``PoolAllocator.free_ids``.

        Partial-list reconstruction is exact: a previously-full zspage
        joins its class's partial list at its *first* free in the batch
        (first-occurrence order), an emptied zspage leaves the list and
        returns its pages, and surviving zspages keep their relative
        order -- so the pool's future packing trajectory matches the
        sequential calls.  One ``np.unique`` over the freed objects'
        slots updates every count at once; Python lists are touched only
        for partial-list edits and released slots.  Emptied zspages are
        released in first-occurrence order (the sequential loop releases
        each at its *last* free; buddy ordering is unobservable, as with
        pfns above).
        """
        ids = np.asarray(object_ids, dtype=np.int64)
        n = ids.size
        if n == 0:
            return
        arr = np.asarray(sizes, dtype=np.int64)
        obj_zspage = self._obj_zspage
        slots = None
        if ids.min() >= 0 and ids.max() < obj_zspage.size:
            slots = obj_zspage[ids]
        if slots is None or slots.min() < 0 or np.unique(ids).size != n:
            # Unknown or repeated ids: take the sequential path so the
            # mid-batch failure point (and committed prefix) match
            # per-call semantics exactly.
            super().free_ids(ids, arr)
            return
        self.stored_bytes -= int(arr.sum())
        self.stored_objects -= n
        obj_zspage[ids] = -1
        touched, first_at, freed = np.unique(
            slots, return_index=True, return_counts=True
        )
        seen = np.argsort(first_at)
        touched = touched[seen]
        before = self._zs_count[touched].astype(np.int64)
        after = before - freed[seen]
        self._zs_count[touched] = after
        was_full = before >= self._zs_capacity[touched]
        emptied = after == 0
        partial_map = self._partial
        leave = emptied & ~was_full
        if leave.any():
            for slot, cls in zip(
                touched[leave].tolist(), self._zs_cls[touched[leave]].tolist()
            ):
                partial_map[cls].remove(slot)
        rejoin = was_full & ~emptied
        if rejoin.any():
            for slot, cls in zip(
                touched[rejoin].tolist(), self._zs_cls[touched[rejoin]].tolist()
            ):
                partial_map.setdefault(cls, []).append(slot)
        if emptied.any():
            self._release_zspages(touched[emptied])

    def store_many(self, sizes: list[int]) -> list[Handle]:
        # Handle-based wrapper over the vectorized core; ids are minted
        # in input order, so handles are (name, first + k, size).
        arr = np.asarray(sizes, dtype=np.int64)
        n = arr.size
        if n == 0:
            return []
        if (arr < 1).any() or (arr > self.max_object_size).any():
            return [self.store(size) for size in sizes]
        first = self.store_ids(arr)
        return list(map(Handle, repeat(self.name, n), range(first, first + n), sizes))

    def free_many(self, handles: list[Handle]) -> None:
        name = self.name
        if any(handle.allocator != name for handle in handles):
            # Foreign handles raise mid-batch with the preceding frees
            # committed, exactly as sequential calls would.
            for handle in handles:
                self.free(handle)
            return
        self.free_ids(
            np.fromiter((h.object_id for h in handles), dtype=np.int64, count=len(handles)),
            np.fromiter((h.size for h in handles), dtype=np.int64, count=len(handles)),
        )

    @property
    def pool_pages(self) -> int:
        return self._pool_pages

    def compact(self) -> tuple[int, int]:
        """Defragment: merge sparsely filled zspages (kernel zs_compact).

        Within each size class, objects from the least-occupied partial
        zspages migrate into the fullest ones; emptied zspages return
        their pages to the buddy allocator.

        Returns:
            ``(pages_reclaimed, objects_moved)``.
        """
        # Rebuild per-zspage member lists from the membership column
        # (compact is rare -- a maintenance pass, not a hot path).
        live = np.flatnonzero(self._obj_zspage >= 0)
        members: dict[int, list[int]] = {}
        for slot, positions in PageTable.group_ordered(self._obj_zspage[live]):
            members[slot] = live[positions].tolist()
        zs_count = self._zs_count
        zs_capacity = self._zs_capacity
        pages_reclaimed = 0
        objects_moved = 0
        for cls, partial in list(self._partial.items()):
            if len(partial) < 2:
                continue
            # Fullest first: they are the migration destinations.
            partial.sort(key=lambda s: zs_count[s], reverse=True)
            dst_idx = 0
            src_idx = len(partial) - 1
            while dst_idx < src_idx:
                dst, src = partial[dst_idx], partial[src_idx]
                if zs_count[dst] >= zs_capacity[dst]:
                    dst_idx += 1
                    continue
                if zs_count[src] == 0:
                    src_idx -= 1
                    continue
                object_id = members[src].pop()
                members.setdefault(dst, []).append(object_id)
                self._obj_zspage[object_id] = dst
                zs_count[src] -= 1
                zs_count[dst] += 1
                objects_moved += 1
                if zs_count[src] == 0:
                    pages_reclaimed += int(self._zs_pages[src])
                    self._release_zspages([src])
                    src_idx -= 1
            # Rebuild the partial list: drop emptied/full zspages.
            self._partial[cls] = [
                s for s in partial if 0 < zs_count[s] < zs_capacity[s]
            ]
        return pages_reclaimed, objects_moved

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # Only the slot rows in use and the ids issued so far: growth
        # slack is rebuilt on demand after restore.
        state = self.__dict__.copy()
        for name in _SLOT_COLUMNS:
            state[name] = state[name][: self._n_slots]
        state["_obj_zspage"] = self._obj_zspage[: self._next_id]
        return state

    def __setstate__(self, state) -> None:
        if "_zspage_of" in state:
            state = self._columns_from_pre_soa(state)
        elif isinstance(state["_zs_count"], list):
            # Slot-list pickle: the same columns as Python lists.
            state = dict(state, _n_slots=len(state["_zs_count"]))
        self.__dict__.update(state)
        for name, dtype in self._slot_dtypes().items():
            setattr(self, name, np.array(state[name], dtype=dtype))

    @staticmethod
    def _columns_from_pre_soa(state) -> dict:
        """Slot-list state from a pre-SoA pickle.

        That layout kept ``_Zspage`` objects with member sets and
        dict-backed membership (object id -> zspage, object id -> class).
        """
        columns = {name: [] for name in _SLOT_COLUMNS}
        class_of = state["_class_of"]
        slot_of: dict[int, int] = {}
        obj_zspage = np.full(max(state["_next_id"], 1024), -1, dtype=np.int32)
        for object_id, zspage in state["_zspage_of"].items():
            slot = slot_of.get(id(zspage))
            if slot is None:
                slot = slot_of[id(zspage)] = len(slot_of)
                columns["_zs_pfn"].append(zspage.pfn)
                columns["_zs_pages"].append(zspage.pages)
                columns["_zs_capacity"].append(zspage.capacity)
                columns["_zs_count"].append(len(zspage.objects))
                columns["_zs_cls"].append(class_of[object_id])
            obj_zspage[object_id] = slot
        return {
            "stored_bytes": state["stored_bytes"],
            "stored_objects": state["stored_objects"],
            "_next_id": state["_next_id"],
            "_buddy": state["_buddy"],
            "_pool_pages": state["_pool_pages"],
            "_partial": {
                cls: [slot_of[id(z)] for z in zspages]
                for cls, zspages in state["_partial"].items()
            },
            **columns,
            "_n_slots": len(slot_of),
            "_zs_free_slots": [],
            "_obj_zspage": obj_zspage,
        }
