"""zsmalloc pool allocator: size-class based dense packing.

The kernel's zsmalloc groups objects into *size classes* (16-byte spacing)
and backs each class with *zspages* -- groups of up to four physical pages
chosen so objects straddle page boundaries with minimal waste.  It achieves
the best packing density of the three pool managers at the cost of the most
complex management (paper §2), which we reflect in the highest per-operation
overhead.

Like the kernel's ``alloc_zspage``, each zspage takes its 1-4 pages
as separate order-0 frames, so the arena is one page budget
(``arena_pages``) that opens charge and releases refund; no frame
address is modelled, as no packing decision reads one.

Columnar internals: zspages are rows of five numpy slot columns
(pages, capacity, live-object count, class, stack sequence; narrow
dtypes, ``_n_slots`` rows in use) and object membership is one int32
array mapping object id -> zspage slot (-1 when free).  Each class's
partial list -- the kernel's stack of partly filled zspages, filled
from the top -- is the set of slots whose push sequence number is
>= 0, in sequence order; ``_partial`` derives the ``{class: [slots]}``
view.  The bulk paths are a fixed number of numpy passes per call
however many classes and zspages a batch touches: ``store_ids`` fills
every class's stack in one segmented cumulative-capacity pass and
opens all fresh zspages in one batch, ``free_ids`` updates counts with
one ``bincount`` over slots, re-pushes previously full zspages by
sequence number and releases emptied ones in the sequential order.
Object ids grow monotonically; the membership array
doubles on demand (ids are never reused, so a very long-lived pool
grows it linearly with total stores -- 4 bytes per object ever
stored).  Pickles carry only the rows and ids in use, and the stacks
as their slots in push order.
"""

from __future__ import annotations

import numpy as np

from repro.allocators.base import AllocationError, Handle, PoolAllocator
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
    """:func:`size_class` over an integer array of sizes >= 1."""
    indices = np.maximum(
        (sizes + (CLASS_DELTA - 1)) // CLASS_DELTA, MIN_CLASS // CLASS_DELTA
    )
    return indices * CLASS_DELTA


#: ``size_class(s) // CLASS_DELTA`` for every size ``s`` up to a page,
#: then one row past the geometry table for every larger size.
_CLASS_INDEX = np.array(
    [size_class(max(s, 1)) // CLASS_DELTA for s in range(PAGE_SIZE + 1)]
    + [PAGE_SIZE // CLASS_DELTA + 1],
    dtype=np.int16,
)


def _class_indices(sizes: np.ndarray) -> np.ndarray:
    """``size_classes(sizes) // CLASS_DELTA`` for sizes up to a page: the
    geometry-table row (int16), one lookup per size.  Every larger size
    maps to the one row past the table, which :meth:`store_bound`
    drops."""
    return _CLASS_INDEX.take(sizes, mode="clip")


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


#: Per class index (``cls // CLASS_DELTA``): zspage pages and objects.
_GEOM_PAGES = np.array([g[0] for g in _GEOMETRY], dtype=np.int64)
_GEOM_OBJECTS = np.array([g[1] for g in _GEOMETRY], dtype=np.int64)

#: Per-zspage slot columns and their dtypes.  ``_zs_stack`` is the push
#: sequence number of a zspage on its class's partial stack, -1 when
#: off it.
_SLOT_COLUMNS = {
    "_zs_pages": np.int8,
    "_zs_capacity": np.int16,
    "_zs_count": np.int16,
    "_zs_cls": np.int16,
    "_zs_stack": np.int64,
}


class ZsmallocAllocator(PoolAllocator):
    """Dense size-class pool manager."""

    name = "zsmalloc"
    mgmt_overhead_ns = 600.0

    def __init__(self, arena_pages: int = 1 << 20) -> None:
        super().__init__(arena_pages)
        # Zspage slot columns; the first ``_n_slots`` rows are in use
        # (live or on the free-slot stack, recycled LIFO).
        for name, dtype in _SLOT_COLUMNS.items():
            setattr(self, name, np.zeros(64, dtype=dtype))
        self._n_slots = 0
        self._zs_free_slots: list[int] = []
        # Next partial-stack push sequence number.
        self._stack_seq = 0
        # object id -> zspage slot, -1 when free.  Doubles on demand.
        self._obj_zspage = np.full(1024, -1, dtype=np.int32)
        self._pool_pages = 0

    # -- partial stacks ------------------------------------------------------

    @property
    def _partial(self) -> dict[int, list[int]]:
        """Each class's partial zspages, bottom of the stack first.

        Derived from ``_zs_stack``; assigning a dict re-stacks the
        listed slots in list order (and takes every other slot off).
        """
        n = self._n_slots
        on = np.flatnonzero(self._zs_stack[:n] >= 0)
        on = on[np.lexsort((self._zs_stack[on], self._zs_cls[on]))]
        partial: dict[int, list[int]] = {}
        for cls, slot in zip(self._zs_cls[on].tolist(), on.tolist()):
            partial.setdefault(cls, []).append(slot)
        return partial

    @_partial.setter
    def _partial(self, partial: dict[int, list[int]]) -> None:
        self._restack([slot for stack in partial.values() for slot in stack])

    def _restack(self, slots) -> None:
        """Push ``slots`` in order onto emptied partial stacks."""
        self._zs_stack[: self._n_slots] = -1
        self._zs_stack[slots] = self._stack_seq + np.arange(len(slots))
        self._stack_seq += len(slots)

    def _top(self, cls: int) -> int:
        """The slot on top of class ``cls``'s partial stack, -1 if none."""
        n = self._n_slots
        seq = np.where(self._zs_cls[:n] == cls, self._zs_stack[:n], -1)
        return int(seq.argmax()) if n and seq.max() >= 0 else -1

    # -- slot helpers --------------------------------------------------------

    def _open_zspages(self, class_index: np.ndarray) -> np.ndarray:
        """Open one fresh zspage per entry of ``class_index``, in order.

        ``class_index`` holds ``cls // CLASS_DELTA`` per zspage.  Exactly
        the sequential opens: freed slots reused most-recently-freed
        first, then new slots.  Counts start at zero, off the partial
        stacks.

        Returns:
            The slots, in order.

        Raises:
            AllocationError: Changing nothing, if the zspages' frames do
                not fit the arena.
        """
        pages = _GEOM_PAGES[class_index]
        opened = int(pages.sum())
        if self._pool_pages + opened > self.arena_pages:
            raise AllocationError(
                f"out of memory: {opened} frames on {self._pool_pages} of "
                f"{self.arena_pages} arena pages"
            )
        self._pool_pages += opened
        total = len(pages)
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
        self._zs_pages[slots] = pages
        self._zs_capacity[slots] = _GEOM_OBJECTS[class_index]
        self._zs_count[slots] = 0
        self._zs_cls[slots] = class_index * CLASS_DELTA
        self._zs_stack[slots] = -1
        return slots

    def _grow_slots(self, upto: int) -> None:
        size = max(upto, 2 * self._zs_count.size)
        for name in _SLOT_COLUMNS:
            old = getattr(self, name)
            col = np.zeros(size, dtype=old.dtype)
            col[: old.size] = old
            setattr(self, name, col)

    def _release_zspages(self, slots) -> None:
        """Return emptied zspages' frames to the arena, in order."""
        slots = np.asarray(slots, dtype=np.int64)
        self._pool_pages -= int(self._zs_pages[slots].sum())
        self._zs_stack[slots] = -1
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
        slot = self._top(cls)
        if slot < 0:
            slot = int(self._open_zspages(np.array([cls // CLASS_DELTA]))[0])
            self._zs_stack[slot] = self._stack_seq
            self._stack_seq += 1
        handle = self._issue_handle(size)
        self._ensure_ids(handle.object_id + 1)
        self._obj_zspage[handle.object_id] = slot
        count = int(self._zs_count[slot]) + 1
        self._zs_count[slot] = count
        if count >= self._zs_capacity[slot]:
            # The filling zspage is always the stack top.
            self._zs_stack[slot] = -1
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
        if count == 0:
            self._release_zspages([slot])
        elif was_full:
            self._zs_stack[slot] = self._stack_seq
            self._stack_seq += 1

    # -- bulk operations -----------------------------------------------------

    def store_ids(self, sizes) -> int:
        """Vectorized consecutive-id stores; see ``PoolAllocator.store_ids``.

        Pool state is identical to sequential :meth:`store` calls: within
        each size class objects fill the partial stack from the top, in
        input order, and then fresh zspages (``ceil(rest / capacity)``
        per class, each full but the last).  The work is a fixed number
        of numpy passes whatever the number of classes: one stable
        argsort groups the objects by class, one lexsort orders the
        batch classes' stacked zspages top first (skipped when no stack
        holds a zspage), a segmented cumulative free capacity assigns
        each object its zspage, and every fresh zspage opens in one
        batch, in the order the sequential calls would open them.  When
        the arena cannot hold the fresh zspages' frames, the batch takes
        the sequential path, so an exhausted arena raises with exactly
        the sequential prefix committed.
        """
        arr = np.asarray(sizes, dtype=np.int64)
        n = arr.size
        first = self._next_id
        if n == 0:
            return first
        if arr.min() < 1 or arr.max() > self.max_object_size:
            # Invalid sizes raise mid-batch with the preceding stores
            # committed, exactly as sequential calls would.
            return super().store_ids(arr)
        class_index = _class_indices(arr)
        # Objects by class: one stable argsort (a radix sort on int16
        # keys); per batch class (ascending), its class index, objects
        # and first sorted position.
        order = np.argsort(class_index, kind="stable")
        class_count = np.bincount(class_index, minlength=_GEOM_OBJECTS.size)
        group_class = np.flatnonzero(class_count != 0)
        groups = group_class.size
        wanted = class_count[group_class]
        starts = np.cumsum(wanted) - wanted
        # The batch classes' stacked zspages, class by class, top first.
        stack = self._zs_stack[: self._n_slots]
        stacked = np.flatnonzero(stack >= 0)
        class_room = np.zeros(groups, dtype=np.int64)
        if stacked.size:
            stacked_class = self._zs_cls[stacked] // CLASS_DELTA
            in_batch = class_count[stacked_class] > 0
            stacked = stacked[in_batch]
            stacked_group = np.searchsorted(group_class, stacked_class[in_batch])
            top_first = np.lexsort((-stack[stacked], stacked_group))
            stacked = stacked[top_first]
            stacked_group = stacked_group[top_first]
            room = (self._zs_capacity[stacked] - self._zs_count[stacked]).astype(
                np.int64
            )
            # Free room per class, and above each zspage within its class.
            class_room = np.bincount(stacked_group, room, groups).astype(np.int64)
            above = np.cumsum(room) - room
            above -= (np.cumsum(class_room) - class_room)[stacked_group]
            take = np.minimum(np.maximum(wanted[stacked_group] - above, 0), room)
        # Fresh zspages: ``opens`` per class, all full but each class's
        # last, which holds ``rest - (opens - 1) * capacity``.
        rest = np.maximum(wanted - class_room, 0)
        capacity = _GEOM_OBJECTS[group_class]
        opens = -(-rest // capacity)
        total_opens = int(opens.sum())
        if not self.arena_fits(int(opens @ _GEOM_PAGES[group_class])):
            return super().store_ids(arr)
        self._next_id = first + n
        self.stored_bytes += int(arr.sum())
        self.stored_objects += n
        self._ensure_ids(first + n)
        # Zspage slot of each object, in class-sorted order: each class's
        # first ``min(wanted, class_room)`` objects fill its stack.
        member = np.empty(n, dtype=np.int32)
        from_stack = np.arange(n) < np.repeat(
            starts + np.minimum(wanted, class_room), wanted
        )
        if stacked.size:
            member[from_stack] = np.repeat(stacked, take)
            self._zs_count[stacked] += take.astype(np.int16)
            self._zs_stack[stacked[take == room]] = -1
        if total_opens:
            opening = opens > 0
            open_group = np.repeat(np.arange(groups), opens)
            nth = np.arange(total_opens) - np.repeat(np.cumsum(opens) - opens, opens)
            # The sequential calls open each zspage at the store of its
            # first object: its input position sets the opening order.
            opener = order[
                starts[open_group]
                + class_room[open_group]
                + nth * capacity[open_group]
            ]
            by_opener = np.argsort(opener)
            fresh = np.empty(total_opens, dtype=np.int64)
            fresh[by_opener] = self._open_zspages(
                group_class[open_group[by_opener]]
            )
            fill = capacity[open_group]
            last = np.cumsum(opens)[opening] - 1
            fill[last] = rest[opening] - (opens[opening] - 1) * capacity[opening]
            self._zs_count[fresh] = fill
            member[~from_stack] = np.repeat(fresh, fill)
            partial = fresh[last][fill[last] < capacity[opening]]
            self._zs_stack[partial] = self._stack_seq + np.arange(partial.size)
            self._stack_seq += partial.size
        self._obj_zspage[first + order] = member
        return first

    def store_bound(self, sizes) -> int:
        """Class-exact growth bound; see ``PoolAllocator.store_bound``.

        A class's stores fill its partial stack and then fresh zspages,
        each full before the next opens, so ``n_c`` stores open at most
        ``ceil(n_c / objects_per_zspage)`` zspages whatever the stack
        holds.  Oversized objects are left out: their store raises
        before opening anything.
        """
        classes = _GEOM_OBJECTS.size
        counts = np.bincount(
            _class_indices(np.asarray(sizes)), minlength=classes
        )[:classes]
        zspages = (counts + (_GEOM_OBJECTS - 1)) // _GEOM_OBJECTS
        return int(zspages @ _GEOM_PAGES)

    def free_ids(self, object_ids, sizes) -> None:
        """Vectorized frees; see ``PoolAllocator.free_ids``.

        Partial stacks end exactly as after the sequential calls: a
        previously full zspage is pushed at its *first* free in the
        batch (its sequence number is the stack's next one plus that
        position), an emptied zspage leaves its stack and returns its
        pages, and surviving zspages keep their relative order.  One
        ``bincount`` over the freed objects' slots updates every count
        and ``np.minimum.at`` finds first frees; no sort, including
        the exact repeated-id check (:meth:`_unmap`).  Emptied zspages
        are released where the sequential loop releases them, each at
        its *last* free (``np.maximum.at``, one argsort over the emptied
        zspages), so the free-slot stack -- and with it every later
        slot -- matches the sequential calls.
        """
        ids = np.asarray(object_ids, dtype=np.int64)
        n = ids.size
        if n == 0:
            return
        arr = np.asarray(sizes, dtype=np.int64)
        slots = self._unmap(ids)
        if slots is None:
            # Unknown or repeated ids: take the sequential path so the
            # mid-batch failure point (and committed prefix) match
            # per-call semantics exactly.
            super().free_ids(ids, arr)
            return
        self.stored_bytes -= int(arr.sum())
        self.stored_objects -= n
        freed = np.bincount(slots)
        touched = np.flatnonzero(freed != 0)
        before = self._zs_count[touched]
        after = before - freed[touched]
        self._zs_count[touched] = after
        was_full = before >= self._zs_capacity[touched]
        emptied = after == 0
        rejoin = touched[was_full & ~emptied]
        if rejoin.size:
            first_free = np.full(freed.size, n)
            np.minimum.at(first_free, slots, np.arange(n))
            self._zs_stack[rejoin] = self._stack_seq + first_free[rejoin]
            self._stack_seq += n
        gone = touched[emptied]
        if gone.size > 1:
            # Release in the sequential calls' order: each zspage at its
            # last free.
            last_free = np.zeros(freed.size, dtype=np.int64)
            np.maximum.at(last_free, slots, np.arange(n))
            gone = gone[np.argsort(last_free[gone])]
        if gone.size:
            self._release_zspages(gone)

    def _unmap(self, ids: np.ndarray) -> np.ndarray | None:
        """Clear the membership of ``ids`` and return their slots.

        Returns ``None``, changing nothing, unless every id is live and
        occurs once.  Repeats are found without a sort: each id's cell
        is tagged with its position, and a repeated id keeps only one
        of its tags.
        """
        obj_zspage = self._obj_zspage
        if ids.min() < 0 or ids.max() >= obj_zspage.size:
            return None
        slots = obj_zspage[ids]
        if slots.min() < 0:
            return None
        tags = np.arange(-2, -2 - ids.size, -1, dtype=np.int32)
        obj_zspage[ids] = tags
        if (obj_zspage[ids] != tags).any():
            obj_zspage[ids] = slots
            return None
        obj_zspage[ids] = -1
        return slots

    @property
    def pool_pages(self) -> int:
        return self._pool_pages

    def compact(self) -> tuple[int, int]:
        """Defragment: merge sparsely filled zspages (kernel zs_compact).

        Within each size class, objects from the least-occupied partial
        zspages migrate into the fullest ones; emptied zspages return
        their frames to the arena.

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
        partial_map = self._partial
        for cls, partial in partial_map.items():
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
            partial_map[cls] = [
                s for s in partial if 0 < zs_count[s] < zs_capacity[s]
            ]
        self._partial = partial_map
        return pages_reclaimed, objects_moved

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # Only the slot rows in use and the ids issued so far: growth
        # slack is rebuilt on demand after restore.  The partial stacks
        # travel as their slots in push order, not as a column.
        state = self.__dict__.copy()
        for name in _SLOT_COLUMNS:
            state[name] = state[name][: self._n_slots]
        stack = state.pop("_zs_stack")
        del state["_stack_seq"]
        stacked = np.flatnonzero(stack >= 0)
        state["_stacked"] = stacked[np.argsort(stack[stacked])].astype(np.int32)
        state["_obj_zspage"] = self._obj_zspage[: self._next_id]
        return state

    def __setstate__(self, state) -> None:
        state = dict(state)
        stacked = state.pop("_stacked")
        state["_zs_stack"] = np.full(state["_n_slots"], -1)
        state["_stack_seq"] = 0
        self.__dict__.update(state)
        for name, dtype in _SLOT_COLUMNS.items():
            setattr(self, name, np.array(state[name], dtype=dtype))
        self._restack(stacked)
