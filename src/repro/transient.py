"""Pickling for objects that hold derived tables.

Workload samplers and the memory system keep tables derived from their
parameters (sampler lookup tables, per-level compression tables).  The
tables are rebuilt on first use, so checkpoints leave them out.
"""

from __future__ import annotations


class TransientCaches:
    """Pickling for objects whose caches are rebuilt on demand.

    Attributes named in ``_TRANSIENT`` (scratch buffers, derived tables)
    are pickled as ``None`` and reset to ``None`` on load, so checkpoints
    carry parameters and stream state only.
    """

    _TRANSIENT: tuple[str, ...] = ()

    def _clear_transient(self) -> None:
        for name in self._TRANSIENT:
            setattr(self, name, None)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._TRANSIENT:
            state[name] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_transient()
