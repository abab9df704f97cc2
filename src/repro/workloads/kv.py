"""In-memory key-value store workloads: Memcached and Redis (paper §8.1).

A :class:`KVWorkload` models a cache/store populated with fixed-size
objects, driven by a request generator:

* **layout**: keys are stored in insertion order, ``objects_per_page``
  objects to a 4 KB page (1 KB values -> 4 per page, like the paper's
  Memcached setup); layout *blocks* of pages are then shuffled so hot keys
  are spread realistically across the address space while sub-block
  locality (slab allocation) is preserved;
* **popularity**: a pluggable distribution over keys (Zipfian for YCSB,
  Gaussian for memtier);
* **drift**: each window the popularity ranking rotates by
  ``drift_per_window`` of the keyspace, reproducing the shifting access
  pattern the paper's Figure 9d shows for Memcached/YCSB.
"""

from __future__ import annotations

import numpy as np

from repro.core.seeding import derive_rng
from repro.workloads.base import Workload
from repro.workloads.distributions import (
    GaussianGenerator,
    HotWarmColdGenerator,
    TransientCaches,
    ZipfianGenerator,
)


class KVWorkload(TransientCaches, Workload):
    """Key-value store under a request generator.

    Args:
        name: Display name, e.g. ``"memcached-ycsb"``.
        num_pages: Pages holding the dataset.
        ops_per_window: Requests per profile window.
        distribution: Popularity sampler (has ``sample(size, rng, lut)``).
        objects_per_page: Stored objects per 4 KB page (4 for 1 KB values).
        drift_per_window: Fraction of the keyspace the popularity ranking
            rotates by per window (0 = stationary).
        layout_block_pages: Granularity of the layout shuffle, pages.
        write_fraction: Fraction of requests that are writes.
        seed: RNG seed.
    """

    _TRANSIENT = ("_key_page", "_key_page_offset")
    _LEGACY = ("_objects_shift",)

    def __init__(
        self,
        name: str,
        num_pages: int,
        ops_per_window: int = 100_000,
        distribution=None,
        objects_per_page: int = 4,
        drift_per_window: float = 0.0,
        layout_block_pages: int = 256,
        write_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__(num_pages, ops_per_window, seed)
        if objects_per_page < 1:
            raise ValueError("objects_per_page must be >= 1")
        if not 0.0 <= drift_per_window < 1.0:
            raise ValueError("drift_per_window must be in [0, 1)")
        if layout_block_pages < 1 or num_pages % layout_block_pages:
            raise ValueError(
                "layout_block_pages must divide num_pages"
            )
        self.name = name
        self.write_fraction = write_fraction
        self.objects_per_page = objects_per_page
        self.num_keys = num_pages * objects_per_page
        self.distribution = distribution or ZipfianGenerator(self.num_keys)
        self.drift_per_window = drift_per_window
        self._drift_offset = 0
        # Block-shuffled layout: rank -> key -> page.  The layout draws
        # from its own SeedSequence substream so it can never collide
        # with another workload's access stream (as additive offsets
        # like ``seed + 0x5EED`` could).
        layout_rng = derive_rng(seed, 0x5EED)
        num_blocks = num_pages // layout_block_pages
        block_perm = layout_rng.permutation(num_blocks)
        page_perm = (
            block_perm[:, None] * layout_block_pages
            + np.arange(layout_block_pages)[None, :]
        ).reshape(-1)
        self._page_of_block = page_perm
        self._clear_transient()

    def _key_pages(self) -> np.ndarray:
        """Item -> page table for the current drift offset.

        Item ``i`` is key ``(i + drift) % num_keys`` (drift rotates the
        rank -> key mapping so the hot set moves over time), stored on
        page ``_page_of_block[key // objects_per_page]``.  The sampler
        indexes this table instead of the workload mapping every draw;
        it is rebuilt only when the drift offset moves.
        """
        offset = self._drift_offset
        if self._key_page_offset != offset:
            pages = self._page_of_block.repeat(self.objects_per_page)
            self._key_page = np.concatenate((pages[offset:], pages[:offset]))
            self._key_page_offset = offset
        return self._key_page

    def _generate(self, rng: np.random.Generator) -> np.ndarray:
        pages = self.distribution.sample(
            self.ops_per_window, rng, lut=self._key_pages()
        )
        self._drift_offset = int(
            (self._drift_offset + self.drift_per_window * self.num_keys)
            % self.num_keys
        )
        advance = getattr(self.distribution, "advance", None)
        if advance is not None:
            advance()
        return pages

    def reset(self) -> None:
        """Rewind drift and distribution churn along with the RNG.

        Without this, :meth:`~repro.workloads.base.Workload.reset` only
        rewound the RNG: the drift offset and the distribution's
        churn/drift state leaked across resets, so a reset replay
        diverged from the original run.
        """
        super().reset()
        self._drift_offset = 0
        dist_reset = getattr(self.distribution, "reset", None)
        if dist_reset is not None:
            dist_reset()

    @classmethod
    def memcached_ycsb(
        cls, num_pages: int = 16384, ops_per_window: int = 500_000, seed: int = 0
    ) -> "KVWorkload":
        """Memcached + YCSB workloadc: Zipfian reads, shifting hotspot.

        Hot keys are Zipfian (YCSB's constant 0.99) and drift per window
        (the shifting pattern of the paper's Figure 9d); warm keys see
        about one access per page per window; cold keys churn through a
        rotating active set (see
        :class:`~repro.workloads.distributions.HotWarmColdGenerator`).
        """
        return cls(
            name="memcached-ycsb",
            num_pages=num_pages,
            ops_per_window=ops_per_window,
            distribution=HotWarmColdGenerator(
                num_pages * 4,
                hot_fraction=0.10,
                warm_fraction=0.30,
                hot_mass=0.988,
                warm_mass=0.005,
                hot_theta=0.99,
                cold_active_fraction=0.05,
                cold_advance_fraction=0.02,
                hot_drift_fraction=0.08,
            ),
            objects_per_page=4,
            write_fraction=0.0,
            seed=seed,
        )

    @classmethod
    def memcached_memtier(
        cls,
        num_pages: int = 16384,
        ops_per_window: int = 500_000,
        value_kb: int = 1,
        seed: int = 0,
    ) -> "KVWorkload":
        """Memcached + memtier: Gaussian key pattern, 1 KB or 4 KB values."""
        if value_kb not in (1, 4):
            raise ValueError("the paper uses 1 KB and 4 KB memtier values")
        objects_per_page = 4 // value_kb
        return cls(
            name=f"memcached-memtier-{value_kb}k",
            num_pages=num_pages,
            ops_per_window=ops_per_window,
            # A tight bell: the centre is hot, +-2-3 sigma is warm, and the
            # far tails (most of the keyspace) are cold.
            distribution=GaussianGenerator(
                num_pages * objects_per_page, std_fraction=0.06
            ),
            objects_per_page=objects_per_page,
            drift_per_window=0.0,
            write_fraction=0.1,
            seed=seed,
        )

    @classmethod
    def redis_ycsb(
        cls, num_pages: int = 24576, ops_per_window: int = 500_000, seed: int = 0
    ) -> "KVWorkload":
        """Redis + YCSB: Zipfian hot set with milder drift and churn over a
        larger dataset (a store, not a cache, so colder overall)."""
        return cls(
            name="redis-ycsb",
            num_pages=num_pages,
            ops_per_window=ops_per_window,
            distribution=HotWarmColdGenerator(
                num_pages * 4,
                hot_fraction=0.08,
                warm_fraction=0.25,
                hot_mass=0.988,
                warm_mass=0.007,
                hot_theta=0.99,
                cold_active_fraction=0.04,
                cold_advance_fraction=0.01,
                hot_drift_fraction=0.02,
            ),
            objects_per_page=4,
            write_fraction=0.05,
            seed=seed,
        )
