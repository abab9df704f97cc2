"""XSBench-style Monte Carlo cross-section lookup kernel (paper Table 2).

XSBench's memory behaviour: a small *unionized energy grid* index that
every lookup binary-searches (hot), and a huge nuclide cross-section table
whose rows are consulted with a strongly skewed frequency -- common
moderator/fuel nuclides at reaction-relevant energies dominate while most
of the XL table's rows are rarely touched.  The data side is therefore a
hot/warm/cold mixture rather than pure uniform noise, which is what leaves
the tiering policies something to demote on a 119 GB footprint.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Workload
from repro.workloads.distributions import HotWarmColdGenerator


class XSBenchWorkload(Workload):
    """Hot index + skewed cross-section table lookups.

    Args:
        num_pages: Total pages (index + data).
        ops_per_window: Lookups per window (each produces several
            accesses).
        index_fraction: Fraction of pages holding the unionized grid.
        index_accesses: Index touches per lookup (binary-search depth).
        data_accesses: Data-table reads per lookup (nuclides consulted).
        seed: RNG seed.
    """

    name = "xsbench"
    write_fraction = 0.0

    def __init__(
        self,
        num_pages: int = 32768,
        ops_per_window: int = 25_000,
        index_fraction: float = 0.02,
        index_accesses: int = 2,
        data_accesses: int = 5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_pages, ops_per_window, seed)
        if not 0.0 < index_fraction < 1.0:
            raise ValueError("index_fraction must be in (0, 1)")
        self.index_pages = max(1, int(round(index_fraction * num_pages)))
        self.data_pages = num_pages - self.index_pages
        self.index_accesses = index_accesses
        self.data_accesses = data_accesses
        self._data_popularity = HotWarmColdGenerator(
            self.data_pages,
            hot_fraction=0.15,
            warm_fraction=0.35,
            hot_mass=0.90,
            warm_mass=0.08,
            hot_theta=0.8,
            cold_active_fraction=0.06,
            cold_advance_fraction=0.03,
        )

    def _generate_counts(self, rng: np.random.Generator) -> np.ndarray:
        lookups = self.ops_per_window
        index = self.index_pages
        counts = np.empty(self.num_pages, dtype=np.int64)
        counts[:index] = rng.multinomial(
            lookups * self.index_accesses, np.full(index, 1.0 / index)
        )
        counts[index:] = self._data_popularity.sample_counts(
            lookups * self.data_accesses, rng, minlength=self.data_pages
        )
        self._data_popularity.advance()
        return counts
