"""Key-popularity distributions used by the request generators.

* :class:`ZipfianGenerator` -- YCSB's default request distribution
  (zipfian with constant 0.99); item ``i``'s probability is proportional
  to ``1 / (i + 1) ** theta``.
* :class:`GaussianGenerator` -- memtier_benchmark's Gaussian access
  pattern over the key range, optionally with a drifting centre.
* :class:`HotspotGenerator` -- YCSB's hotspot distribution: a hot set
  receives a fixed fraction of accesses uniformly.
* :class:`UniformGenerator` -- uniform accesses (control).

Each generator draws *item ids* in ``[0, n)``; workloads map items to
pages.  ``sample(size, rng, lut=table)`` returns ``table[item]`` instead,
which lets a workload hand its item -> page table to the sampler: the
samplers fold it into tables they already index (the Zipfian bucket
table, the hot-rank rotation) rather than mapping every draw afterwards.
"""

from __future__ import annotations

import numpy as np


class TransientCaches:
    """Pickling for objects whose caches are rebuilt on demand.

    Attributes named in ``_TRANSIENT`` (scratch buffers, derived tables)
    are pickled as ``None`` and reset to ``None`` on load, so checkpoints
    carry parameters and stream state only.  ``_LEGACY`` names attributes
    older checkpoints carried that no longer exist; they are discarded.
    """

    _TRANSIENT: tuple[str, ...] = ()
    _LEGACY: tuple[str, ...] = ()

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
        for name in self._LEGACY:
            self.__dict__.pop(name, None)
        self._clear_transient()


class ZipfianGenerator(TransientCaches):
    """Rank-based Zipfian sampler (YCSB's zipfian constant 0.99).

    Sampling inverts the CDF exactly the way ``rng.choice(n, p=...)``
    does (one uniform draw per sample, ``searchsorted(..., 'right')``
    semantics), so the output stream is bit-identical to the
    ``rng.choice`` implementation this replaces -- but the CDF is
    normalised once at construction and the binary search is replaced
    by a sign-folded bucket table.  Bucket ``b`` of ``[0, 1)`` holds the
    rank every draw in it maps to when no CDF step falls inside the
    bucket (*exact* buckets), and ``~rank`` -- the smallest rank any draw
    in it can map to -- when one does (*straddler* buckets).  One
    ``take`` resolves the exact draws; only the few straddlers walk
    forward along the CDF.

    ``sample(..., lut=table)`` returns ``table[rank]`` instead of the
    rank.  The table is composed into the exact bucket entries once (and
    again only when a different table object is passed), so mapping
    ranks to pages costs no pass over the draws.  Tables are treated as
    read-only and their entries must be non-negative.

    Args:
        n: Item-space size.
        theta: Skew; 0 = uniform, YCSB default 0.99.
    """

    _TRANSIENT = ("_folded", "_straddlers", "_table", "_table_lut",
                  "_scr_u", "_scr_b", "_scr_m")
    _LEGACY = ("_bucket_lo", "_bucket_exact", "_scr_f")

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._probabilities = weights / weights.sum()
        # rng.choice normalises the probabilities the same way before
        # searching; replicating the exact expression keeps the CDF (and
        # therefore every sampled rank) bit-identical.
        cdf = self._probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        # ~16 buckets per rank keeps the straddler fraction (and the walk
        # below) short; capped so huge item spaces stay at a 1 MB table.
        buckets = 1024
        while buckets < 16 * n and buckets < (1 << 17):
            buckets <<= 1
        # rng.random returns multiples of 2**-53, so with a power-of-two
        # bucket count u * buckets is exact and strictly below buckets:
        # the bucket index needs no clamp and never overshoots its draw.
        assert buckets & (buckets - 1) == 0
        self._buckets = buckets
        self._clear_transient()

    def _table_for(self, lut: np.ndarray | None) -> np.ndarray:
        """The sign-folded bucket table, composed with ``lut`` if given."""
        if self._folded is None:
            buckets = self._buckets
            edges = self._cdf.searchsorted(
                np.arange(buckets + 1) / buckets, side="right"
            )
            folded = edges[:-1].copy()
            self._straddlers = np.flatnonzero(edges[1:] != edges[:-1])
            folded[self._straddlers] = ~folded[self._straddlers]
            self._folded = folded
        if lut is None:
            return self._folded
        if lut is not self._table_lut:
            if lut.shape[0] < self.n:
                raise ValueError(f"lut has {lut.shape[0]} entries, need {self.n}")
            # Straddler entries are negative, which 'clip' maps to lut[0];
            # they are restored right after.
            table = lut.take(self._folded, mode="clip")
            table[self._straddlers] = self._folded[self._straddlers]
            self._table, self._table_lut = table, lut
        return self._table

    def _scratch(self, size: int) -> tuple[np.ndarray, ...]:
        if self._scr_u is None or self._scr_u.size < size:
            self._scr_u = np.empty(size)
            self._scr_b = np.empty(size, dtype=np.int64)
            self._scr_m = np.empty(size, dtype=bool)
        return self._scr_u[:size], self._scr_b[:size], self._scr_m[:size]

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``size`` item ids (``lut[id]`` when a table is given).

        Item 0 is the most popular rank.  The returned array is freshly
        allocated; internal scratch buffers are reused across calls.
        """
        table = self._table_for(lut)
        u, b, mask = self._scratch(size)
        rng.random(out=u)
        np.multiply(u, self._buckets, out=b, casting="unsafe")  # exact; trunc
        out = table.take(b)
        np.less(out, 0, out=mask)
        hard = np.flatnonzero(mask)
        if hard.size:
            # Straddlers: walk forward to the first rank with cdf > u.
            cdf = self._cdf
            ranks = ~out[hard]
            uh = u[hard]
            wrong = np.flatnonzero(cdf[ranks] <= uh)
            while wrong.size:
                ranks[wrong] += 1
                wrong = wrong[cdf[ranks[wrong]] <= uh[wrong]]
            out[hard] = ranks if lut is None else lut.take(ranks)
        return out


class GaussianGenerator:
    """Gaussian key popularity (memtier's ``--key-pattern=G:G``).

    Args:
        n: Item-space size.
        center_fraction: Centre of the bell as a fraction of the range.
        std_fraction: Standard deviation as a fraction of the range.
    """

    def __init__(
        self, n: int, center_fraction: float = 0.5, std_fraction: float = 0.12
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= center_fraction <= 1.0:
            raise ValueError("center_fraction must be in [0, 1]")
        if std_fraction <= 0:
            raise ValueError("std_fraction must be > 0")
        self.n = n
        self.center_fraction = center_fraction
        self.std_fraction = std_fraction

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        draws = rng.normal(
            loc=self.center_fraction * self.n,
            scale=self.std_fraction * self.n,
            size=size,
        )
        items = np.clip(np.rint(draws), 0, self.n - 1).astype(np.int64)
        return items if lut is None else lut.take(items)


class HotspotGenerator:
    """Hot-set popularity: ``hot_access_prob`` of accesses hit the hot set.

    Args:
        n: Item-space size.
        hot_fraction: Fraction of items in the hot set (from item 0).
        hot_access_prob: Probability an access targets the hot set.
    """

    def __init__(
        self, n: int, hot_fraction: float = 0.2, hot_access_prob: float = 0.9
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_access_prob <= 1.0:
            raise ValueError("hot_access_prob must be in [0, 1]")
        self.n = n
        self.hot_items = max(1, int(round(hot_fraction * n)))
        self.hot_access_prob = hot_access_prob

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        hot = rng.random(size) < self.hot_access_prob
        out = np.empty(size, dtype=np.int64)
        n_hot = int(hot.sum())
        out[hot] = rng.integers(0, self.hot_items, size=n_hot)
        cold_span = max(1, self.n - self.hot_items)
        out[~hot] = self.hot_items % self.n + rng.integers(
            0, cold_span, size=size - n_hot
        )
        np.clip(out, 0, self.n - 1, out=out)
        return out if lut is None else lut.take(out)


class UniformGenerator:
    """Uniform popularity over the item space."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        items = rng.integers(0, self.n, size=size)
        return items if lut is None else lut.take(items)


class ChurningColdSet:
    """A rotating *active window* over a cold item range.

    Real cold data is not accessed independently at random: touches cluster
    in time (scans, TTL refreshes, backup sweeps), so at any moment only a
    small active subset of the cold range sees traffic while the rest idles
    for many profile windows.  This class maps uniform draws onto a
    contiguous active window that advances each profile window -- the
    device that lets a laptop-scale simulation preserve both paper-scale
    invariants at once: a bounded fault rate (set by ``advance_fraction``)
    and a large idle/demotable population (set by ``active_fraction``).
    See DESIGN.md §6.

    Args:
        n: Cold item-range size.
        active_fraction: Fraction of the range active per window.
        advance_fraction: Fraction of the range the window advances by per
            profile window.
    """

    def __init__(
        self, n: int, active_fraction: float = 0.05, advance_fraction: float = 0.02
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        if not 0.0 <= advance_fraction <= 1.0:
            raise ValueError("advance_fraction must be in [0, 1]")
        self.n = n
        self.active = max(1, int(round(active_fraction * n)))
        self.step = max(0, int(round(advance_fraction * n)))
        self.offset = 0

    def map(self, draws: np.ndarray) -> np.ndarray:
        """Map uniform draws in ``[0, n)`` into the current active window."""
        return (self.offset + draws % self.active) % self.n

    def advance(self) -> None:
        """Rotate the active window by one profile-window step."""
        self.offset = (self.offset + self.step) % self.n

    def reset(self) -> None:
        """Rewind the active window to its starting position."""
        self.offset = 0


class HotWarmColdGenerator(TransientCaches):
    """Three-population popularity: hot (Zipfian), warm, churning cold.

    Models the population structure data-center operators report (paper
    §3.1): ~10-20 % hot items taking almost all accesses, 50-70 % warm
    items each touched around once per window, and a cold remainder whose
    sparse accesses cluster via :class:`ChurningColdSet`.  The hot set
    identity can drift to reproduce the shifting pattern of the paper's
    Figure 9d.

    The drift never touches the draws: each window's rotation (composed
    with the caller's ``lut``, if any) becomes one ``hot_items``-entry
    rank table that the Zipfian sampler folds into its bucket table, so
    hot draws come out already rotated and mapped.

    Args:
        n: Item-space size.
        hot_fraction / warm_fraction: Item-count split; the rest is cold.
        hot_mass / warm_mass: Access-mass split; the rest goes cold.
        hot_theta: Zipfian skew within the hot set.
        cold_active_fraction / cold_advance_fraction: Cold churn params.
        hot_drift_fraction: Fraction of the hot range the hot-set identity
            rotates per window (0 = stationary).
    """

    _TRANSIENT = ("_hot_table", "_hot_table_offset", "_hot_table_lut",
                  "_scr_c", "_scr_hot", "_scr_nh")

    def __init__(
        self,
        n: int,
        hot_fraction: float = 0.10,
        warm_fraction: float = 0.30,
        hot_mass: float = 0.96,
        warm_mass: float = 0.03,
        hot_theta: float = 0.99,
        cold_active_fraction: float = 0.05,
        cold_advance_fraction: float = 0.02,
        hot_drift_fraction: float = 0.0,
    ) -> None:
        if n < 3:
            raise ValueError("n must be >= 3")
        if hot_fraction <= 0 or warm_fraction < 0 or hot_fraction + warm_fraction >= 1:
            raise ValueError("hot/warm fractions must leave a cold remainder")
        if hot_mass <= 0 or warm_mass < 0 or hot_mass + warm_mass > 1:
            raise ValueError("hot/warm masses must be a sub-unit split")
        self.n = n
        self.hot_items = max(1, int(round(hot_fraction * n)))
        self.warm_items = max(1, int(round(warm_fraction * n)))
        self.cold_items = n - self.hot_items - self.warm_items
        if self.cold_items < 1:
            raise ValueError("no cold items left; shrink hot/warm fractions")
        self.hot_mass = hot_mass
        self.warm_mass = warm_mass
        self._hot = ZipfianGenerator(self.hot_items, theta=hot_theta)
        self._cold = ChurningColdSet(
            self.cold_items, cold_active_fraction, cold_advance_fraction
        )
        self._hot_offset = 0
        self._hot_step = max(0, int(round(hot_drift_fraction * self.hot_items)))
        self._clear_transient()

    def _hot_lut(self, lut: np.ndarray | None) -> np.ndarray | None:
        """This window's hot-rank table: rotation composed with ``lut``.

        Rank ``r`` maps to item ``(r + offset) % hot_items`` and then to
        ``lut[item]``.  The table is rebuilt only when the offset or the
        ``lut`` object changes, so the Zipfian sampler (which composes it
        into its bucket table) rebuilds only then too.
        """
        offset = self._hot_offset
        if self._hot_table_offset != offset or self._hot_table_lut is not lut:
            if lut is None:
                head = np.arange(self.hot_items) if offset else None
            else:
                head = lut[: self.hot_items]
            if offset:
                head = np.concatenate((head[offset:], head[:offset]))
            self._hot_table = head
            self._hot_table_offset, self._hot_table_lut = offset, lut
        return self._hot_table

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        if self._scr_c is None or self._scr_c.size < size:
            self._scr_c = np.empty(size)
            self._scr_hot = np.empty(size, dtype=bool)
            self._scr_nh = np.empty(size, dtype=bool)
        component = self._scr_c[:size]
        rng.random(out=component)
        out = np.empty(size, dtype=np.int64)
        hot = self._scr_hot[:size]
        np.less(component, self.hot_mass, out=hot)
        # The non-hot remainder is a sliver (a few percent of the draws);
        # splitting it by integer index keeps the warm/cold work
        # proportional to that sliver instead of re-scanning every draw.
        nh = self._scr_nh[:size]
        np.logical_not(hot, out=nh)
        not_hot = np.flatnonzero(nh)
        warm_split = component[not_hot] < self.hot_mass + self.warm_mass
        warm_idx = not_hot[warm_split]
        cold_idx = not_hot[~warm_split]
        n_hot = size - not_hot.size
        if n_hot:
            out[hot] = self._hot.sample(n_hot, rng, lut=self._hot_lut(lut))
        if warm_idx.size:
            items = self.hot_items + rng.integers(
                0, self.warm_items, size=warm_idx.size
            )
            out[warm_idx] = items if lut is None else lut.take(items)
        if cold_idx.size:
            draws = rng.integers(0, self.cold_items, size=cold_idx.size)
            items = self.hot_items + self.warm_items + self._cold.map(draws)
            out[cold_idx] = items if lut is None else lut.take(items)
        return out

    def advance(self) -> None:
        """Per-window state update: cold churn rotates, hot set drifts."""
        self._cold.advance()
        self._hot_offset = (self._hot_offset + self._hot_step) % self.hot_items

    def reset(self) -> None:
        """Rewind churn and drift to their window-0 positions."""
        self._cold.reset()
        self._hot_offset = 0
