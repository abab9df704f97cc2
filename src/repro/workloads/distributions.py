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
samplers fold it into tables they already index (the hot-rank rotation)
rather than mapping every draw afterwards.

A profile window needs only how many accesses each page got, so the
workloads call ``sample_counts(size, rng, lut, minlength)``: the
bincount of ``sample``, which :class:`ZipfianGenerator` and
:class:`HotWarmColdGenerator` draw directly with ``rng.multinomial``.
"""

from __future__ import annotations

import numpy as np

from repro.transient import TransientCaches


class Distribution:
    """A popularity distribution over ``n`` items.

    ``sample`` draws item ids (``lut[id]`` with a table); ``sample_counts``
    draws how many of those ids land on each entry.  The default is the
    bincount of :meth:`sample`; samplers that can draw the counts
    directly (one ``rng.multinomial``) override it, which keeps the
    counts equal in distribution but not in stream.
    """

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def sample_counts(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
        minlength: int = 0,
    ) -> np.ndarray:
        """Per-entry counts of ``size`` draws, at least ``minlength`` long."""
        return np.bincount(self.sample(size, rng, lut=lut), minlength=minlength)


class ZipfianGenerator(TransientCaches, Distribution):
    """Rank-based Zipfian sampler (YCSB's zipfian constant 0.99).

    ``sample`` inverts the CDF exactly the way ``rng.choice(n, p=...)``
    does -- one uniform draw per sample, ``searchsorted(..., 'right')``
    -- so its stream is bit-identical to ``rng.choice``; the CDF is
    normalised once at construction.  ``sample(..., lut=table)`` returns
    ``table[rank]``.

    ``sample_counts`` draws one ``rng.multinomial`` over the entries the
    ranks map to: with a table, each entry's probability is the summed
    probability of the ranks mapping to it (computed once per distinct
    table object and ``shift``).  Tables are treated as read-only and
    their entries must be non-negative.

    ``shift`` rotates the ranks over the table: rank ``r`` maps to
    ``lut[(r + shift) % n]`` (to ``(r + shift) % n`` without a table).
    A rotation only permutes ranks among the same entries, so each
    rank's entry index is found once per table object and a new shift
    costs one weighted ``bincount`` over the rotated index.

    Args:
        n: Item-space size.
        theta: Skew; 0 = uniform, YCSB default 0.99.
    """

    _TRANSIENT = ("_pmf", "_pmf_entries", "_pmf_lut", "_pmf_shift", "_ranks")

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
        self._clear_transient()

    def _check_lut(self, lut: np.ndarray) -> None:
        if lut.shape[0] < self.n:
            raise ValueError(f"lut has {lut.shape[0]} entries, need {self.n}")

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
        shift: int = 0,
    ) -> np.ndarray:
        """Draw ``size`` item ids (``lut[id]`` when a table is given).

        Item 0 is the most popular rank (before the ``shift``).
        """
        ranks = self._cdf.searchsorted(rng.random(size), side="right")
        if shift:
            ranks = (ranks + shift) % self.n
        if lut is None:
            return ranks
        self._check_lut(lut)
        return lut.take(ranks)

    def _rank_entries(
        self, lut: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct entries of ``lut[:n]`` (ascending) and each
        rank's index into them, found once per table object."""
        if self._ranks is None or self._ranks[0] is not lut:
            if lut is None:
                entries = index = np.arange(self.n)
            else:
                self._check_lut(lut)
                entries, index = np.unique(lut[: self.n], return_inverse=True)
            self._ranks = (lut, entries, index)
        return self._ranks[1], self._ranks[2]

    def _entry_pmf(
        self, lut: np.ndarray | None, shift: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entries the ranks map to (ascending) and their probabilities.

        Each entry's mass gets the same additions, in the same rank
        order, as a weighted ``bincount`` of the rotated table would
        give it.
        """
        if self._pmf is None or self._pmf_lut is not lut or self._pmf_shift != shift:
            entries, index = self._rank_entries(lut)
            if shift:
                index = np.concatenate((index[shift:], index[:shift]))
            mass = np.bincount(
                index, weights=self._probabilities, minlength=entries.size
            )
            if not mass.all():  # ranks whose probability underflowed
                entries, mass = entries[mass > 0], mass[mass > 0]
            self._pmf_entries, self._pmf = entries, mass / mass.sum()
            self._pmf_lut, self._pmf_shift = lut, shift
        return self._pmf_entries, self._pmf

    def sample_counts(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
        minlength: int = 0,
        shift: int = 0,
    ) -> np.ndarray:
        """Counts of ``size`` draws per entry: one ``rng.multinomial``."""
        entries, pmf = self._entry_pmf(lut, shift)
        counts = np.zeros(max(minlength, int(entries[-1]) + 1), dtype=np.int64)
        counts[entries] = rng.multinomial(size, pmf)
        return counts


class GaussianGenerator(Distribution):
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


class HotspotGenerator(Distribution):
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


class UniformGenerator(Distribution):
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


class HotWarmColdGenerator(Distribution):
    """Three-population popularity: hot (Zipfian), warm, churning cold.

    Models the population structure data-center operators report (paper
    §3.1): ~10-20 % hot items taking almost all accesses, 50-70 % warm
    items each touched around once per window, and a cold remainder whose
    sparse accesses cluster via :class:`ChurningColdSet`.  The hot set
    identity can drift to reproduce the shifting pattern of the paper's
    Figure 9d.

    The drift never touches the draws: each window's rotation is the
    Zipfian sampler's ``shift`` over the caller's ``lut`` (if any), so
    hot draws come out already rotated and mapped.  :meth:`sample_counts`
    splits the draws into the three populations with one multinomial,
    draws the hot counts with one multinomial over the pages the rotated
    ranks touch, and bincounts the warm and cold sliver from ids.

    Args:
        n: Item-space size.
        hot_fraction / warm_fraction: Item-count split; the rest is cold.
        hot_mass / warm_mass: Access-mass split; the rest goes cold.
        hot_theta: Zipfian skew within the hot set.
        cold_active_fraction / cold_advance_fraction: Cold churn params.
        hot_drift_fraction: Fraction of the hot range the hot-set identity
            rotates per window (0 = stationary).
    """

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

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
    ) -> np.ndarray:
        component = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        hot = component < self.hot_mass
        # The non-hot remainder is a sliver (a few percent of the draws);
        # splitting it by integer index keeps the warm/cold work
        # proportional to that sliver instead of re-scanning every draw.
        not_hot = np.flatnonzero(~hot)
        warm_split = component[not_hot] < self.hot_mass + self.warm_mass
        warm_idx = not_hot[warm_split]
        cold_idx = not_hot[~warm_split]
        n_hot = size - not_hot.size
        if n_hot:
            out[hot] = self._hot.sample(
                n_hot, rng, lut=lut, shift=self._hot_offset
            )
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

    def sample_counts(
        self,
        size: int,
        rng: np.random.Generator,
        lut: np.ndarray | None = None,
        minlength: int = 0,
    ) -> np.ndarray:
        """Counts of ``size`` draws per item (per ``lut`` entry).

        Equal in distribution to ``bincount(sample(...))``: a draw is hot,
        warm or cold with the population masses, a hot draw is a Zipfian
        rank, and warm and cold draws are the same uniform ids
        :meth:`sample` maps.
        """
        masses = np.array([self.hot_mass, self.warm_mass, 0.0])
        masses[2] = max(0.0, 1.0 - masses[0] - masses[1])
        n_hot, n_warm, n_cold = rng.multinomial(size, masses).tolist()
        warm = self.hot_items + rng.integers(0, self.warm_items, size=n_warm)
        cold = self.hot_items + self.warm_items + self._cold.map(
            rng.integers(0, self.cold_items, size=n_cold)
        )
        items = np.concatenate((warm, cold))
        rest = np.bincount(
            items if lut is None else lut.take(items), minlength=minlength
        )
        counts = self._hot.sample_counts(
            n_hot, rng, lut=lut, minlength=rest.size, shift=self._hot_offset
        )
        counts[: rest.size] += rest
        return counts

    def advance(self) -> None:
        """Per-window state update: cold churn rotates, hot set drifts."""
        self._cold.advance()
        self._hot_offset = (self._hot_offset + self._hot_step) % self.hot_items

    def reset(self) -> None:
        """Rewind churn and drift to their window-0 positions."""
        self._cold.reset()
        self._hot_offset = 0
