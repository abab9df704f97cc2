"""Live-serving workload generators: churn and flash crowds.

Batch workloads model one tenant's steady-state shape.  A long-running
serving node (:mod:`repro.serve`) instead sees *population* dynamics:

* :class:`TenantChurnWorkload` -- the address space is sliced into
  fixed-size tenant slots; tenants arrive with a fresh hot set, serve
  traffic proportional to a per-tenant weight, and depart, leaving their
  slot cold until a newcomer reuses it.  This reproduces the fleet-level
  churn that makes always-on tiering (TPP, TMO) worthwhile: yesterday's
  hot slot is today's compression candidate.
* :class:`FlashCrowdWorkload` -- wraps any base generator (typically a
  :class:`~repro.workloads.diurnal.DiurnalWorkload`) and occasionally
  redirects a large share of accesses onto a small, randomly placed page
  band for a few windows, the "everyone loads the same article" spike
  that stresses promotion latency and the migration filter's damping.

Both draw every random decision from the base-class RNG stream (or from
named :func:`~repro.core.seeding.child_seed` substreams for construction
state), so ``reset()`` replays the exact same arrival/spike schedule --
the determinism the serve-mode equivalence tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.core.seeding import derive_rng
from repro.workloads.base import Workload
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.kv import KVWorkload


class TenantChurnWorkload(Workload):
    """Multi-tenant slab with tenant arrival/departure churn.

    Args:
        num_pages: Total pages; must divide evenly into ``tenants`` slots.
        ops_per_window: Accesses per profile window (split across active
            tenants by weight).
        tenants: Number of tenant slots.
        active_fraction: Fraction of slots occupied at start (and the
            occupancy the arrival/departure process hovers around).
        churn_per_window: Expected fraction of *slots* that turn over
            (one departure plus one arrival) each window.
        hot_fraction: Fraction of a tenant's slot that is hot.
        hot_mass: Share of a tenant's accesses landing in its hot band.
        write_fraction: Store fraction.
        seed: Base RNG seed (arrivals, departures, hot-band placement,
            and access sampling all derive from it).
        name: Display name.
    """

    def __init__(
        self,
        num_pages: int = 8192,
        ops_per_window: int = 200_000,
        tenants: int = 8,
        active_fraction: float = 0.75,
        churn_per_window: float = 0.125,
        hot_fraction: float = 0.1,
        hot_mass: float = 0.9,
        write_fraction: float = 0.08,
        seed: int = 0,
        name: str = "tenant-churn",
    ) -> None:
        if tenants < 2:
            raise ValueError("need at least two tenant slots")
        if num_pages % tenants:
            raise ValueError(
                f"num_pages ({num_pages}) must divide into {tenants} slots"
            )
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        if not 0.0 <= churn_per_window <= 1.0:
            raise ValueError("churn_per_window must be in [0, 1]")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_mass <= 1.0:
            raise ValueError("hot_mass must be in [0, 1]")
        super().__init__(num_pages, ops_per_window, seed)
        self.name = name
        self.write_fraction = write_fraction
        self.tenants = tenants
        self.slot_pages = num_pages // tenants
        self.active_fraction = active_fraction
        self.churn_per_window = churn_per_window
        self.hot_fraction = hot_fraction
        self.hot_mass = hot_mass
        self.hot_pages = max(1, int(round(self.slot_pages * hot_fraction)))
        self._init_slots()

    def _init_slots(self) -> None:
        """(Re)build the initial tenant population deterministically."""
        # Construction state draws from its own substream so the access
        # stream (self._rng) starts from the same point regardless of
        # how many tenants were seated.
        rng = derive_rng(self.seed, 0x7E9A)
        occupied = max(1, int(round(self.tenants * self.active_fraction)))
        slots = rng.permutation(self.tenants)[:occupied]
        # slot -> (hot band start within slot, weight); None = vacant.
        self._slots: list[tuple[int, float] | None]
        self._slots = [None] * self.tenants
        for slot in slots:
            self._slots[slot] = self._new_tenant(rng)

    def _new_tenant(self, rng: np.random.Generator) -> tuple[int, float]:
        start = int(rng.integers(0, self.slot_pages - self.hot_pages + 1))
        weight = float(rng.uniform(0.5, 2.0))
        return (start, weight)

    @property
    def active_tenants(self) -> int:
        """Occupied slots right now."""
        return sum(1 for s in self._slots if s is not None)

    def _churn(self, rng: np.random.Generator) -> None:
        # Departures and arrivals are independent per-slot coin flips
        # whose rates balance at active_fraction occupancy.
        p = self.churn_per_window
        depart_p = p
        arrive_p = min(
            1.0, p * self.active_fraction / max(1e-9, 1 - self.active_fraction)
        )
        for slot in range(self.tenants):
            if self._slots[slot] is not None:
                if rng.random() < depart_p:
                    self._slots[slot] = None
            elif rng.random() < arrive_p:
                self._slots[slot] = self._new_tenant(rng)

    def _generate(self, rng: np.random.Generator) -> np.ndarray:
        self._churn(rng)
        active = [
            (slot, state)
            for slot, state in enumerate(self._slots)
            if state is not None
        ]
        if not active:  # everyone left this window; seat one tenant
            slot = int(rng.integers(0, self.tenants))
            self._slots[slot] = self._new_tenant(rng)
            active = [(slot, self._slots[slot])]
        weights = np.array([state[1] for _, state in active])
        shares = weights / weights.sum()
        counts = rng.multinomial(self.ops_per_window, shares)
        parts = []
        for (slot, (hot_start, _weight)), count in zip(active, counts):
            if not count:
                continue
            base = slot * self.slot_pages
            hot = rng.random(count) < self.hot_mass
            pages = np.empty(count, dtype=np.int64)
            n_hot = int(hot.sum())
            pages[hot] = base + hot_start + rng.integers(
                0, self.hot_pages, size=n_hot
            )
            pages[~hot] = base + rng.integers(
                0, self.slot_pages, size=count - n_hot
            )
            parts.append(pages)
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def reset(self) -> None:
        super().reset()
        self._init_slots()


class FlashCrowdWorkload(Workload):
    """Overlay flash-crowd spikes on a base workload.

    Each window there is an ``arrival_prob`` chance a crowd forms: for
    the next ``duration_windows`` windows, ``crowd_share`` of the
    accesses are redirected to a contiguous band covering
    ``crowd_fraction`` of the page space, placed uniformly at random.

    Args:
        base: The underlying generator (e.g. a
            :class:`~repro.workloads.diurnal.DiurnalWorkload`).
        crowd_share: Fraction of each window's accesses the active crowd
            absorbs.
        crowd_fraction: Fraction of the page space the crowd band spans.
        arrival_prob: Per-window probability a new crowd forms (ignored
            while one is active).
        duration_windows: Windows a crowd lasts.
        seed: RNG seed for crowd timing/placement and redirection.
        name: Display name.
    """

    def __init__(
        self,
        base: Workload,
        crowd_share: float = 0.6,
        crowd_fraction: float = 0.02,
        arrival_prob: float = 0.15,
        duration_windows: int = 3,
        seed: int = 0,
        name: str = "flash-crowd",
    ) -> None:
        if not 0.0 <= crowd_share <= 1.0:
            raise ValueError("crowd_share must be in [0, 1]")
        if not 0.0 < crowd_fraction <= 1.0:
            raise ValueError("crowd_fraction must be in (0, 1]")
        if not 0.0 <= arrival_prob <= 1.0:
            raise ValueError("arrival_prob must be in [0, 1]")
        if duration_windows < 1:
            raise ValueError("duration_windows must be >= 1")
        super().__init__(base.num_pages, base.ops_per_window, seed)
        self.base = base
        self.name = name
        self.write_fraction = base.write_fraction
        self.crowd_share = crowd_share
        self.crowd_pages = max(1, int(round(base.num_pages * crowd_fraction)))
        self.arrival_prob = arrival_prob
        self.duration_windows = duration_windows
        self._crowd_start: int | None = None
        self._crowd_left = 0

    @property
    def crowd_active(self) -> bool:
        """Whether a flash crowd is in progress."""
        return self._crowd_left > 0

    def _generate_counts(self, rng: np.random.Generator) -> np.ndarray:
        if self._crowd_left == 0 and rng.random() < self.arrival_prob:
            self._crowd_start = int(
                rng.integers(0, self.num_pages - self.crowd_pages + 1)
            )
            self._crowd_left = self.duration_windows
        counts = self.base.next_window()
        if self._crowd_left:
            self._crowd_left -= 1
            # Each access is redirected with probability crowd_share, to
            # a uniform page of the band.
            redirected = rng.binomial(counts, self.crowd_share)
            counts -= redirected
            start, band = self._crowd_start, self.crowd_pages
            counts[start : start + band] += rng.multinomial(
                int(redirected.sum()), np.full(band, 1.0 / band)
            )
        return counts

    def reset(self) -> None:
        super().reset()
        self.base.reset()
        self._crowd_start = None
        self._crowd_left = 0


def diurnal_kv(
    num_pages: int = 4096,
    ops_per_window: int = 120_000,
    windows_per_phase: int = 4,
    seed: int = 0,
) -> DiurnalWorkload:
    """Day/night KV service: YCSB peak alternating with memtier batch.

    The serve examples' default generator: small enough for CI, with
    phase shifts every ``windows_per_phase`` windows so live runs
    exercise re-placement.
    """
    return DiurnalWorkload(
        phases=[
            KVWorkload.memcached_ycsb(
                num_pages=num_pages, ops_per_window=ops_per_window, seed=seed
            ),
            KVWorkload.memcached_memtier(
                num_pages=num_pages, ops_per_window=ops_per_window, seed=seed
            ),
        ],
        windows_per_phase=windows_per_phase,
        name="diurnal-kv",
        seed=seed,
    )


def flash_crowd_kv(
    num_pages: int = 4096,
    ops_per_window: int = 120_000,
    seed: int = 0,
) -> FlashCrowdWorkload:
    """Flash-crowd spikes layered on the diurnal KV service."""
    return FlashCrowdWorkload(
        diurnal_kv(
            num_pages=num_pages, ops_per_window=ops_per_window, seed=seed
        ),
        seed=seed,
    )
