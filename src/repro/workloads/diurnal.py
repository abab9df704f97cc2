"""Diurnal / phase-changing workload wrapper.

Production services see daily load shifts: the hot set at peak differs
from the overnight batch scan.  :class:`DiurnalWorkload` alternates
between two (or more) underlying generators on a fixed period, which
stresses exactly the adaptation machinery TierScape relies on --
per-window profiling, hotness cooling, and the migration filter's
ping-pong damping.
"""

from __future__ import annotations

import numpy as np

from repro.core.seeding import child_seed
from repro.workloads.base import Workload


class DiurnalWorkload(Workload):
    """Cycles through phases of underlying workloads.

    The ``seed`` argument reseeds every phase onto an independent
    ``SeedSequence`` substream (``child_seed(seed, i)``), so two
    instances built with the same phase constructions and the same seed
    produce identical access streams -- the property live-serving
    replays (:mod:`repro.serve`) rely on.  Phase *construction* state
    (e.g. a KV workload's layout shuffle) still derives from each
    phase's own constructor seed.

    Args:
        phases: The workload generators to alternate between; all must
            span the same number of pages.
        windows_per_phase: Profile windows spent in each phase before
            switching to the next.
        name: Display name.
        seed: Base RNG seed; phase ``i`` streams from
            ``child_seed(seed, i)``.
    """

    def __init__(
        self,
        phases: list[Workload],
        windows_per_phase: int = 5,
        name: str = "diurnal",
        seed: int = 0,
    ) -> None:
        if len(phases) < 2:
            raise ValueError("need at least two phases")
        if windows_per_phase < 1:
            raise ValueError("windows_per_phase must be >= 1")
        sizes = {p.num_pages for p in phases}
        if len(sizes) != 1:
            raise ValueError(
                f"all phases must span the same pages, got sizes {sorted(sizes)}"
            )
        ops = max(p.ops_per_window for p in phases)
        super().__init__(phases[0].num_pages, ops, seed)
        self.phases = list(phases)
        # Honor the wrapper's seed: each phase's access stream is moved
        # onto a named substream of it, so the diurnal stream is a pure
        # function of (phase constructions, seed).
        for i, phase in enumerate(self.phases):
            phase.seed = child_seed(seed, i)
            phase.reset()
        self.windows_per_phase = windows_per_phase
        self.name = name
        self.write_fraction = float(
            np.mean([p.write_fraction for p in phases])
        )

    @property
    def current_phase(self) -> int:
        """Index of the phase the *next* window will draw from."""
        return (self.window // self.windows_per_phase) % len(self.phases)

    def _generate_counts(self, rng: np.random.Generator) -> np.ndarray:
        return self.phases[self.current_phase].next_window()

    def reset(self) -> None:
        super().reset()
        for phase in self.phases:
            phase.reset()
