"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.bench.configs` -- tier mixes: the 12 characterization tiers
  (Figure 2), the standard mix (§8.2) and the spectrum mix (§8.3).
* :mod:`repro.bench.experiments` -- one driver per table/figure, each a
  grid of :class:`~repro.engine.grid.GridCell` plus a row reducer, run
  by :func:`~repro.engine.grid.grid_rows`.
* :mod:`repro.bench.validate` -- the artifact claims C1/C2, checked on
  the figure drivers' rows.
* :mod:`repro.bench.reporting` -- plain-text table/series printers.
"""

from repro.bench.configs import (
    characterization_tiers,
    enumerate_tiers,
    make_compressed_tier,
    spectrum_mix,
    standard_mix,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "characterization_tiers",
    "enumerate_tiers",
    "format_series",
    "format_table",
    "make_compressed_tier",
    "spectrum_mix",
    "standard_mix",
]
