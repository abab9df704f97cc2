"""Refactor-equivalence: drivers must match pre-refactor goldens.

The files under ``tests/goldens/`` were serialized from the seed
commit's hand-wired ``bench/experiments.py`` (before the drivers were
rerouted through ``repro.engine.Session``) at the pinned seeds, and
re-recorded once when windows became per-page counts (a redrawn access
stream).  These tests assert the drivers reproduce them byte for byte
-- i.e. a refactor changes the plumbing, not a single number.

Measured wall-clock fields (the solver times a real ILP solve) are
zeroed on both sides, and the latency-statistic fields -- whose values
depend on the accumulator's histogram representation -- are zeroed in
the byte-identical files and pinned against
``goldens/latency_stats.json`` with a < 0.5 % relative tolerance
instead; see ``tests/_goldens.py``.
"""

import json

import pytest

from repro.bench import experiments
from tests._goldens import (
    GOLDEN_DIR,
    LATENCY_RTOL,
    PINNED,
    VOLATILE_KEYS,
    golden_text,
    latency_entries,
    normalise,
    sla_result,
)


@pytest.fixture(scope="module")
def driver_results():
    """Each pinned driver run once, shared by both golden checks."""
    return {
        name: getattr(experiments, name)(**PINNED[name]) for name in PINNED
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_driver_matches_pre_refactor_golden(name, driver_results):
    got = golden_text(driver_results[name])
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert got == want, f"{name} diverged from the pre-refactor golden"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_latency_stats_within_tolerance(name, driver_results):
    """Latency mean/percentiles track the pre-histogram values closely."""
    pinned = json.loads((GOLDEN_DIR / "latency_stats.json").read_text())
    got = latency_entries(normalise(driver_results[name], zeroed=VOLATILE_KEYS))
    want = pinned[name]
    assert sorted(got) == sorted(want), f"{name} latency field set changed"
    for path, value in want.items():
        assert got[path] == pytest.approx(value, rel=LATENCY_RTOL), (
            f"{name}:{path} drifted beyond {LATENCY_RTOL:.1%}"
        )


def test_exp_sla_matches_golden():
    """SLA auto-tuning rows and every target's per-window alpha
    trajectory (harvests, holds and backoffs) stay byte-identical."""
    got = golden_text(sla_result())
    want = (GOLDEN_DIR / "exp_sla.json").read_text()
    assert got == want, "exp_sla diverged from its golden"
