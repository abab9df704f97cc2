"""Tests for zsmalloc compaction and the diurnal workload wrapper.
(SLA auto-tuning is tested in ``test_adaptive.py``.)"""

import numpy as np
import pytest

from repro.allocators.zsmalloc import ZsmallocAllocator
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.masim import MasimWorkload
from tests.conftest import run_windows


class TestZsmallocCompaction:
    def test_compaction_reclaims_pages(self):
        pool = ZsmallocAllocator(arena_pages=1 << 12)
        handles = [pool.store(1200) for _ in range(60)]
        # Free most objects, leaving stragglers across many zspages.
        for handle in handles[::3]:
            pool.free(handle)
        for handle in handles[1::3]:
            pool.free(handle)
        before = pool.pool_pages
        reclaimed, moved = pool.compact()
        assert pool.pool_pages == before - reclaimed
        assert reclaimed >= 0 and moved >= 0
        # Accounting stays consistent.
        assert pool.stored_objects == 20
        assert pool.stored_bytes == 20 * 1200

    def test_compaction_preserves_frees(self):
        pool = ZsmallocAllocator(arena_pages=1 << 12)
        handles = [pool.store(1000) for _ in range(30)]
        for handle in handles[:20:2]:
            pool.free(handle)
        pool.compact()
        # Every surviving handle can still be freed.
        for handle in handles[1:20:2] + handles[20:]:
            pool.free(handle)
        assert pool.pool_pages == 0

    def test_compaction_idempotent_when_dense(self):
        pool = ZsmallocAllocator(arena_pages=1 << 12)
        for _ in range(16):
            pool.store(2048)
        reclaimed, moved = pool.compact()
        assert reclaimed == 0


class TestDiurnalWorkload:
    def _phases(self):
        return [
            MasimWorkload(
                num_pages=1024, ops_per_window=1000, hot_fraction=0.1, seed=1
            ),
            MasimWorkload(
                num_pages=1024, ops_per_window=1000, hot_fraction=0.5, seed=2
            ),
        ]

    def test_phase_switching(self):
        workload = DiurnalWorkload(self._phases(), windows_per_phase=2)
        assert workload.current_phase == 0
        workload.next_window()
        workload.next_window()
        assert workload.current_phase == 1
        for _ in range(2):
            workload.next_window()
        assert workload.current_phase == 0  # wrapped

    def test_phases_actually_differ(self):
        workload = DiurnalWorkload(self._phases(), windows_per_phase=1)
        narrow = workload.next_window()  # hot 10 % of pages
        wide = workload.next_window()  # hot 50 % of pages
        assert np.count_nonzero(narrow) < np.count_nonzero(wide)

    def test_validation(self):
        phases = self._phases()
        with pytest.raises(ValueError):
            DiurnalWorkload(phases[:1])
        with pytest.raises(ValueError):
            DiurnalWorkload(phases, windows_per_phase=0)
        mismatched = [
            phases[0],
            MasimWorkload(num_pages=2048, ops_per_window=1000),
        ]
        with pytest.raises(ValueError, match="same pages"):
            DiurnalWorkload(mismatched)

    def test_daemon_adapts_across_phases(self, system):
        from repro.core.daemon import TSDaemon
        from repro.core.placement.waterfall import WaterfallModel

        phases = [
            MasimWorkload(
                num_pages=system.space.num_pages,
                ops_per_window=5000,
                hot_fraction=0.1,
                seed=1,
            ),
            MasimWorkload(
                num_pages=system.space.num_pages,
                ops_per_window=5000,
                hot_fraction=0.3,
                seed=2,
            ),
        ]
        workload = DiurnalWorkload(phases, windows_per_phase=3)
        daemon = TSDaemon(system, WaterfallModel(50.0), sampling_rate=1)
        summary = run_windows(daemon, workload, 9)
        assert summary.windows == 9
        assert summary.tco_savings > 0
