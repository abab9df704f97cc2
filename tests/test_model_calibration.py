"""Cross-validation of the analytic compression models against the real
codecs in this repository, plus distribution property tests.

The placement simulations trust
:func:`repro.compression.model.achieved_ratio`'s power law; these tests
pin the law to measured behaviour so a drive-by edit to the calibration
constants cannot silently detach the model from reality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.data import make_corpus
from repro.compression.deflate import DeflateCodec
from repro.compression.model import achieved_ratio
from repro.compression.registry import ALGORITHMS, reference_codec
from repro.mem.page import PAGE_SIZE
from repro.workloads.distributions import (
    GaussianGenerator,
    HotWarmColdGenerator,
    ZipfianGenerator,
)


def measured_page_ratios(codec, data: bytes) -> float:
    sizes = []
    for start in range(0, len(data) - PAGE_SIZE + 1, PAGE_SIZE):
        blob = codec.compress(data[start : start + PAGE_SIZE])
        sizes.append(min(len(blob), PAGE_SIZE))
    return float(np.mean(sizes)) / PAGE_SIZE


class TestPowerLawCalibration:
    @pytest.mark.parametrize("kind", ["nci", "dickens"])
    def test_strength_law_brackets_real_codecs(self, kind):
        """For each algorithm, the modelled ratio from the measured
        deflate-9 intrinsic must land within a factor of ~1.8 of the
        real stand-in codec's measured ratio."""
        data = make_corpus(kind, 48 * PAGE_SIZE, seed=13)
        intrinsic = measured_page_ratios(DeflateCodec(level=9), data)
        intrinsic = min(1.0, max(0.02, intrinsic))
        for name in ("lz4", "lzo", "lz4hc", "deflate"):
            modelled = achieved_ratio(intrinsic, ALGORITHMS[name].strength)
            measured = measured_page_ratios(reference_codec(name), data)
            assert modelled / measured < 1.8, (kind, name)
            assert measured / modelled < 1.8, (kind, name)


class TestDistributionProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 5000),
        theta=st.floats(0.0, 2.0),
        seed=st.integers(0, 100),
    )
    def test_zipfian_always_in_range(self, n, theta, seed):
        rng = np.random.default_rng(seed)
        samples = ZipfianGenerator(n, theta).sample(500, rng)
        assert samples.min() >= 0 and samples.max() < n

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 5000),
        center=st.floats(0.0, 1.0),
        std=st.floats(0.01, 0.5),
        seed=st.integers(0, 100),
    )
    def test_gaussian_always_in_range(self, n, center, std, seed):
        rng = np.random.default_rng(seed)
        samples = GaussianGenerator(n, center, std).sample(500, rng)
        assert samples.min() >= 0 and samples.max() < n

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(100, 10_000),
        hot=st.floats(0.01, 0.4),
        warm=st.floats(0.0, 0.4),
        seed=st.integers(0, 100),
    )
    def test_hot_warm_cold_in_range_and_advances(self, n, hot, warm, seed):
        rng = np.random.default_rng(seed)
        gen = HotWarmColdGenerator(n, hot_fraction=hot, warm_fraction=warm)
        for _ in range(3):
            samples = gen.sample(300, rng)
            assert samples.min() >= 0 and samples.max() < n
            gen.advance()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_hot_warm_cold_partition_is_exact(self, seed):
        gen = HotWarmColdGenerator(
            1000, hot_fraction=0.1, warm_fraction=0.3, hot_drift_fraction=0.2
        )
        assert gen.hot_items + gen.warm_items + gen.cold_items == 1000
