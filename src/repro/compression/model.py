"""Analytic (ratio, latency) models for compression algorithms.

The placement simulations manage hundreds of thousands of pages; running a
real codec per page per migration would dominate simulation time without
changing any placement decision.  Instead, each page carries an *intrinsic
compressibility* ``c`` in ``(0, 1]`` -- the compressed/original ratio a
reference strong compressor (deflate level 9) achieves on it -- and each
algorithm is an :class:`AlgorithmModel` that maps ``c`` to the ratio it
achieves plus deterministic latency costs.

The mapping uses a power law::

    achieved_ratio(c) = clamp(c ** strength, c, 1)

with ``strength = 1`` for the reference algorithm and ``strength < 1`` for
weaker/faster algorithms: since ``c < 1``, ``c ** s >= c`` for ``s <= 1``,
i.e. weaker algorithms leave more residual size, and they degrade *more* on
barely-compressible data -- matching the measured behaviour of lz4 vs
deflate on the Silesia corpus (see ``tests/test_compression_model.py``,
which cross-checks the law against the real codecs in this package).

Latency constants are calibrated to the relative ordering the paper's
Figure 2a reports (lz4 fastest, then lzo, then deflate; all in
single-digit-to-tens of microseconds per 4 KB page), with absolute anchors
taken from published lz4/zlib throughput numbers (~400 MB/s lz4 compress,
~60 MB/s deflate compress on a server core).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.page import PAGE_SIZE


def achieved_ratio(intrinsic: float, strength: float, floor: float = 0.02) -> float:
    """Ratio an algorithm of the given ``strength`` achieves on a page.

    Args:
        intrinsic: Reference (deflate-9) compressed/original ratio of the
            page's data, in ``(0, 1]``.
        strength: Algorithm strength in ``(0, 1]``; 1 = reference strength.
        floor: Lower bound on the achievable ratio (metadata overheads mean
            no zswap object is ever stored at less than ~2 % of a page).

    Returns:
        The achieved compressed/original ratio, clamped to ``[floor, 1]``.
    """
    if not 0.0 < intrinsic <= 1.0:
        raise ValueError(f"intrinsic ratio must be in (0, 1], got {intrinsic}")
    if not 0.0 < strength <= 1.0:
        raise ValueError(f"strength must be in (0, 1], got {strength}")
    return min(1.0, max(floor, intrinsic**strength))


@dataclass(frozen=True)
class AlgorithmModel:
    """Deterministic cost model for one compression algorithm.

    Attributes:
        name: Kernel algorithm name (e.g. ``"lz4"``).
        strength: Ratio strength in ``(0, 1]``; see :func:`achieved_ratio`.
        compress_ns_per_page: CPU nanoseconds to compress one 4 KB page.
        decompress_ns_per_page: CPU nanoseconds to decompress one 4 KB page.
    """

    name: str
    strength: float
    compress_ns_per_page: float
    decompress_ns_per_page: float

    def ratio(self, intrinsic: float) -> float:
        """Achieved compressed/original ratio on a page; see module docs."""
        return achieved_ratio(intrinsic, self.strength)

    def compressed_size(self, intrinsic: float) -> int:
        """Compressed object size in bytes for one 4 KB page."""
        return max(1, int(round(self.ratio(intrinsic) * PAGE_SIZE)))

    def ratios(self, intrinsics) -> np.ndarray:
        """:meth:`ratio` over an array, bit-identical element for element.

        ``np.power`` is not bitwise equal to scalar ``**``, so each
        element goes through the scalar law.  Callers with many repeated
        values pass the distinct ones (the memory system's per-level
        tables).
        """
        values = np.asarray(intrinsics, dtype=np.float64)
        ratios = [self.ratio(c) for c in values.ravel().tolist()]
        return np.array(ratios, dtype=np.float64).reshape(values.shape)

    def compressed_sizes(self, intrinsics) -> np.ndarray:
        """:meth:`compressed_size` over an array (``int64``), bit-identical.

        ``np.rint`` rounds half to even, like ``round()``.
        """
        sizes = np.rint(self.ratios(intrinsics) * PAGE_SIZE).astype(np.int64)
        return np.maximum(1, sizes)

    def compress_ns(self, num_pages: int = 1) -> float:
        """Compression cost for ``num_pages`` pages."""
        return self.compress_ns_per_page * num_pages

    def decompress_ns(self, num_pages: int = 1) -> float:
        """Decompression cost for ``num_pages`` pages."""
        return self.decompress_ns_per_page * num_pages
