"""Compression substrate for TierScape's compressed memory tiers.

Two complementary layers live here:

1. **Real codecs** (:mod:`repro.compression.rle`,
   :mod:`repro.compression.lz77`, :mod:`repro.compression.lzfast`,
   :mod:`repro.compression.deflate`) -- byte-exact, round-trippable
   implementations used by the characterization experiment (paper Figure 2)
   on synthetic Silesia-like corpora.  LZ77 and RLE are written from scratch;
   deflate wraps :mod:`zlib` (the reference implementation of the DEFLATE
   format the Linux kernel also uses).

2. **Analytic models** (:mod:`repro.compression.model`,
   :mod:`repro.compression.registry`) -- calibrated (ratio, latency) models
   for the seven kernel algorithms in the paper's Table 1 (deflate, lzo,
   lzo-rle, lz4, zstd, 842, lz4hc).  The large-scale placement simulations
   use these models so that a page's compressed size and (de)compression
   latency are deterministic functions of its intrinsic compressibility.
"""

from repro.compression.base import Codec, CompressionResult
from repro.compression.data import make_corpus, page_compressibilities
from repro.compression.deflate import DeflateCodec
from repro.compression.lz77 import LZ77Codec
from repro.compression.lzfast import LZFastCodec
from repro.compression.model import AlgorithmModel, achieved_ratio
from repro.compression.registry import (
    ALGORITHMS,
    algorithm,
    algorithm_names,
    reference_codec,
)
from repro.compression.rle import RLECodec

__all__ = [
    "ALGORITHMS",
    "AlgorithmModel",
    "Codec",
    "CompressionResult",
    "DeflateCodec",
    "LZ77Codec",
    "LZFastCodec",
    "RLECodec",
    "achieved_ratio",
    "algorithm",
    "algorithm_names",
    "make_corpus",
    "page_compressibilities",
    "reference_codec",
]
