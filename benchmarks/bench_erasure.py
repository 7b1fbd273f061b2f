"""E9 — supporting ablation: throughput of the erasure-coding substrate.

The paper treats encoding/decoding as free (costs are measured in data
units, not CPU time), but any practical deployment of SODA pays these CPU
costs on every write (encode at the dispersal servers) and every read
(decode at the reader).  This benchmark measures the pure-Python
Reed-Solomon codec for the code parameters used elsewhere in the
reproduction, including the errors-and-erasures decoder SODAerr relies on.
"""

import numpy as np
import pytest

from repro.erasure.batch import CachedDecoder, CachedEncoder
from repro.erasure.mds import corrupt
from repro.erasure.rs import ReedSolomonCode

VALUE_SIZE = 16 * 1024  # 16 KiB, large enough that the numpy paths dominate


def _value(seed=0):
    return bytes(np.random.default_rng(seed).integers(0, 256, VALUE_SIZE, dtype=np.uint8))


@pytest.mark.parametrize("n,k", [(6, 4), (10, 5), (12, 8)])
def test_encode_throughput(benchmark, n, k):
    code = ReedSolomonCode(n, k)
    value = _value()
    elements = benchmark(code.encode, value)
    assert len(elements) == n


@pytest.mark.parametrize("n,k", [(6, 4), (10, 5), (12, 8)])
def test_erasure_decode_throughput(benchmark, n, k):
    """Decoding from exactly k elements — the SODA reader's hot path."""
    code = ReedSolomonCode(n, k)
    value = _value(1)
    elements = code.encode(value)[n - k :]  # the k highest-index elements
    decoded = benchmark(code.decode, elements)
    assert decoded == value


@pytest.mark.parametrize("n,k,e", [(8, 4, 1), (10, 4, 2)])
def test_error_decode_throughput(benchmark, n, k, e):
    """Errors-and-erasures decoding — the SODAerr reader's hot path."""
    code = ReedSolomonCode(n, k)
    value = _value(2)
    elements = code.encode(value)[: k + 2 * e]
    received = [corrupt(el) if el.index < e else el for el in elements]
    decoded = benchmark(code.decode_with_errors, received, e)
    assert decoded == value


def test_cached_encoder_stripe_throughput(benchmark):
    """A skewed write batch through ``CachedEncoder.encode_many`` — repeats
    hit the LRU, distinct values share one fused stripe encode.  The cache
    counters land in ``extra_info`` so the benchmark report shows the
    hit/miss split alongside the timing."""
    code = ReedSolomonCode(10, 5)
    encoder = CachedEncoder(code)
    distinct = [_value(seed) for seed in range(8)]
    batch = distinct + distinct[:4] + distinct[:4]  # 8 misses, 8 repeat hits
    results = benchmark(encoder.encode_many, batch)
    assert len(results) == len(batch)
    benchmark.extra_info.update(encoder.stats())


def test_cached_decoder_repeat_throughput(benchmark):
    """Concurrent reads of one version decode byte-identical element sets;
    ``CachedDecoder`` memoizes them.  Counters land in ``extra_info``."""
    code = ReedSolomonCode(10, 5)
    decoder = CachedDecoder(code)
    value = _value(4)
    subset = code.encode(value)[5:]

    def repeated_reads():
        for _ in range(8):
            assert decoder.decode("tag-1", subset) == value

    benchmark(repeated_reads)
    benchmark.extra_info.update(decoder.stats())

