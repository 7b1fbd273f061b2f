"""The codec caches' byte budget, and what ``warm`` takes.

``CachedEncoder``/``CachedDecoder`` are bounded by entries *and* by bytes
(``batch.CACHE_BYTE_BUDGET``, counting each entry's value and the coded
elements held with it), so a run of unique large values keeps a window of
encodings instead of ``capacity`` of them.  The tests shrink the budget to
a few KiB; the accounting is checked against a recount of what the cache
actually holds.  ``warm`` pre-encodes only values that share a kernel call
(``MDSCode.batch_step`` above 1): for the rest it is a no-op.
"""

import tracemalloc

import numpy as np
import pytest

from repro.erasure.batch import CachedDecoder, CachedEncoder
from repro.erasure.replication import ReplicationCode
from repro.erasure.rs import ReedSolomonCode
from repro.erasure import batch


def _values(count, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) for _ in range(count)]


def _encoder_recount(encoder):
    return sum(
        len(value) + sum(len(element.data) for element in elements)
        for value, elements in encoder._cache.items()
    )


def _decoder_recount(decoder):
    return sum(
        len(value) + sum(len(data) for _, data in key[1])
        for key, value in decoder._cache.items()
    )


@pytest.fixture
def budget(monkeypatch):
    def set_budget(size):
        monkeypatch.setattr(batch, "CACHE_BYTE_BUDGET", size)
        return size

    return set_budget


class TestEncoderBudget:
    def test_unique_values_hold_a_window_not_everything(self, budget):
        limit = budget(10_000)
        code = ReedSolomonCode(6, 4)
        encoder = CachedEncoder(code)  # 1024 entries: never the binding bound
        values = _values(50, 1000)
        entry = 1000 + 6 * code.element_size(1000)
        for value in values:
            encoder.encode(value)
            assert encoder.stats()["bytes"] == _encoder_recount(encoder) <= limit
        assert len(encoder) == limit // entry
        assert all(value in encoder for value in values[-(limit // entry) :])
        assert values[0] not in encoder
        assert encoder.stats() == {
            "hits": 0,
            "misses": 50,
            "entries": limit // entry,
            "bytes": (limit // entry) * entry,
        }

    def test_entry_capacity_still_binds(self, budget):
        budget(10_000_000)
        encoder = CachedEncoder(ReedSolomonCode(6, 4), capacity=3)
        for value in _values(10, 100):
            encoder.encode(value)
        assert len(encoder) == 3
        assert encoder.stats()["bytes"] == _encoder_recount(encoder)

    def test_a_value_larger_than_the_budget_is_still_encoded_once(self, budget):
        budget(1_000)
        encoder = CachedEncoder(ReedSolomonCode(6, 4))
        big, other = _values(2, 5_000)
        first = encoder.encode(big)
        assert encoder.encode(big) is first  # the f other dispersal servers hit
        assert (encoder.hits, encoder.misses, len(encoder)) == (1, 1, 1)
        encoder.encode(other)
        assert len(encoder) == 1 and other in encoder
        assert encoder.stats()["bytes"] == _encoder_recount(encoder)

    def test_encode_many_accounts_like_encode(self, budget):
        limit = budget(20_000)
        encoder = CachedEncoder(ReedSolomonCode(6, 4))
        values = _values(30, 1000, seed=1)
        results = encoder.encode_many(values + values[:3])
        assert all(elements is not None for elements in results)
        assert encoder.stats()["bytes"] == _encoder_recount(encoder) <= limit

    def test_warm_is_capped_by_the_budget(self, budget):
        """64 values that cannot all stay are not all encoded: warming what
        the budget would evict before use is double work and a memory spike."""
        limit = budget(10_000)
        code = ReedSolomonCode(6, 4)
        entry = 1000 + 6 * code.element_size(1000)
        calls = []
        encode_many = code.encode_many
        code.encode_many = lambda values: calls.append(len(values)) or encode_many(values)
        encoder = CachedEncoder(code)
        values = _values(64, 1000, seed=2)
        assert encoder.warm(values) == limit // entry
        assert calls == [limit // entry]
        # Nothing warmed was evicted again, and the head of the batch —
        # what is written first — is what was warmed.
        assert len(encoder) == limit // entry
        assert all(value in encoder for value in values[: limit // entry])
        assert encoder.stats()["bytes"] == _encoder_recount(encoder) <= limit
        # The rest is encoded on demand.
        encoder.encode(values[-1])
        assert encoder.misses == 1

    def test_warm_always_encodes_at_least_one_value(self, budget):
        budget(100)
        encoder = CachedEncoder(ReedSolomonCode(6, 4))
        assert encoder.warm(_values(4, 1000, seed=3)) == 1
        assert len(encoder) == 1


class TestWarmTakesOnlyWhatBatches:
    """Pre-encoding pays by sharing a kernel call among small values.  A
    value the kernel takes alone is encoded as fast by its write, and warming
    a driver batch of such values only held 64 x 2.5 x value bytes until the
    writes came round."""

    def test_the_step_is_public_and_one_without_a_batched_kernel(self):
        code = ReedSolomonCode(6, 4)
        assert code.batch_step(code.element_size(32)) > 1
        assert code.batch_step(code.element_size(4096)) > 1
        assert code.batch_step(code.element_size(65536)) == 1
        for stripe in (1, 9, 1025, 16385):
            assert ReplicationCode(3).batch_step(stripe) == 1

    @pytest.mark.parametrize(
        "code, size",
        [
            (ReedSolomonCode(6, 4), 65536),
            (ReedSolomonCode(6, 4), 20000),
            (ReplicationCode(3), 32),
        ],
        ids=["rs-64k", "rs-20k", "replication-32"],
    )
    def test_warm_is_a_no_op_at_step_one(self, code, size):
        def unexpected(*args):
            raise AssertionError("warm reached the kernel")

        values = _values(8, size, seed=8)
        encoder = CachedEncoder(code)
        code.encode = code.encode_many = unexpected
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert encoder.warm(values) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 4096  # the de-duplicating dict, no buffer
        assert encoder.stats() == {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}

    def test_a_mixed_batch_is_warmed_in_its_small_values(self):
        code = ReedSolomonCode(6, 4)
        small, large = _values(5, 200, seed=9), _values(3, 65536, seed=10)
        encoder = CachedEncoder(code)
        assert encoder.warm([large[0], *small, *large[1:]]) == 5
        assert all(value in encoder for value in small)
        assert not any(value in encoder for value in large)
        # The large ones are encoded by their first use, once.
        first = encoder.encode(large[0])
        assert encoder.encode(large[0]) is first
        assert (encoder.hits, encoder.misses) == (1, 1)


class TestDecoderBudget:
    def test_unique_reconstructions_hold_a_window(self, budget):
        limit = budget(10_000)
        code = ReedSolomonCode(6, 4)
        decoder = CachedDecoder(code)
        values = _values(40, 1000, seed=4)
        entry = 1000 + 4 * code.element_size(1000)  # the value and its k-element key
        for tag, value in enumerate(values):
            assert decoder.decode(tag, code.encode(value)[:4]) == value
            assert decoder.stats()["bytes"] == _decoder_recount(decoder) <= limit
        assert len(decoder) == limit // entry
        assert decoder.stats()["entries"] == limit // entry
        # The most recent reconstruction is still memoized.
        assert decoder.decode(39, code.encode(values[39])[:4]) == values[39]
        assert decoder.hits == 1

    def test_decode_many_accounts_like_decode(self, budget):
        limit = budget(10_000)
        code = ReedSolomonCode(6, 4)
        decoder = CachedDecoder(code)
        values = _values(20, 1000, seed=5)
        jobs = [(tag, code.encode(value)[2:]) for tag, value in enumerate(values)]
        assert decoder.decode_many(jobs) == values
        assert decoder.stats()["bytes"] == _decoder_recount(decoder) <= limit

    def test_the_same_job_twice_in_one_batch_is_counted_once(self, budget):
        """Both copies miss (the eager loop's accounting) and both store
        under one key; the bytes must be those of the one live entry, or
        they drift up for good and the budget evicts live entries early."""
        limit = budget(10_000)
        code = ReedSolomonCode(6, 4)
        decoder = CachedDecoder(code)
        entry = 1000 + 4 * code.element_size(1000)
        for tag, value in enumerate(_values(3, 1000, seed=7)):
            elements = code.encode(value)[:4]
            jobs = [(tag, elements), (tag, elements[::-1]), (tag, elements)]
            assert decoder.decode_many(jobs) == [value] * 3
            assert decoder.stats()["bytes"] == _decoder_recount(decoder) == (tag + 1) * entry
        assert (decoder.hits, decoder.misses, len(decoder)) == (0, 9, 3)
        assert 3 * entry <= limit  # nothing was evicted on a phantom weight

    def test_oversized_reconstruction_is_kept_alone(self, budget):
        budget(100)
        code = ReedSolomonCode(6, 4)
        decoder = CachedDecoder(code)
        value = _values(1, 5000, seed=6)[0]
        elements = code.encode(value)[:4]
        assert decoder.decode("t", elements) == value
        assert decoder.decode("t", elements) == value
        assert (decoder.hits, decoder.misses, len(decoder)) == (1, 1, 1)


def test_cluster_codec_stats_expose_bytes_additively():
    from repro.core.soda.cluster import SodaCluster

    cluster = SodaCluster(n=6, f=2, seed=1)
    cluster.write(b"x" * 100)
    assert cluster.read().value == b"x" * 100
    stats = cluster.codec_stats()
    for prefix in ("encoder", "decoder"):
        assert {f"{prefix}_hits", f"{prefix}_misses", f"{prefix}_entries"} <= set(stats)
    assert stats["encoder_bytes"] == _encoder_recount(cluster.encoder) > 0
    assert stats["decoder_bytes"] == _decoder_recount(cluster.decoder) > 0
