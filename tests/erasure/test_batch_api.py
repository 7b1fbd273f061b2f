"""Tests for the batched encode_many/decode_many pipeline.

The contract: batched results are byte-identical to per-value
``encode``/``decode`` for every registered code, regardless of value sizes,
index subsets or grouping.  Also covers the bounded decode-matrix cache and
the cluster-shared :class:`~repro.erasure.batch.CachedEncoder`.
"""

import numpy as np
import pytest

from vandermonde import VandermondeCode

from repro.erasure.batch import CachedEncoder
from repro.erasure.mds import DecodingError
from repro.erasure.replication import ReplicationCode
from repro.erasure.rs import ReedSolomonCode

#: Every registered MDS code backend, at representative parameters.
CODES = [
    pytest.param(lambda: ReedSolomonCode(10, 5), id="rs-10-5"),
    pytest.param(lambda: ReedSolomonCode(6, 4), id="rs-6-4"),
    pytest.param(lambda: VandermondeCode(9, 4), id="vandermonde-9-4"),
    pytest.param(lambda: ReplicationCode(5), id="replication-5"),
]


def _values(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [bytes(rng.integers(0, 256, s, dtype=np.uint8)) for s in sizes]


@pytest.mark.parametrize("make_code", CODES)
class TestEncodeMany:
    def test_matches_per_value_encode(self, make_code):
        code = make_code()
        values = _values([0, 1, 17, 64, 300, 64])
        batch = code.encode_many(values)
        assert len(batch) == len(values)
        for value, elements in zip(values, batch):
            singles = code.encode(value)
            assert [(e.index, e.data) for e in elements] == [
                (e.index, e.data) for e in singles
            ]

    def test_empty_batch(self, make_code):
        assert make_code().encode_many([]) == []

    def test_round_trip_through_decode_many(self, make_code):
        code = make_code()
        values = _values([5, 80, 33], seed=1)
        batch = code.encode_many(values)
        element_sets = [els[code.n - code.k :] for els in batch]
        assert code.decode_many(element_sets) == values


@pytest.mark.parametrize("make_code", CODES)
class TestDecodeMany:
    def test_matches_per_set_decode(self, make_code):
        code = make_code()
        values = _values([48, 48, 9, 200], seed=2)
        batch = code.encode_many(values)
        rng = np.random.default_rng(3)
        element_sets = []
        for elements in batch:
            picked = rng.choice(code.n, size=code.k, replace=False)
            element_sets.append([elements[i] for i in sorted(picked)])
        expected = [code.decode(els) for els in element_sets]
        assert code.decode_many(element_sets) == expected == values

    def test_mixed_index_sets_and_sizes_group_correctly(self, make_code):
        """Sets with different index tuples / stripes must not cross-talk."""
        code = make_code()
        values = _values([64, 64, 128, 64], seed=4)
        batch = code.encode_many(values)
        element_sets = [
            batch[0][: code.k],
            batch[1][code.n - code.k :],
            batch[2][: code.k],
            batch[3][code.n - code.k :],
        ]
        assert code.decode_many(element_sets) == values

    def test_too_few_elements_raises(self, make_code):
        code = make_code()
        if code.k == 1:
            pytest.skip("k=1 codes decode from any single element")
        (elements,) = code.encode_many(_values([32], seed=5))
        with pytest.raises(DecodingError):
            code.decode_many([elements[: code.k - 1]])


class TestDecodeCacheBound:
    def test_cache_is_lru_bounded(self):
        code = ReedSolomonCode(10, 5, decode_cache_size=4)
        value = _values([40], seed=6)[0]
        elements = code.encode(value)
        # Decode from many distinct index subsets; the cache must stay capped.
        from itertools import combinations

        for subset in list(combinations(range(10), 5))[:25]:
            assert code.decode([elements[i] for i in subset]) == value
        assert code.decode_cache_size <= 4

    def test_cache_hit_reuses_matrix(self):
        code = VandermondeCode(8, 3, decode_cache_size=2)
        value = _values([24], seed=7)[0]
        elements = code.encode(value)
        subset = elements[2:5]
        assert code.decode(subset) == value
        assert code.decode(subset) == value
        assert code.decode_cache_size == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(6, 3, decode_cache_size=0)


class TestCachedEncoder:
    def test_warm_then_encode_hits(self):
        code = ReedSolomonCode(8, 4)
        encoder = CachedEncoder(code)
        first, second = _values([16, 99], seed=8)
        values = [first, second, first]  # contains a duplicate
        assert encoder.warm(values) == 2
        for value in values:
            elements = encoder.encode(value)
            singles = code.encode(value)
            assert [(e.index, e.data) for e in elements] == [
                (e.index, e.data) for e in singles
            ]
        assert encoder.misses == 0
        assert encoder.hits == 3

    def test_capacity_evicts_lru(self):
        encoder = CachedEncoder(ReplicationCode(3), capacity=2)
        a, b, c = _values([8, 8, 8], seed=9)
        encoder.encode(a)
        encoder.encode(b)
        encoder.encode(c)  # evicts a
        assert len(encoder) == 2
        assert a not in encoder
        assert b in encoder and c in encoder

    def test_unknown_value_is_miss_then_hit(self):
        encoder = CachedEncoder(ReedSolomonCode(5, 3))
        (value,) = _values([50], seed=10)
        encoder.encode(value)
        encoder.encode(value)
        assert (encoder.misses, encoder.hits) == (1, 1)

    def test_encode_many_counts_a_repeat_inside_the_batch_as_a_hit(self):
        code = ReedSolomonCode(5, 3)
        encoder = CachedEncoder(code)
        values = [b"alpha", b"beta", b"alpha", b"gamma"]
        assert encoder.encode_many(values) == [code.encode(v) for v in values]
        assert (encoder.misses, encoder.hits) == (3, 1)


class TestClusterWiring:
    def test_dispersal_encodes_hit_shared_cache(self):
        from repro.core.soda.cluster import SodaCluster

        cluster = SodaCluster(n=5, f=2, seed=3, initial_value=b"v0")
        value = b"batched-write-value"
        cluster.warm_encode([value])
        misses_before = cluster.encoder.misses
        cluster.write(value)
        record = cluster.read()
        cluster.run()  # quiescence: every dispersal server has encoded
        assert record.value == value
        # Every dispersal-set server served its encode from the warm cache.
        assert cluster.encoder.misses == misses_before
        assert cluster.encoder.hits >= cluster.f + 1

    def test_cas_writer_uses_shared_cache(self):
        from repro.baselines.cas import CasCluster

        cluster = CasCluster(n=5, f=1, seed=5)
        value = b"cas-batched-value"
        cluster.warm_encode([value])
        misses_before = cluster.encoder.misses
        cluster.write(value)
        assert cluster.read().value == value
        assert cluster.encoder.misses == misses_before

    def test_abd_warm_encode_is_noop(self):
        from repro.baselines.abd import AbdCluster

        cluster = AbdCluster(n=3, f=1, seed=6)
        assert cluster.warm_encode([b"replicated"]) == 0
        cluster.write(b"replicated")
        assert cluster.read().value == b"replicated"

    def test_warm_capped_at_capacity(self):
        encoder = CachedEncoder(ReedSolomonCode(5, 3), capacity=2)
        values = _values([8, 8, 8, 8], seed=12)
        assert encoder.warm(values) == 2
        assert len(encoder) == 2

    def test_decode_many_equivalence_on_cluster_code(self):
        from repro.core.soda.cluster import SodaCluster

        cluster = SodaCluster(n=6, f=2, seed=4)
        values = _values([64, 64], seed=11)
        batch = cluster.code.encode_many(values)
        sets = [els[: cluster.code.k] for els in batch]
        assert cluster.code.decode_many(sets) == values
