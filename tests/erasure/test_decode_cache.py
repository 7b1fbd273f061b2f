"""Tests for the read-side decode cache.

Contract: a memoized decode is byte-identical to an eager decode for the
same (tag, element-set); conflicting element sets never collide in the
cache.  (How the protocols call it: ``tests/runtime/test_codec_front.py``.)
"""

import pytest

from repro.core.tags import Tag
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.batch import CachedDecoder
from repro.erasure.mds import corrupt


def _code():
    return ReedSolomonCode(6, 3)


def _elements(code, value, count=None):
    return code.encode(value)[: count if count is not None else code.k]


class TestCachedDecoder:
    def test_decode_matches_eager(self):
        code = _code()
        decoder = CachedDecoder(code)
        value = b"hello decode cache"
        elements = _elements(code, value)
        tag = Tag(1, "w0")
        assert decoder.decode(tag, elements) == value
        assert decoder.decode(tag, elements) == value
        assert decoder.hits == 1 and decoder.misses == 1

    def test_distinct_subsets_distinct_entries(self):
        code = _code()
        decoder = CachedDecoder(code)
        value = b"subset sensitivity"
        full = code.encode(value)
        tag = Tag(2, "w0")
        assert decoder.decode(tag, full[:3]) == value
        assert decoder.decode(tag, full[1:4]) == value
        assert decoder.misses == 2  # different fingerprints, no false hit

    def test_same_elements_different_tags_miss(self):
        code = _code()
        decoder = CachedDecoder(code)
        value = b"tag keyed"
        elements = _elements(code, value)
        decoder.decode(Tag(1, "w0"), elements)
        decoder.decode(Tag(2, "w0"), elements)
        assert decoder.misses == 2

    def test_decode_many_mixes_hits_and_misses(self):
        code = _code()
        decoder = CachedDecoder(code)
        v1, v2 = b"value one", b"value two"
        e1, e2 = _elements(code, v1), _elements(code, v2)
        t1, t2 = Tag(1, "w0"), Tag(2, "w0")
        decoder.decode(t1, e1)
        values = decoder.decode_many([(t1, e1), (t2, e2), (t1, e1)])
        assert values == [v1, v2, v1]
        assert decoder.hits == 2  # both (t1, e1) jobs hit the primed entry
        assert decoder.misses == 2  # the scalar prime and (t2, e2)

    def test_error_decode_memoized(self):
        code = ReedSolomonCode(7, 3)
        decoder = CachedDecoder(code, max_errors=1)
        value = b"errors and erasures"
        elements = code.encode(value)[:5]  # k + 2e
        damaged = [corrupt(elements[0])] + elements[1:]
        tag = Tag(3, "w1")
        assert decoder.decode(tag, damaged) == value
        assert decoder.decode(tag, damaged) == value
        assert decoder.hits == 1 and decoder.misses == 1

    def test_capacity_bounded(self):
        code = _code()
        decoder = CachedDecoder(code, capacity=2)
        for z in range(5):
            value = f"value {z}".encode()
            decoder.decode(Tag(z, "w0"), _elements(code, value))
        assert len(decoder) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CachedDecoder(_code(), capacity=0)
        with pytest.raises(ValueError):
            CachedDecoder(_code(), max_errors=-1)
