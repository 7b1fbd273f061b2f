"""Parity-only systematic encoding against the full ``G @ frame`` product.

A :class:`~repro.erasure.linear.LinearCode` whose encode matrix has an
identity block on top multiplies only its ``n - k`` parity rows and hands
out the rows of the framed value as the first ``k`` elements.  The oracle
here shares nothing with that path: the frame is built by hand from the
documented layout (4-byte big-endian length, value, zero padding) and
multiplied by the *whole* encode matrix with a plain gather.
"""

import struct
from typing import Iterable

import numpy as np
import pytest

from vandermonde import VandermondeCode, vandermonde

from repro.erasure.gf import default_field
from repro.erasure.linear import LinearCode
from repro.erasure.mds import CodedElement, DecodingError
from repro.erasure.rs import ReedSolomonCode

PARAMETERS = ((6, 4), (8, 4), (10, 5), (5, 5))
SIZES = (0, 1, 3, 4, 17, 64, 300, 65536)


def full_product(code, value: bytes):
    """The ``n`` rows of ``G @ frame(value)``, as bytes."""
    framed = struct.pack(">I", len(value)) + value
    framed += b"\x00" * (-len(framed) % code.k)
    frame = np.frombuffer(framed, dtype=np.uint8).reshape(code.k, -1)
    G = code.encode_matrix
    table = code.field._mul_table
    rows = []
    for i in range(code.n):
        row = np.zeros(frame.shape[1], dtype=np.uint8)
        for j in range(code.k):
            row ^= table[G[i, j]][frame[j]]
        rows.append(row.tobytes())
    return rows


def _values(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) if size else b"" for size in sizes]


def _as_pairs(elements):
    return [(element.index, element.data) for element in elements]


@pytest.mark.parametrize("n,k", PARAMETERS)
@pytest.mark.parametrize("make", (ReedSolomonCode, VandermondeCode))
class TestSystematicCodes:
    def test_only_the_parity_rows_are_multiplied(self, make, n, k):
        code = make(n, k)
        assert code._coding_rows.shape == (n - k, k)
        assert np.array_equal(code._coding_rows, code.encode_matrix[k:])

    def test_encode_equals_the_full_product(self, make, n, k):
        code = make(n, k)
        for value in _values(SIZES, seed=n * 16 + k):
            assert _as_pairs(code.encode(value)) == list(enumerate(full_product(code, value)))

    def test_encode_many_equals_the_full_product(self, make, n, k):
        code = make(n, k)
        values = _values([48] * 64, seed=1)  # the warm path: one group of 64
        for value, elements in zip(values, code.encode_many(values)):
            assert _as_pairs(elements) == list(enumerate(full_product(code, value)))

    def test_batches_larger_than_one_kernel_call(self, make, n, k):
        """``batch_step`` values share a kernel call: groups that need
        several calls (a ragged last one) and values that each need their
        own must come back whole and in order, from both directions."""
        code = make(n, k)
        for size, count in ((5000, 20), (40000, 5)):
            step = code.batch_step(code.element_size(size))
            assert count > step and (step == 1 or count % step)
            values = _values([size] * count, seed=size)
            batch = code.encode_many(values)
            for value, elements in zip(values, batch):
                assert _as_pairs(elements) == list(enumerate(full_product(code, value)))
            assert code.decode_many([elements[n - k :] for elements in batch]) == values

    def test_mixed_size_batches_keep_input_order(self, make, n, k):
        code = make(n, k)
        values = _values([64, 0, 300, 64, 1, 300, 65536, 64], seed=2)
        batch = code.encode_many(values)
        assert len(batch) == len(values)
        for value, elements in zip(values, batch):
            assert _as_pairs(elements) == list(enumerate(full_product(code, value)))
            assert all(type(element.data) is bytes for element in elements)

    def test_round_trip_from_every_kind_of_element_set(self, make, n, k):
        code = make(n, k)
        value = _values([1000], seed=3)[0]
        elements = code.encode(value)
        for chosen in (range(k), range(n - k, n), range(n - 1, n - 1 - k, -1)):
            assert code.decode([elements[i] for i in chosen]) == value
        assert code.decode_many([elements[:k], elements[n - k :]]) == [value, value]

    def test_unequal_elements_adding_up_to_a_frame_are_rejected(self, make, n, k):
        """Decode gathers its rows with one join and a reshape, which alone
        would accept misaligned elements whose total is ``k * stripe``."""
        code = make(n, k)
        elements = code.encode(_values([1000], seed=5)[0])
        shifted = [
            CodedElement(0, elements[0].data + elements[1].data[:1]),
            CodedElement(1, elements[1].data[1:]),
            *elements[2:],
        ]
        with pytest.raises(DecodingError):
            code.decode(shifted[:k])
        with pytest.raises(DecodingError):
            code.decode_many([elements[:k], shifted[:k]])
        with pytest.raises(DecodingError):
            code.decode_with_errors(shifted, max_errors=(n - k) // 2)


class PlainVandermondeCode(LinearCode):
    """A deliberately non-systematic code: the raw Vandermonde matrix."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n, k)
        field = default_field()
        self._init_linear(field, vandermonde(field, n, k))

    def decode_with_errors(self, elements: Iterable[CodedElement], max_errors: int) -> bytes:
        raise DecodingError("erasure-only test code")


@pytest.mark.parametrize("n,k", ((6, 4), (5, 5)))
def test_non_systematic_code_takes_the_full_matrix_path(n, k):
    code = PlainVandermondeCode(n, k)
    assert not np.array_equal(code.encode_matrix[:k], np.eye(k, dtype=np.uint8))
    assert np.array_equal(code._coding_rows, code.encode_matrix)
    values = _values([0, 17, 300, 17, 40000], seed=4)
    batch = code.encode_many(values)
    for value, elements in zip(values, batch):
        expected = list(enumerate(full_product(code, value)))
        assert _as_pairs(elements) == expected == _as_pairs(code.encode(value))
        # No element is a plain slice of the value's frame here.
        assert code.decode(elements[n - k :]) == value


def test_frame_layout_is_unchanged():
    """``_frame_bytes`` builds header + value + padding with one join; the
    bytes are what the two concatenations produced."""
    for k in (1, 3, 4, 5):
        code = ReedSolomonCode(k + 2, k)
        for value in _values((0, 1, 2, 3, 4, 5, 11, 12, 13, 255), seed=k):
            framed = struct.pack(">I", len(value)) + value
            stripe = max(-(-len(framed) // k), 1)
            padded = framed + b"\x00" * (k * stripe - len(framed))
            assert code.element_size(len(value)) == stripe
            assert code._frame_bytes((value,)) == padded
            assert code._frame_bytes((value, value)) == padded + padded
            frame = np.frombuffer(padded, dtype=np.uint8).reshape(k, stripe)
            assert code._unframe(frame) == value
