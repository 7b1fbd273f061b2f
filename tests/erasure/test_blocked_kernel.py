"""The cache-blocked GF(2^8) kernel against the gather it replaced.

``GF256.matmul_many`` works block by block (``KERNEL_BLOCK`` bytes of an
input row at a time, an ``intp`` index per row and block, first
contribution written instead of XORed into zeros).  The reference below is
the retired kernel kept in its plainest form — zero-fill, then one ``uint8``
gather and one XOR per coefficient over the whole row — and every shape the
blocking distinguishes is checked against it, on every available backend.
"""

import numpy as np
import pytest

from repro.erasure.gf import KERNEL_BLOCK, GF256, available_backends

BLOCK = KERNEL_BLOCK

#: Row lengths on both sides of every blocking decision.
ROW_LENGTHS = (1, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


@pytest.fixture(scope="module", params=available_backends())
def field(request):
    return GF256(backend=request.param)


def reference(field, A, stacked):
    """``A @ stacked[b]`` per slice: zero-fill, gather, XOR."""
    A = np.asarray(A, dtype=np.uint8)
    batch, p, q = stacked.shape
    out = np.zeros((batch, A.shape[0], q), dtype=np.uint8)
    for b in range(batch):
        for i in range(A.shape[0]):
            for j in range(p):
                out[b, i] ^= field._mul_table[A[i, j]][stacked[b, j]]
    return out


def _operands(rng, batch, m, p, q):
    A = rng.integers(0, 256, (m, p), dtype=np.uint8)
    if m > 1:
        # Both shortcuts, first-touch and accumulating, in one matrix.
        A[0, 0], A[1, 0], A[1, p - 1] = 1, 0, 1
    return A, rng.integers(0, 256, (batch, p, q), dtype=np.uint8)


@pytest.mark.parametrize("q", ROW_LENGTHS)
@pytest.mark.parametrize("batch", (0, 1, 3))
def test_matches_reference_across_block_boundaries(field, batch, q):
    rng = np.random.default_rng(q * 7 + batch)
    for m, p in ((2, 4), (6, 4), (4, 4), (3, 1)):
        A, stacked = _operands(rng, batch, m, p, q)
        got = field.matmul_many(A, stacked)
        assert got.shape == (batch, m, q) and got.dtype == np.uint8
        assert np.array_equal(got, reference(field, A, stacked)), (m, p)


@pytest.mark.parametrize("q", (1, 9, BLOCK // 64 - 1, BLOCK // 64, BLOCK // 64 + 1, BLOCK // 61))
def test_batch_of_64_short_rows(field, q):
    """The warm path's batch: every value at once while they fit one block
    together (``batch * q <= BLOCK``), value by value from there on."""
    rng = np.random.default_rng(q)
    A, stacked = _operands(rng, 64, 2, 4, q)
    assert np.array_equal(field.matmul_many(A, stacked), reference(field, A, stacked))
    assert np.array_equal(
        field.matmul_many(A, stacked[:61]), reference(field, A, stacked[:61])
    )


def test_batch_of_64_long_rows(field):
    rng = np.random.default_rng(64)
    A, stacked = _operands(rng, 64, 2, 4, BLOCK + 1)
    assert np.array_equal(field.matmul_many(A, stacked), reference(field, A, stacked))


def test_matmul_is_the_batch_of_one(field):
    rng = np.random.default_rng(1)
    for q in ROW_LENGTHS:
        A, stacked = _operands(rng, 1, 5, 3, q)
        assert np.array_equal(field.matmul(A, stacked[0]), reference(field, A, stacked)[0])


@pytest.mark.parametrize("q", (9, BLOCK + 1))
def test_non_contiguous_and_read_only_operands(field, q):
    rng = np.random.default_rng(q)
    big = rng.integers(0, 256, (6, 8, 2 * q), dtype=np.uint8)
    strided = big[::2, ::2, ::2]  # every axis strided
    A = rng.integers(0, 256, (4, strided.shape[1]), dtype=np.uint8)
    assert not strided.flags["C_CONTIGUOUS"]
    assert np.array_equal(field.matmul_many(A, strided), reference(field, A, strided))

    transposed = np.ascontiguousarray(strided.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert not transposed.flags["C_CONTIGUOUS"]
    assert np.array_equal(field.matmul_many(A, transposed), reference(field, A, strided))

    frozen = np.frombuffer(strided.tobytes(), dtype=np.uint8).reshape(strided.shape)
    assert not frozen.flags["WRITEABLE"]
    assert np.array_equal(field.matmul_many(A, frozen), reference(field, A, strided))
    assert np.array_equal(frozen, strided)  # read in place, never written


@pytest.mark.parametrize("batch,q", ((1, 9), (5, 9), (2, BLOCK + 1)))
def test_all_zero_coefficient_rows_yield_zero_rows(field, batch, q):
    """No contribution ever touches such a row, so it must be cleared —
    also in a caller's dirty ``out`` buffer."""
    rng = np.random.default_rng(q)
    A, stacked = _operands(rng, batch, 4, 3, q)
    A[2] = 0
    out = np.full((batch, 4, q), 0xAA, dtype=np.uint8)
    got = field.matmul_many(A, stacked, out=out)
    assert got is out
    assert not got[:, 2].any()
    assert np.array_equal(got, reference(field, A, stacked))
    zero = field.matmul_many(np.zeros((4, 3), dtype=np.uint8), stacked)
    assert zero.shape == (batch, 4, q) and not zero.any()


def test_no_output_rows(field):
    """``k == n`` leaves a systematic code with zero parity rows."""
    stacked = np.ones((3, 5, 9), dtype=np.uint8)
    got = field.matmul_many(np.zeros((0, 5), dtype=np.uint8), stacked)
    assert got.shape == (3, 0, 9)


def test_out_is_still_validated(field):
    rng = np.random.default_rng(3)
    A, stacked = _operands(rng, 4, 3, 5, 17)
    good = np.empty((4, 3, 17), dtype=np.uint8)
    assert field.matmul_many(A, stacked, out=good) is good
    assert np.array_equal(good, reference(field, A, stacked))
    for bad in (
        np.empty((4, 3, 16), dtype=np.uint8),  # shape
        np.empty((3, 4, 17), dtype=np.uint8),  # axes swapped
        np.empty((4, 3, 17), dtype=np.uint16),  # dtype
        np.empty((4, 3, 34), dtype=np.uint8)[:, :, ::2],  # not contiguous
    ):
        with pytest.raises(ValueError, match="out must be C-contiguous uint8"):
            field.matmul_many(A, stacked, out=bad)
    # ... on the empty batch too, where nothing would be written.
    with pytest.raises(ValueError, match="out must be"):
        field.matmul_many(A, stacked[:0], out=good)


def test_inputs_are_not_mutated(field):
    rng = np.random.default_rng(4)
    A, stacked = _operands(rng, 5, 3, 4, 33)
    A0, stacked0 = A.copy(), stacked.copy()
    field.matmul_many(A, stacked)
    assert np.array_equal(A, A0) and np.array_equal(stacked, stacked0)
