"""Property-style equivalence tests for the table-driven GF(2^8) kernels.

The vectorised kernels (``mul_vec``/``scale_vec``/``matmul``) are pinned to
the scalar reference operations (``mul``/``dot``) — and, one level deeper,
the product table itself is pinned to the carry-less ``_slow_mul`` used to
build the exp/log tables — over random inputs and exhaustively over all 256
scalars.
"""

import numpy as np
import pytest

from gf_reference import dot

from repro.erasure.gf import FIELD_SIZE, GF256, default_field

# An alternative primitive polynomial/generator pair (x^8+x^5+x^3+x+1 with
# generator 0x02), exercised so nothing is accidentally specific to 0x11B.
ALT_POLY, ALT_GEN = 0x12B, 0x02


@pytest.fixture(scope="module", params=["default", "alt"])
def field(request):
    if request.param == "default":
        return default_field()
    return GF256(primitive_poly=ALT_POLY, generator=ALT_GEN)


class TestProductTable:
    def test_table_matches_slow_mul_exhaustively(self, field):
        """All 65536 products agree with the bit-level reference multiply."""
        for a in range(FIELD_SIZE):
            row = field._mul_table[a]
            for b in range(FIELD_SIZE):
                assert int(row[b]) == field._slow_mul(a, b), (a, b)

    def test_scalar_mul_uses_table(self, field):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
            assert field.mul(a, b) == field._slow_mul(a, b)


class TestMulVec:
    def test_matches_scalar_mul_on_random_arrays(self, field):
        rng = np.random.default_rng(1)
        for shape in [(1,), (17,), (64,), (3, 5), (2, 3, 4)]:
            a = rng.integers(0, 256, shape, dtype=np.uint8)
            b = rng.integers(0, 256, shape, dtype=np.uint8)
            expected = np.frompyfunc(field.mul, 2, 1)(a, b).astype(np.uint8)
            got = field.mul_vec(a, b)
            assert got.dtype == np.uint8
            assert np.array_equal(got, expected)

    def test_broadcasting_matches_outer_product(self, field):
        rng = np.random.default_rng(2)
        col = rng.integers(0, 256, 7, dtype=np.uint8)
        row = rng.integers(0, 256, 11, dtype=np.uint8)
        got = field.mul_vec(col[:, None], row[None, :])
        assert got.shape == (7, 11)
        for i in range(7):
            for j in range(11):
                assert int(got[i, j]) == field.mul(int(col[i]), int(row[j]))

    def test_scalar_operand(self, field):
        a = np.arange(FIELD_SIZE, dtype=np.uint8)
        got = field.mul_vec(a, 29)
        expected = np.array([field.mul(int(x), 29) for x in a], dtype=np.uint8)
        assert np.array_equal(got, expected)

    def test_zero_annihilates(self, field):
        a = np.arange(FIELD_SIZE, dtype=np.uint8)
        assert not field.mul_vec(a, 0).any()
        assert not field.mul_vec(np.zeros_like(a), a).any()


class TestScaleVec:
    def test_all_256_scalars(self, field):
        """Exhaustive over the scalar operand, random over the array."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, 97, dtype=np.uint8)
        for scalar in range(FIELD_SIZE):
            expected = np.array(
                [field.mul(int(x), scalar) for x in a], dtype=np.uint8
            )
            assert np.array_equal(field.scale_vec(a, scalar), expected), scalar

    def test_matches_mul_vec(self, field):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, (6, 13), dtype=np.uint8)
        for scalar in (0, 1, 2, 127, 255):
            assert np.array_equal(
                field.scale_vec(a, scalar), field.mul_vec(a, scalar)
            )


class TestMatmul:
    def test_matches_dot_reference(self, field):
        rng = np.random.default_rng(5)
        for m, p, q in [(1, 1, 1), (3, 2, 4), (10, 5, 33), (7, 7, 7)]:
            A = rng.integers(0, 256, (m, p), dtype=np.uint8)
            B = rng.integers(0, 256, (p, q), dtype=np.uint8)
            got = field.matmul(A, B)
            assert got.shape == (m, q)
            for i in range(m):
                for j in range(q):
                    expected = dot(
                        field, [int(x) for x in A[i, :]], [int(y) for y in B[:, j]]
                    )
                    assert int(got[i, j]) == expected, (i, j)

    def test_identity(self, field):
        rng = np.random.default_rng(6)
        B = rng.integers(0, 256, (4, 9), dtype=np.uint8)
        eye = np.eye(4, dtype=np.uint8)
        assert np.array_equal(field.matmul(eye, B), B)

    def test_shape_validation(self, field):
        with pytest.raises(ValueError):
            field.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            field.matmul(np.zeros(3, dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8))

    def test_does_not_mutate_inputs(self, field):
        rng = np.random.default_rng(7)
        A = rng.integers(0, 256, (5, 4), dtype=np.uint8)
        B = rng.integers(0, 256, (4, 21), dtype=np.uint8)
        A0, B0 = A.copy(), B.copy()
        field.matmul(A, B)
        assert np.array_equal(A, A0) and np.array_equal(B, B0)
