"""Unit and property tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf_reference import dot

from repro.erasure.gf import FIELD_SIZE, GF256, default_field

FIELD = default_field()

elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestTableConstruction:
    def test_exp_log_roundtrip(self):
        for a in range(1, FIELD_SIZE):
            assert FIELD.exp[FIELD.log[a]] == a

    def test_exp_covers_all_nonzero_elements(self):
        assert set(int(x) for x in FIELD.exp[:255]) == set(range(1, 256))

    def test_invalid_primitive_poly_rejected(self):
        with pytest.raises(ValueError):
            GF256(primitive_poly=0x1B)  # degree < 8

    def test_non_primitive_generator_rejected(self):
        # 0x01 generates only {1}; it is not primitive.
        with pytest.raises(ValueError):
            GF256(generator=0x01)

    def test_alternative_primitive_poly_works(self):
        # x^8 + x^5 + x^3 + x + 1 (0x12B) is another irreducible polynomial
        # with 0x02 primitive.
        field = GF256(primitive_poly=0x12B, generator=0x02)
        assert field.mul(field.inv(77), 77) == 1


class TestScalarOps:
    def test_add_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100
        assert GF256.sub(0b1010, 0b0110) == 0b1100

    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert FIELD.mul(a, 1) == a
            assert FIELD.mul(1, a) == a
            assert FIELD.mul(a, 0) == 0
            assert FIELD.mul(0, a) == 0

    def test_known_aes_products(self):
        # Classical AES field examples.
        assert FIELD.mul(0x53, 0xCA) == 0x01
        assert FIELD.mul(0x57, 0x13) == 0xFE

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.div(5, 0)
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)

    def test_pow_edge_cases(self):
        assert FIELD.pow(0, 0) == 1
        assert FIELD.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            FIELD.pow(0, -1)
        assert FIELD.pow(7, 0) == 1

    def test_pow_negative_exponent(self):
        for a in (1, 2, 7, 133, 255):
            assert FIELD.mul(FIELD.pow(a, -1), a) == 1
            assert FIELD.pow(a, -2) == FIELD.inv(FIELD.mul(a, a))

    def test_alpha_pow_periodicity(self):
        assert FIELD.alpha_pow(0) == 1
        assert FIELD.alpha_pow(255) == 1
        assert FIELD.alpha_pow(256) == FIELD.alpha_pow(1)
        assert FIELD.alpha_pow(-1) == FIELD.inv(FIELD.generator)

    @given(a=elements, b=elements)
    def test_mul_commutative(self, a, b):
        assert FIELD.mul(a, b) == FIELD.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=200)
    def test_mul_associative(self, a, b, c):
        assert FIELD.mul(FIELD.mul(a, b), c) == FIELD.mul(a, FIELD.mul(b, c))

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=200)
    def test_distributive(self, a, b, c):
        left = FIELD.mul(a, b ^ c)
        right = FIELD.mul(a, b) ^ FIELD.mul(a, c)
        assert left == right

    @given(a=nonzero_elements)
    def test_inverse(self, a):
        assert FIELD.mul(a, FIELD.inv(a)) == 1

    @given(a=elements, b=nonzero_elements)
    def test_div_mul_roundtrip(self, a, b):
        assert FIELD.mul(FIELD.div(a, b), b) == a

    @given(a=nonzero_elements, e=st.integers(min_value=-300, max_value=300))
    def test_pow_matches_repeated_mul(self, a, e):
        expected = 1
        base = a if e >= 0 else FIELD.inv(a)
        for _ in range(abs(e)):
            expected = FIELD.mul(expected, base)
        assert FIELD.pow(a, e) == expected


class TestVectorOps:
    def test_mul_vec_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=100, dtype=np.uint8)
        b = rng.integers(0, 256, size=100, dtype=np.uint8)
        out = FIELD.mul_vec(a, b)
        for i in range(100):
            assert out[i] == FIELD.mul(int(a[i]), int(b[i]))

    def test_mul_vec_broadcasting(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        out = FIELD.mul_vec(a[:, None], np.array([5, 7], dtype=np.uint8)[None, :])
        assert out.shape == (3, 2)
        assert out[2, 1] == FIELD.mul(3, 7)

    def test_scale_vec_zero_scalar(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        assert np.all(FIELD.scale_vec(a, 0) == 0)

    def test_scale_vec_matches_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=64, dtype=np.uint8)
        out = FIELD.scale_vec(a, 0x1D)
        for i in range(64):
            assert out[i] == FIELD.mul(int(a[i]), 0x1D)

    def test_matmul_identity(self):
        rng = np.random.default_rng(2)
        A = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        I = np.eye(5, dtype=np.uint8)
        assert np.array_equal(FIELD.matmul(A, I), A)
        assert np.array_equal(FIELD.matmul(I, A), A)

    def test_matmul_matches_scalar_dot(self):
        rng = np.random.default_rng(3)
        A = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        B = rng.integers(0, 256, size=(4, 2), dtype=np.uint8)
        C = FIELD.matmul(A, B)
        for i in range(3):
            for j in range(2):
                expected = dot(FIELD, [int(x) for x in A[i]], [int(x) for x in B[:, j]])
                assert C[i, j] == expected

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            FIELD.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def test_default_field_is_cached():
    assert default_field() is default_field()
