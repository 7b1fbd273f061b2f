"""Tests for GF(2^8) matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import matrix as gfm
from repro.erasure.gf import default_field

FIELD = default_field()


def random_invertible(rng, n):
    """Rejection-sample an invertible n x n matrix."""
    while True:
        A = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
        try:
            gfm.gauss_jordan_invert(FIELD, A)
            return A
        except gfm.SingularMatrixError:
            continue


class TestInversion:
    def test_identity_inverse(self):
        I = gfm.identity(4)
        assert np.array_equal(gfm.gauss_jordan_invert(FIELD, I), I)

    def test_singular_matrix_raises(self):
        A = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(gfm.SingularMatrixError):
            gfm.gauss_jordan_invert(FIELD, A)

    def test_zero_matrix_raises(self):
        with pytest.raises(gfm.SingularMatrixError):
            gfm.gauss_jordan_invert(FIELD, np.zeros((3, 3), dtype=np.uint8))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gfm.gauss_jordan_invert(FIELD, np.zeros((2, 3), dtype=np.uint8))

    @given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_inverse_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        A = random_invertible(rng, n)
        A_inv = gfm.gauss_jordan_invert(FIELD, A)
        assert np.array_equal(FIELD.matmul(A, A_inv), gfm.identity(n))
        assert np.array_equal(FIELD.matmul(A_inv, A), gfm.identity(n))


class TestSolveByInversion:
    """Erasure decoding solves ``A X = B`` as ``A^-1 B`` (one inversion for
    the whole value, its bytes as the columns of ``B``)."""

    def test_solve_vector(self):
        rng = np.random.default_rng(7)
        A = random_invertible(rng, 5)
        x = rng.integers(0, 256, size=5, dtype=np.uint8)
        b = FIELD.matmul(A, x[:, None])
        solved = FIELD.matmul(gfm.gauss_jordan_invert(FIELD, A), b)[:, 0]
        assert np.array_equal(solved, x)

    def test_solve_matrix_rhs(self):
        rng = np.random.default_rng(8)
        A = random_invertible(rng, 4)
        X = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
        B = FIELD.matmul(A, X)
        solved = FIELD.matmul(gfm.gauss_jordan_invert(FIELD, A), B)
        assert np.array_equal(solved, X)
