"""Tests for polynomial arithmetic over GF(2^8) — what the Reed–Solomon
encoder builds its generator and encode matrix with.  ``add`` and
``evaluate`` are test-local oracles (the encoder needs neither), checked
first."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import poly
from repro.erasure.gf import default_field

FIELD = default_field()

coeff = st.integers(min_value=0, max_value=255)
polynomials = st.lists(coeff, min_size=1, max_size=12)


def add(p, q):
    """Sum of two polynomials (coefficient-wise XOR, aligned at degree 0)."""
    width = max(len(p), len(q))
    p, q = [0] * (width - len(p)) + list(p), [0] * (width - len(q)) + list(q)
    return poly.normalize([a ^ b for a, b in zip(p, q)])


def evaluate(p, x):
    """``p(x)`` by Horner's rule."""
    acc = 0
    for c in p:
        acc = FIELD.mul(acc, x) ^ c
    return acc


class TestBasics:
    def test_normalize_strips_leading_zeros(self):
        assert poly.normalize([0, 0, 1, 2]) == [1, 2]
        assert poly.normalize([0, 0, 0]) == [0]
        assert poly.normalize([]) == [0]

    def test_degree(self):
        assert poly.degree([0]) == -1
        assert poly.degree([5]) == 0
        assert poly.degree([1, 0, 0]) == 2
        assert poly.degree([0, 1, 0]) == 1

    def test_is_zero(self):
        assert poly.is_zero([0, 0])
        assert not poly.is_zero([0, 1])

    def test_add_xor_semantics(self):
        assert add([1, 2, 3], [1, 2, 3]) == [0]
        assert add([1, 0], [1]) == [1, 1]

    def test_evaluate_constant_and_linear(self):
        assert evaluate([7], 100) == 7
        # p(x) = x + 5 at x=3 -> 3 ^ 5 = 6
        assert evaluate([1, 5], 3) == 6


class TestMulDiv:
    def test_mul_by_zero(self):
        assert poly.mul(FIELD, [0], [1, 2, 3]) == [0]

    def test_mul_known(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2^m)
        assert poly.mul(FIELD, [1, 1], [1, 1]) == [1, 0, 1]

    def test_divmod_exact(self):
        q_expected = [3, 7]
        divisor = [1, 4, 9]
        product = poly.mul(FIELD, q_expected, divisor)
        q, r = poly.divmod_poly(FIELD, product, divisor)
        assert q == q_expected
        assert r == [0]

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly.divmod_poly(FIELD, [1, 2], [0])

    def test_divmod_smaller_dividend(self):
        q, r = poly.divmod_poly(FIELD, [5], [1, 0, 0])
        assert q == [0]
        assert r == [5]

    @given(p=polynomials, q=polynomials)
    @settings(max_examples=150)
    def test_divmod_reconstruction(self, p, q):
        """p = q * quot + rem and deg(rem) < deg(q) whenever q != 0."""
        if poly.is_zero(q):
            return
        quot, rem = poly.divmod_poly(FIELD, p, q)
        reconstructed = add(poly.mul(FIELD, quot, q), rem)
        assert poly.normalize(reconstructed) == poly.normalize(p)
        assert poly.degree(rem) < poly.degree(q) or poly.is_zero(rem)

    @given(p=polynomials, q=polynomials, x=coeff)
    @settings(max_examples=150)
    def test_mul_evaluation_homomorphism(self, p, q, x):
        lhs = evaluate(poly.mul(FIELD, p, q), x)
        rhs = FIELD.mul(evaluate(p, x), evaluate(q, x))
        assert lhs == rhs

    @given(p=polynomials, q=polynomials, x=coeff)
    @settings(max_examples=150)
    def test_add_evaluation_homomorphism(self, p, q, x):
        lhs = evaluate(add(p, q), x)
        rhs = evaluate(p, x) ^ evaluate(q, x)
        assert lhs == rhs


class TestRootsAndDerivative:
    def test_from_roots_has_those_roots(self):
        roots = [1, 2, 3, 77]
        p = poly.from_roots(FIELD, roots)
        assert poly.degree(p) == len(roots)
        for r in roots:
            assert evaluate(p, r) == 0
        # A non-root should not evaluate to zero.
        assert evaluate(p, 5) != 0

    def test_from_roots_empty(self):
        assert poly.from_roots(FIELD, []) == [1]

    def test_mod_is_remainder(self):
        p = [1, 0, 0, 0, 1]
        d = [1, 1]
        assert poly.mod(FIELD, p, d) == poly.divmod_poly(FIELD, p, d)[1]
