"""Tests for the Vandermonde matrix-based MDS code (``vandermonde.py``, the
independent cross-check of the Reed-Solomon code) and its generator."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vandermonde import VandermondeCode, systematic_generator, vandermonde

from repro.erasure.gf import default_field
from repro.erasure.matrix import gauss_jordan_invert, identity
from repro.erasure.mds import CodedElement, DecodingError, corrupt

FIELD = default_field()


class TestVandermondeMatrix:
    def test_shape_and_first_column(self):
        V = vandermonde(FIELD, 5, 3)
        assert V.shape == (5, 3)
        assert np.all(V[:, 0] == 1)

    def test_distinct_points_required(self):
        with pytest.raises(ValueError):
            vandermonde(FIELD, 3, 2, xs=[1, 1, 2])

    def test_wrong_point_count(self):
        with pytest.raises(ValueError):
            vandermonde(FIELD, 3, 2, xs=[1, 2])

    def test_square_vandermonde_invertible(self):
        gauss_jordan_invert(FIELD, vandermonde(FIELD, 6, 6))  # must not raise


class TestSystematicGenerator:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (7, 4), (10, 5), (9, 9), (6, 1)])
    def test_systematic_prefix(self, n, k):
        G = systematic_generator(FIELD, n, k)
        assert G.shape == (k, n)
        assert np.array_equal(G[:, :k], identity(k))

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 4)])
    def test_mds_property_every_k_columns_invertible(self, n, k):
        """Every k x k column submatrix must be invertible (MDS property)."""
        G = systematic_generator(FIELD, n, k)
        for cols in combinations(range(n), k):
            gauss_jordan_invert(FIELD, G[:, list(cols)])  # must not raise

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            systematic_generator(FIELD, 3, 4)
        with pytest.raises(ValueError):
            systematic_generator(FIELD, 300, 4)
        with pytest.raises(ValueError):
            systematic_generator(FIELD, 4, 0)


def pick(elements, indices):
    return [el for el in elements if el.index in set(indices)]


class TestEncodeDecode:
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 4), (5, 5), (7, 1)])
    def test_roundtrip_all_k_subsets(self, n, k):
        code = VandermondeCode(n, k)
        value = bytes(np.random.default_rng(5).integers(0, 256, size=64, dtype=np.uint8))
        elements = code.encode(value)
        assert len(elements) == n
        for subset in combinations(range(n), k):
            assert code.decode(pick(elements, subset)) == value

    def test_systematic_prefix(self):
        code = VandermondeCode(6, 3)
        value = b"systematic check!"
        elements = code.encode(value)
        framed = b"".join(el.data for el in elements[:3])
        assert framed[4 : 4 + len(value)] == value

    def test_insufficient_elements(self):
        code = VandermondeCode(6, 3)
        elements = code.encode(b"abc")
        with pytest.raises(DecodingError):
            code.decode(elements[:2])

    def test_inconsistent_sizes(self):
        code = VandermondeCode(6, 3)
        elements = code.encode(b"abcdef")
        bad = [elements[0], elements[1], CodedElement(2, elements[2].data + b"!")]
        with pytest.raises(DecodingError):
            code.decode(bad)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            VandermondeCode(256, 3)
        with pytest.raises(ValueError):
            VandermondeCode(3, 4)

    def test_generator_matrix_shape(self):
        code = VandermondeCode(7, 3)
        G = code.generator_matrix
        assert G.shape == (3, 7)
        assert np.array_equal(G[:, :3], np.eye(3, dtype=np.uint8))


class TestDecodeWithErrors:
    def test_single_error(self):
        code = VandermondeCode(6, 2)
        value = b"tolerate one corrupted element"
        elements = code.encode(value)
        received = [corrupt(el) if el.index == 3 else el for el in elements]
        assert code.decode_with_errors(received, max_errors=1) == value

    def test_errors_and_erasures(self):
        code = VandermondeCode(10, 4)
        value = b"errors plus erasures"
        elements = code.encode(value)
        # Keep k + 2e = 8 elements, corrupt 2 of them.
        present = pick(elements, range(8))
        received = [corrupt(el) if el.index in (1, 5) else el for el in present]
        assert code.decode_with_errors(received, max_errors=2) == value

    def test_zero_errors(self):
        code = VandermondeCode(6, 3)
        value = b"no errors"
        elements = code.encode(value)
        assert code.decode_with_errors(elements[:3], max_errors=0) == value

    def test_insufficient_for_error_tolerance(self):
        code = VandermondeCode(6, 3)
        elements = code.encode(b"abc")
        with pytest.raises(DecodingError):
            code.decode_with_errors(elements[:4], max_errors=1)

    def test_negative_errors(self):
        code = VandermondeCode(6, 3)
        with pytest.raises(ValueError):
            code.decode_with_errors(code.encode(b"x"), max_errors=-2)

    def test_too_many_errors_raises(self):
        code = VandermondeCode(6, 2)
        value = b"overwhelmed"
        elements = code.encode(value)
        received = [corrupt(el) if el.index in (0, 1, 2) else el for el in elements]
        with pytest.raises(DecodingError):
            code.decode_with_errors(received, max_errors=1)

    def test_out_of_range_index(self):
        code = VandermondeCode(6, 2)
        elements = code.encode(b"abc")
        bad = elements[:5] + [CodedElement(index=77, data=elements[5].data)]
        with pytest.raises(DecodingError):
            code.decode_with_errors(bad, max_errors=1)

    @given(
        value=st.binary(min_size=0, max_size=150),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, value, seed):
        code = VandermondeCode(8, 3)
        rng = np.random.default_rng(seed)
        elements = code.encode(value)
        n_errors = int(rng.integers(0, 3))
        bad = set(rng.choice(8, size=n_errors, replace=False)) if n_errors else set()
        received = [corrupt(el) if el.index in bad else el for el in elements]
        assert code.decode_with_errors(received, max_errors=2) == value
