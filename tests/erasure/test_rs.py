"""Tests for the Reed-Solomon codec (erasure and errors-and-erasures decoding)."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vandermonde import VandermondeCode

from repro.erasure import poly
from repro.erasure.gf import default_field
from repro.erasure.mds import CodedElement, DecodingError, corrupt
from repro.erasure.rs import ReedSolomonCode

FIELD = default_field()


def make_code(n, k):
    return ReedSolomonCode(n, k)


def pick(elements, indices):
    return [el for el in elements if el.index in set(indices)]


def is_codeword(code, symbols):
    """Whether a full n-symbol column has zero syndromes under ``code``."""
    assert len(symbols) == code.n
    col = np.asarray(symbols, dtype=np.uint8)[:, None]
    return not np.any(code.field.matmul(code._syndrome_matrix, col))


class TestConstruction:
    def test_generator_poly_degree_and_roots(self):
        code = make_code(8, 5)
        g = code._generator_poly
        assert poly.degree(g) == 3

        def at(x):  # Horner's rule over the descending coefficients
            return reduce(lambda acc, c: FIELD.mul(acc, x) ^ c, g, 0)

        assert [at(FIELD.alpha_pow(j)) for j in range(3)] == [0, 0, 0]
        assert at(FIELD.alpha_pow(3)) != 0

    def test_encode_matrix_systematic(self):
        code = make_code(7, 4)
        G = code.encode_matrix
        assert G.shape == (7, 4)
        assert np.array_equal(G[:4, :], np.eye(4, dtype=np.uint8))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(3, 5)
        with pytest.raises(ValueError):
            ReedSolomonCode(300, 5)
        with pytest.raises(ValueError):
            ReedSolomonCode(5, 0)

    def test_properties(self):
        code = make_code(10, 7)
        assert code.n == 10
        assert code.k == 7
        assert code.element_data_units == pytest.approx(1 / 7)

    def test_trivial_code_n_equals_k(self):
        code = make_code(4, 4)
        value = b"abcdefgh"
        elements = code.encode(value)
        assert code.decode(elements) == value


class TestEncode:
    def test_element_count_and_sizes(self):
        code = make_code(9, 4)
        value = b"x" * 100
        elements = code.encode(value)
        assert len(elements) == 9
        sizes = {len(el.data) for el in elements}
        assert len(sizes) == 1
        # 104 framed bytes over k=4 -> 26 bytes per element.
        assert sizes.pop() == 26

    def test_systematic_elements_carry_framed_value(self):
        code = make_code(6, 3)
        value = b"hello world!"
        elements = code.encode(value)
        framed = b"".join(el.data for el in elements[:3])
        # 4-byte length header then the value.
        assert framed[:4] == (12).to_bytes(4, "big")
        assert framed[4:16] == value

    def test_each_column_is_a_codeword(self):
        code = make_code(8, 3)
        value = bytes(range(40))
        elements = code.encode(value)
        stripe = len(elements[0].data)
        for col in range(stripe):
            symbols = [el.data[col] for el in elements]
            assert is_codeword(code, symbols)

    def test_is_codeword_rejects_corruption(self):
        code = make_code(8, 3)
        elements = code.encode(b"some value")
        symbols = [el.data[0] for el in elements]
        symbols[2] ^= 0xFF
        assert not is_codeword(code, symbols)

    def test_empty_value(self):
        code = make_code(5, 3)
        elements = code.encode(b"")
        assert code.decode(elements[:3]) == b""

    def test_agreement_with_polynomial_division_reference(self):
        code = make_code(7, 3)
        rng = np.random.default_rng(0)
        message = [int(x) for x in rng.integers(0, 256, size=3)]
        reference = code._encode_column_systematic(message)
        via_matrix = FIELD.matmul(
            code.encode_matrix, np.array(message, dtype=np.uint8)[:, None]
        )[:, 0]
        assert list(via_matrix) == reference


class TestErasureDecode:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (8, 4), (10, 5), (11, 2)])
    def test_decode_from_every_k_subset(self, n, k):
        from itertools import combinations

        code = make_code(n, k)
        value = bytes(np.random.default_rng(42).integers(0, 256, size=57, dtype=np.uint8))
        elements = code.encode(value)
        for subset in combinations(range(n), k):
            assert code.decode(pick(elements, subset)) == value

    def test_decode_with_more_than_k(self):
        code = make_code(8, 4)
        value = b"more than k elements supplied"
        elements = code.encode(value)
        assert code.decode(elements) == value

    def test_decode_insufficient_elements(self):
        code = make_code(8, 4)
        elements = code.encode(b"abc")
        with pytest.raises(DecodingError):
            code.decode(elements[:3])

    def test_decode_inconsistent_sizes(self):
        code = make_code(6, 3)
        elements = code.encode(b"abcdefgh")
        bad = [
            elements[0],
            elements[1],
            CodedElement(index=2, data=elements[2].data + b"\x00"),
        ]
        with pytest.raises(DecodingError):
            code.decode(bad)

    def test_decode_conflicting_duplicates(self):
        code = make_code(6, 3)
        elements = code.encode(b"abcdefgh")
        dup = CodedElement(index=0, data=bytes(len(elements[0].data)))
        with pytest.raises(DecodingError):
            code.decode([elements[0], dup, elements[1], elements[2]])

    def test_decode_duplicate_identical_ok(self):
        code = make_code(6, 3)
        value = b"abcdefgh"
        elements = code.encode(value)
        assert code.decode([elements[0], elements[0], elements[1], elements[2]]) == value

    def test_decode_out_of_range_index(self):
        code = make_code(6, 3)
        elements = code.encode(b"abcdefgh")
        bad = [elements[0], elements[1], CodedElement(index=9, data=elements[2].data)]
        with pytest.raises(DecodingError):
            code.decode(bad)

    @given(
        value=st.binary(min_size=0, max_size=400),
        nk=st.sampled_from([(4, 2), (5, 3), (7, 4), (10, 6), (12, 1)]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_subsets(self, value, nk, seed):
        n, k = nk
        code = make_code(n, k)
        elements = code.encode(value)
        rng = np.random.default_rng(seed)
        subset = rng.choice(n, size=k, replace=False)
        assert code.decode(pick(elements, subset)) == value


class TestErrorsAndErasuresDecode:
    @pytest.mark.parametrize(
        "n,k,e", [(6, 2, 1), (8, 4, 1), (9, 3, 2), (10, 4, 2), (12, 4, 3)]
    )
    def test_corrects_errors_with_all_elements_present(self, n, k, e):
        code = make_code(n, k)
        value = bytes(np.random.default_rng(1).integers(0, 256, size=99, dtype=np.uint8))
        elements = code.encode(value)
        rng = np.random.default_rng(2)
        bad_indices = rng.choice(n, size=e, replace=False)
        received = [
            corrupt(el) if el.index in set(bad_indices) else el for el in elements
        ]
        assert code.decode_with_errors(received, max_errors=e) == value

    @pytest.mark.parametrize("n,k,e", [(8, 2, 1), (10, 2, 2), (12, 4, 2)])
    def test_corrects_errors_with_exactly_k_plus_2e_elements(self, n, k, e):
        """The SODAerr reader setting: exactly k + 2e elements, e corrupted,
        the remaining positions erased (f = n - k - 2e crashed servers)."""
        code = make_code(n, k)
        value = b"the SODAerr reader must decode this value correctly"
        elements = code.encode(value)
        rng = np.random.default_rng(3)
        present = sorted(rng.choice(n, size=k + 2 * e, replace=False))
        bad = set(rng.choice(present, size=e, replace=False))
        received = [
            corrupt(el) if el.index in bad else el
            for el in elements
            if el.index in set(present)
        ]
        assert code.decode_with_errors(received, max_errors=e) == value

    def test_no_errors_fast_path(self):
        code = make_code(8, 4)
        value = b"clean read"
        elements = code.encode(value)
        assert code.decode_with_errors(elements[:6], max_errors=1) == value

    def test_zero_max_errors_delegates_to_erasure_decode(self):
        code = make_code(8, 4)
        value = b"zero errors"
        elements = code.encode(value)
        assert code.decode_with_errors(elements[:4], max_errors=0) == value

    def test_insufficient_elements(self):
        code = make_code(8, 4)
        elements = code.encode(b"abc")
        with pytest.raises(DecodingError):
            code.decode_with_errors(elements[:5], max_errors=1)

    def test_radius_exceeded(self):
        code = make_code(6, 4)  # n - k = 2
        elements = code.encode(b"abc")
        # 1 error (needs 2) + 1 erasure = 3 > 2.
        with pytest.raises(DecodingError):
            code.decode_with_errors(elements[:5], max_errors=1)

    def test_negative_max_errors(self):
        code = make_code(6, 2)
        elements = code.encode(b"abc")
        with pytest.raises(ValueError):
            code.decode_with_errors(elements, max_errors=-1)

    def test_too_many_actual_errors_detected(self):
        """With more corrupted elements than the declared bound the decoder
        must raise rather than return wrong data."""
        code = make_code(8, 4)
        value = b"important payload"
        elements = code.encode(value)
        received = [corrupt(el) if el.index < 3 else el for el in elements]
        with pytest.raises(DecodingError):
            code.decode_with_errors(received, max_errors=1)

    @given(
        value=st.binary(min_size=1, max_size=200),
        params=st.sampled_from([(6, 2, 1), (8, 4, 1), (9, 3, 2), (11, 5, 2)]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_with_errors_and_erasures(self, value, params, seed):
        n, k, e = params
        code = make_code(n, k)
        elements = code.encode(value)
        rng = np.random.default_rng(seed)
        n_errors = int(rng.integers(0, e + 1))
        n_present = int(rng.integers(k + 2 * e, n + 1))
        present = sorted(rng.choice(n, size=n_present, replace=False))
        bad = set(rng.choice(present, size=n_errors, replace=False)) if n_errors else set()
        received = [
            corrupt(el) if el.index in bad else el
            for el in elements
            if el.index in set(present)
        ]
        assert code.decode_with_errors(received, max_errors=e) == value

    @given(
        value=st.binary(min_size=1, max_size=120),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_combinatorial_decoder(self, value, seed):
        """The algebraic decoder and the independent Vandermonde
        decode-and-verify decoder must agree on correctable inputs."""
        n, k, e = 9, 3, 2
        rs = ReedSolomonCode(n, k)
        rng = np.random.default_rng(seed)
        elements = rs.encode(value)
        bad = set(rng.choice(n, size=e, replace=False))
        received = [corrupt(el) if el.index in bad else el for el in elements]
        decoded_rs = rs.decode_with_errors(received, max_errors=e)

        vdm = VandermondeCode(n, k)
        v_elements = vdm.encode(value)
        v_received = [corrupt(el) if el.index in bad else el for el in v_elements]
        decoded_vdm = vdm.decode_with_errors(v_received, max_errors=e)
        assert decoded_rs == decoded_vdm == value
