"""Tests for the MDS framing helpers and module-level utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.mds import (
    CodedElement,
    DecodingError,
    corrupt,
)
from repro.erasure.rs import ReedSolomonCode


class TestCodedElement:
    def test_len(self):
        assert len(CodedElement(0, b"abcd")) == 4

    def test_equality_and_hash(self):
        assert CodedElement(1, b"x") == CodedElement(1, b"x")
        assert CodedElement(1, b"x") != CodedElement(2, b"x")
        assert hash(CodedElement(1, b"x")) == hash(CodedElement(1, b"x"))


class TestHelpers:
    def test_corrupt_changes_data_and_keeps_index(self):
        el = CodedElement(2, b"hello")
        bad = corrupt(el)
        assert bad.index == 2
        assert bad.data != el.data
        assert len(bad.data) == len(el.data)

    def test_corrupt_empty_data_still_differs(self):
        assert corrupt(CodedElement(0, b"")).data != b""

    def test_corrupt_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            corrupt(CodedElement(0, b"x"), xor_mask=0)

class TestFraming:
    @given(value=st.binary(max_size=300), k=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_frame_unframe_roundtrip(self, value, k):
        code = ReedSolomonCode(k + 2, k)
        framed = code._frame_bytes((value,))
        assert len(framed) == k * code.element_size(len(value))
        rows = np.frombuffer(framed, dtype=np.uint8).reshape(k, -1)
        assert code._unframe(rows) == value

    def test_unframe_truncated_raises(self):
        code = ReedSolomonCode(4, 2)
        # A header claiming more bytes than are present.
        rows = np.frombuffer(b"\x00\x00\x01\x00" + b"ab", dtype=np.uint8).reshape(2, 3)
        with pytest.raises(DecodingError):
            code._unframe(rows)

    def test_storage_overhead_properties(self):
        code = ReedSolomonCode(9, 3)
        assert code.element_data_units == pytest.approx(1 / 3)
