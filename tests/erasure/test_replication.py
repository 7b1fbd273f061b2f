"""Tests for the replication (ABD) pseudo-code."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.mds import DecodingError, corrupt
from repro.erasure.replication import ReplicationCode


class TestReplication:
    def test_parameters(self):
        code = ReplicationCode(5)
        assert code.n == 5
        assert code.k == 1
        assert code.element_data_units == 1.0

    def test_every_element_decodes_alone(self):
        code = ReplicationCode(4)
        value = b"replicated everywhere"
        for el in code.encode(value):
            assert code.decode([el]) == value

    def test_empty_value(self):
        code = ReplicationCode(3)
        assert code.decode(code.encode(b"")[:1]) == b""

    def test_decode_no_elements(self):
        code = ReplicationCode(3)
        with pytest.raises(DecodingError):
            code.decode([])

    def test_majority_vote_tolerates_corruption(self):
        code = ReplicationCode(5)
        value = b"correct value"
        elements = code.encode(value)
        received = [corrupt(el) if el.index == 0 else el for el in elements]
        assert code.decode_with_errors(received, max_errors=1) == value

    def test_majority_vote_insufficient_replicas(self):
        code = ReplicationCode(5)
        elements = code.encode(b"abc")
        with pytest.raises(DecodingError):
            code.decode_with_errors(elements[:2], max_errors=1)

    def test_majority_vote_no_majority(self):
        code = ReplicationCode(3)
        value = b"v"
        elements = code.encode(value)
        received = [corrupt(el, 0x11) if el.index == 0 else el for el in elements]
        received = [corrupt(el, 0x22) if el.index == 1 else el for el in received]
        with pytest.raises(DecodingError):
            code.decode_with_errors(received, max_errors=2)

    def test_negative_errors(self):
        code = ReplicationCode(3)
        with pytest.raises(ValueError):
            code.decode_with_errors(code.encode(b"x"), max_errors=-1)

    @given(value=st.binary(max_size=500), n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, value, n):
        code = ReplicationCode(n)
        elements = code.encode(value)
        assert len(elements) == n
        assert code.decode(elements) == value
