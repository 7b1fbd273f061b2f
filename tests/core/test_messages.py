"""Tests for the protocol message definitions and their cost annotations.

The cost model of Section II-h hinges on every message advertising the right
``data_units``: full values cost 1, coded elements cost 1/k, everything else
is metadata and costs nothing.  These tests pin that contract down so a
future message change cannot silently skew the cost experiments.
"""

import pytest

from repro.core.messages import (
    MDMeta,
    MDValueCoded,
    MDValueFull,
    ReadCompletePayload,
    ReadDispersePayload,
    ReadGetRequest,
    ReadGetResponse,
    ReadValuePayload,
    ReadValueResponse,
    WriteAck,
    WriteGetRequest,
    WriteGetResponse,
)
from repro.core.tags import TAG_ZERO, Tag
from repro.erasure.mds import CodedElement


class TestMetadataMessagesAreFree:
    @pytest.mark.parametrize(
        "message",
        [
            WriteGetRequest(op_id="w"),
            WriteGetResponse(op_id="w", tag=TAG_ZERO),
            ReadGetRequest(op_id="r"),
            ReadGetResponse(op_id="r", tag=TAG_ZERO),
            WriteAck(op_id="w", tag=TAG_ZERO, server_index=0),
            MDMeta(mid=("p", 1), payload="x", origin="p", op_id="r"),
        ],
    )
    def test_zero_data_units(self, message):
        assert message.data_units == 0.0

    def test_md_value_full_costs_one_unit(self):
        msg = MDValueFull(mid=("w", 1), tag=TAG_ZERO, value=b"v", origin="w", op_id="op")
        assert msg.data_units == 1.0

    def test_coded_messages_cost_is_explicit(self):
        el = CodedElement(3, b"abc")
        coded = MDValueCoded(
            mid=("w", 1), tag=TAG_ZERO, element=el, origin="w", op_id="op", data_units=0.25
        )
        relay = ReadValueResponse(
            op_id="r", tag=TAG_ZERO, element=el, server_index=3, data_units=0.25
        )
        assert coded.data_units == 0.25
        assert relay.data_units == 0.25


class TestPayloads:
    def test_payloads_are_hashable_and_comparable(self):
        a = ReadDispersePayload(
            tag=Tag(1, "w"), server_index=2, read_id="r:1", reader_pid="r", seq=1
        )
        b = ReadDispersePayload(
            tag=Tag(1, "w"), server_index=2, read_id="r:1", reader_pid="r", seq=1
        )
        assert a == b
        assert hash(a) == hash(b)
        assert ReadValuePayload("r0", "r:1", TAG_ZERO, 1) != ReadCompletePayload(
            "r0", "r:1", TAG_ZERO, 1
        )

    def test_messages_are_immutable(self):
        msg = WriteGetRequest(op_id="w")
        with pytest.raises(AttributeError):
            msg.op_id = "other"

    def test_read_value_response_carries_server_index(self):
        el = CodedElement(4, b"x")
        msg = ReadValueResponse(op_id="r", tag=TAG_ZERO, element=el, server_index=4)
        assert msg.server_index == el.index
