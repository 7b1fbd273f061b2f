"""Tests for the protocol message definitions and their cost annotations.

The cost model of Section II-h hinges on every message advertising the right
``data_units``: full values cost 1, coded elements cost 1/k, everything else
is metadata and costs nothing.  These tests pin that contract down so a
future message change cannot silently skew the cost experiments.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest

from repro.baselines import abd, cas
from repro.core import messages
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
from repro.erasure import mds
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

    def test_read_value_response_carries_server_index(self):
        el = CodedElement(4, b"x")
        msg = ReadValueResponse(op_id="r", tag=TAG_ZERO, element=el, server_index=4)
        assert msg.server_index == el.index


# ----------------------------------------------------------------------
# one contract over every message class of every protocol
# ----------------------------------------------------------------------
def _message_classes():
    """The public dataclasses defined in the four modules that define
    messages (client-side operation records are private to theirs)."""
    return {
        cls.__name__: cls
        for module in (messages, cas, abd, mds)
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
        and not cls.__name__.startswith("_")
    }


MESSAGE_CLASSES = _message_classes()

# Hot-path sites build messages positionally, so swapping two fields of one
# type is a mis-routed message, not a TypeError: the order is pinned here.
FIELD_ORDER = {
    "WriteGetRequest": ("op_id", "data_units"),
    "WriteGetResponse": ("op_id", "tag", "data_units"),
    "ReadGetRequest": ("op_id", "data_units"),
    "ReadGetResponse": ("op_id", "tag", "data_units"),
    "WriteAck": ("op_id", "tag", "server_index", "data_units"),
    "ReadValueResponse": ("op_id", "tag", "element", "server_index", "data_units"),
    "MDValueFull": ("mid", "tag", "value", "origin", "op_id", "data_units"),
    "MDValueCoded": ("mid", "tag", "element", "origin", "op_id", "data_units"),
    "ReadValuePayload": ("reader_pid", "read_id", "tag", "seq"),
    "ReadCompletePayload": ("reader_pid", "read_id", "tag", "seq"),
    "ReadDispersePayload": ("tag", "server_index", "read_id", "reader_pid", "seq"),
    "MDMeta": ("mid", "payload", "origin", "op_id", "data_units"),
    "CasQueryRequest": ("op_id", "data_units"),
    "CasQueryResponse": ("op_id", "tag", "data_units"),
    "CasPreWriteRequest": ("op_id", "tag", "element", "data_units"),
    "CasPreWriteAck": ("op_id", "tag", "data_units"),
    "CasFinalizeRequest": ("op_id", "tag", "reply_with_element", "data_units"),
    "CasFinalizeAck": ("op_id", "tag", "element", "server_index", "data_units"),
    "AbdQueryRequest": ("op_id", "include_value", "data_units"),
    "AbdQueryResponse": ("op_id", "tag", "value", "data_units"),
    "AbdStoreRequest": ("op_id", "tag", "value", "data_units"),
    "AbdStoreAck": ("op_id", "tag", "data_units"),
    "CodedElement": ("index", "data"),
}

_SAMPLE = {
    "op_id": "r0:7",
    "data_units": 0.25,
    "tag": Tag(3, "w1"),
    "server_index": 2,
    "element": CodedElement(2, b"abc"),
    "mid": ("s1", 4),
    "value": b"value",
    "origin": "s1",
    "payload": ReadDispersePayload(Tag(3, "w1"), 2, "r0:7", "r0", 7),
    "reader_pid": "r0",
    "read_id": "r0:7",
    "seq": 7,
    "reply_with_element": True,
    "include_value": True,
    "index": 2,
    "data": b"abc",
}


def _sample(cls):
    """An instance built the way the hot path builds it: positionally."""
    return cls(*(_SAMPLE[field.name] for field in dataclasses.fields(cls)))


def test_every_message_class_has_a_pinned_field_order():
    assert sorted(MESSAGE_CLASSES) == sorted(FIELD_ORDER)


@pytest.mark.parametrize("name", sorted(FIELD_ORDER))
def test_message_contract(name):
    cls = MESSAGE_CLASSES[name]
    order = tuple(field.name for field in dataclasses.fields(cls))
    assert order == FIELD_ORDER[name], f"{name}: field order changed"
    a, b = _sample(cls), _sample(cls)
    # Slotted and __dict__-free: a typo in a handler cannot grow a field.
    assert not hasattr(a, "__dict__"), name
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a is not b and a == b and hash(a) == hash(b), name
    assert copy.deepcopy(a) == a, name
    assert pickle.loads(pickle.dumps(a)) == a, name


def test_equality_is_typed_across_all_message_classes():
    """Classes with the very same fields (the GET requests of three
    protocols, READ-VALUE and READ-COMPLETE) never compare equal."""
    samples = [_sample(cls) for cls in MESSAGE_CLASSES.values()]
    same_fields = 0
    for a, b in itertools.combinations(samples, 2):
        assert a != b, (type(a).__name__, type(b).__name__)
        same_fields += dataclasses.astuple(a) == dataclasses.astuple(b)
    assert same_fields >= 10  # the check had something to bite on
