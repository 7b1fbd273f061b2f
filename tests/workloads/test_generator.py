"""Tests for the streamed history generator and the unique write values."""

import pytest

from repro.consistency.history import History
from repro.workloads.generator import (
    StreamSpec,
    stream_operations,
    unique_value,
)


class TestUniqueValue:
    def test_uniqueness(self):
        values = {unique_value(w, s, 64) for w in range(3) for s in range(20)}
        assert len(values) == 60

    def test_requested_size(self):
        assert len(unique_value(1, 2, 128)) == 128

    def test_tiny_size_still_unique_header(self):
        v = unique_value(1, 2, 3)
        assert v.startswith(b"w1#2")


class TestStreamSpecValidation:
    """A spec outside the generator's contract is refused by name: before
    the check, with ``mean_gap=-1`` every operation but a client's first
    was invoked before the previous one responded, ``clients=0`` streamed
    nothing, and ``mean_duration=-1`` died inside the recorder."""

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("operations", -1),
            ("clients", 0),
            ("read_fraction", 1.5),
            ("mean_gap", -1.0),
            ("mean_duration", -1.0),
            ("value_size", -1),
            ("incomplete_fraction", -0.1),
        ],
    )
    def test_field_out_of_range_is_named(self, field, bad):
        with pytest.raises(ValueError, match=rf"^StreamSpec\.{field}="):
            StreamSpec(**{"operations": 100, field: bad})

    def test_nan_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"StreamSpec\.mean_gap="):
            StreamSpec(operations=10, mean_gap=float("nan"))

    def test_unknown_injection_mode(self):
        with pytest.raises(ValueError, match="unknown injection mode"):
            StreamSpec(operations=10, inject="stall")

    def test_boundaries_stream_well_formed_histories(self):
        spec = StreamSpec(
            operations=200,
            clients=1,
            read_fraction=1.0,
            mean_gap=0.0,
            mean_duration=0.0,
            value_size=0,
            incomplete_fraction=0.0,
        )
        history = History()
        stats = stream_operations(spec, history)
        assert stats.completed == 200
        ops = history.operations()
        assert all(a.responded_at <= b.invoked_at for a, b in zip(ops, ops[1:]))
        assert StreamSpec(operations=0).operations == 0
