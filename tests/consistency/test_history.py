"""Tests for operation history recording."""

import pytest

from repro.consistency.history import READ, WRITE, History


class TestRecording:
    def test_invoke_and_respond(self):
        h = History()
        h.invoke("w1", WRITE, "w0", 0.0, value=b"v")
        rec = h.respond("w1", 2.0, tag="t")
        assert rec.is_complete
        assert rec.duration == 2.0
        assert rec.value == b"v"
        assert rec.tag == "t"

    def test_duplicate_op_id_rejected(self):
        h = History()
        h.invoke("op", WRITE, "w0", 0.0)
        with pytest.raises(ValueError):
            h.invoke("op", READ, "r0", 1.0)

    def test_unknown_kind_rejected(self):
        h = History()
        with pytest.raises(ValueError):
            h.invoke("op", "delete", "c", 0.0)

    def test_double_response_rejected(self):
        h = History()
        h.invoke("op", WRITE, "w0", 0.0)
        h.respond("op", 1.0)
        with pytest.raises(ValueError):
            h.respond("op", 2.0)

    def test_response_before_invocation_rejected(self):
        h = History()
        h.invoke("op", WRITE, "w0", 5.0)
        with pytest.raises(ValueError):
            h.respond("op", 1.0)

    def test_read_value_recorded_at_response(self):
        h = History()
        h.invoke("r1", READ, "r0", 0.0)
        h.respond("r1", 1.0, value=b"result")
        assert h.get("r1").value == b"result"

    def test_mark_failed(self):
        h = History()
        h.invoke("op", WRITE, "w0", 0.0)
        h.mark_failed("op")
        assert h.get("op").failed
        assert not h.get("op").is_complete


class TestQueries:
    def build(self):
        h = History()
        h.invoke("w1", WRITE, "w0", 0.0, value=b"a")
        h.respond("w1", 2.0)
        h.invoke("r1", READ, "r0", 1.0)
        h.respond("r1", 3.0, value=b"a")
        h.invoke("w2", WRITE, "w0", 5.0, value=b"b")
        return h

    def test_listing(self):
        h = self.build()
        assert len(h) == 3
        assert [op.op_id for op in h.operations()] == ["w1", "r1", "w2"]
        assert [op.op_id for op in h.writes()] == ["w1", "w2"]
        assert [op.op_id for op in h.reads()] == ["r1"]
        assert [op.op_id for op in h.complete_operations()] == ["w1", "r1"]
        assert [op.op_id for op in h.incomplete_operations()] == ["w2"]

    def test_iteration(self):
        h = self.build()
        assert len(list(h)) == 3

    def test_unknown_op_id_raises_descriptive_valueerror(self):
        h = self.build()
        with pytest.raises(ValueError, match="unknown operation id 'missing'"):
            h.get("missing")
        with pytest.raises(ValueError, match="unknown operation id"):
            h.mark_failed("missing")
