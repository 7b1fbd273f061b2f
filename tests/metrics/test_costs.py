"""Tests for communication and storage cost tracking."""

from collections import defaultdict
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.costs import CommunicationCostTracker, StorageTracker
from repro.sim.network import MessageRecord
from repro.sim.process import Process
from repro.sim.simulation import Simulation


@dataclass
class Msg:
    data_units: float = 0.0
    op_id: object = None


def record(units, op):
    return MessageRecord(src="a", dst="b", payload=Msg(units, op), sent_at=0.0)


class TestCommunicationCostTracker:
    def test_attribution(self):
        t = CommunicationCostTracker()
        t.record(record(1.0, "op1"))
        t.record(record(0.5, "op1"))
        t.record(record(0.25, "op2"))
        t.record(record(0.0, "op2"))
        assert t.cost_of("op1") == pytest.approx(1.5)
        assert t.cost_of("op2") == pytest.approx(0.25)

    def test_unattributed(self):
        t = CommunicationCostTracker()
        t.record(record(2.0, None))
        assert t.cost_of("anything") == 0.0
        assert t.costs() == {}

    def test_unknown_operation_is_zero(self):
        assert CommunicationCostTracker().cost_of("nope") == 0.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 0.25, 1 / 3, 1 / 7]),
                st.sampled_from(["op1", "op2", "op3", None]),
            ),
            max_size=200,
        )
    )
    def test_one_record_per_op_adds_like_a_float(self, messages):
        """Each operation's record is one running float sum, bit for bit."""
        t = CommunicationCostTracker()
        units_of = defaultdict(float)
        for units, op in messages:
            t.record(record(units, op))
            if op is not None:
                units_of[op] += units
        assert t.costs() == dict(units_of)
        for op in units_of:
            assert type(t.cost_of(op)) is float
            assert t.cost_of(op) == units_of[op]

    def test_attach_to_network(self):
        class Sink(Process):
            def on_message(self, sender, message):
                pass

        sim = Simulation(seed=0)
        tracker = CommunicationCostTracker().attach(sim.network)
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(0.0, lambda: a.send("b", Msg(0.75, "op9")))
        sim.run()
        assert tracker.cost_of("op9") == pytest.approx(0.75)


class TestStorageTracker:
    def test_peak_tracking(self):
        t = StorageTracker()
        t.update("s1", 0.5)
        t.update("s2", 0.5)
        assert t.current_total == pytest.approx(1.0)
        t.update("s1", 2.0)
        assert t.peak() == pytest.approx(2.5)
        t.update("s1", 0.0)
        assert t.current_total == pytest.approx(0.5)
        assert t.peak() == pytest.approx(2.5)  # peak is sticky

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StorageTracker().update("s1", -1.0)
