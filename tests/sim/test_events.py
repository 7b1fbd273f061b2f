"""Tests for the event queue."""

import heapq

import pytest

from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while q:
            q.pop()[2].fire()
        assert fired == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for name in "abcde":
            q.push(1.0, lambda n=name: fired.append(n))
        while q:
            q.pop()[2].fire()
        assert fired == list("abcde")

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(1.0, lambda: None)
        assert q
        assert len(q) == 1

    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(IndexError):
            q.pop()

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, lambda: None)

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.peek_time() == 2.0

    def test_cancel(self):
        q = EventQueue()
        fired = []
        ev = q.push(1.0, lambda: fired.append("cancelled"))
        q.push(2.0, lambda: fired.append("kept"))
        q.cancel(ev)
        assert len(q) == 1
        while q:
            q.pop()[2].fire()
        assert fired == ["kept"]

    def test_cancel_then_peek(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(4.0, lambda: None)
        q.cancel(ev)
        assert q.peek_time() == 4.0

    def test_cancel_after_fire_is_noop(self):
        """Regression: cancelling an already-fired event must not corrupt
        the queue's length accounting (it used to leave a phantom
        cancellation that made ``__len__`` under-count forever)."""
        q = EventQueue()
        fired = []
        ev = q.push(1.0, lambda: fired.append("a"))
        q.push(2.0, lambda: fired.append("b"))
        assert q.pop()[2] is ev
        ev.fire()
        q.cancel(ev)  # already fired: must be a no-op
        assert len(q) == 1
        assert q
        assert q.peek_time() == 2.0
        q.pop()[2].fire()
        assert fired == ["a", "b"]
        assert len(q) == 0

    def test_cancel_twice_is_noop(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 1

    def test_cancel_unknown_event_is_noop(self):
        """Cancelling an event that was never queued here must not affect
        the pending count."""
        q = EventQueue()
        q.push(1.0, lambda: None)
        unknown = Event(time=5.0, seq=999, action=lambda: None)
        q.cancel(unknown)
        assert len(q) == 1
        assert q.peek_time() == 1.0

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.clear()
        assert len(q) == 0

    def test_event_label(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None, label="hello")
        assert ev.label == "hello"

    def test_argument_carrying_event(self):
        """Events can carry one preallocated argument (the network's
        deliver fast path schedules ``deliver(record)`` without a partial)."""
        q = EventQueue()
        seen = []
        ev = q.push(1.0, seen.append, argument="payload")
        ev2 = q.push(2.0, lambda: seen.append("no-arg"))
        q.pop()[2].fire()
        q.pop()[2].fire()
        assert seen == ["payload", "no-arg"]
        assert ev.argument == "payload"
        assert ev2.seq > ev.seq

    def test_message_entries_share_the_heap_with_events(self):
        """The network pushes deliveries as bare tuples (no Event); pop,
        peek_time, len and clear treat both shapes alike and order them by
        the shared (time, seq) key."""
        q = EventQueue()
        ev = q.push(2.0, lambda: None, label="timer")
        message = (1.0, next(q._counter), None, "dst", "src", "payload", None)
        heapq.heappush(q._heap, message)
        tie = (2.0, next(q._counter), None, "dst", "src", "later", None)
        heapq.heappush(q._heap, tie)
        assert len(q) == 3 and q
        assert q.peek_time() == 1.0
        assert q.pop() is message
        assert q.pop()[2] is ev  # same instant, scheduled first
        assert q.pop() is tie
        assert len(q) == 0 and not q
        heapq.heappush(q._heap, message)
        q.clear()
        assert len(q) == 0 and q.peek_time() is None

    def test_cancelled_event_is_skipped_between_message_entries(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        message = (2.0, next(q._counter), None, "dst", "src", "payload", None)
        heapq.heappush(q._heap, message)
        q.cancel(ev)
        assert len(q) == 1
        assert q.peek_time() == 2.0
        assert q.pop() is message
        assert len(q) == 0

    def test_cancel_event_of_other_queue_is_noop(self):
        """In-place cancellation must not corrupt a different queue's
        pending count when handed another queue's event."""
        q1, q2 = EventQueue(), EventQueue()
        ev1 = q1.push(1.0, lambda: None)
        q2.push(1.0, lambda: None)
        q2.cancel(ev1)
        assert len(q1) == 1 and len(q2) == 1
        assert q1.pop()[2] is ev1

    def test_cancel_after_clear_is_noop(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.clear()
        q.cancel(ev)
        assert len(q) == 0
        assert not q
