"""Tests for the simulation orchestrator and process base class."""

import pytest

from repro.sim.process import Process
from repro.sim.simulation import Simulation, SimulationError


class Echo(Process):
    """Replies 'pong' to every 'ping'."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))
        if message == "ping":
            self.send(sender, "pong")


class TestScheduling:
    def test_clock_advances_with_events(self):
        sim = Simulation(seed=1)
        times = []
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        # schedule() is relative to the time at the moment of scheduling
        # (both were scheduled at t=0), so the second fires at 3.5.
        assert times == [1.0, 3.5]

    def test_schedule_at_absolute(self):
        sim = Simulation(seed=1)
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulation(seed=1)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        # Relative-delay validation is hoisted out of the per-message fast
        # path: a negative delay is a caller bug caught by a debug-mode
        # assert (delay models validate their parameters at construction).
        with pytest.raises(AssertionError):
            sim.schedule(-1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulation(seed=1)
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(2.0, lambda: order.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == [("outer", 1.0), ("inner", 3.0)]

    def test_cancel_event(self):
        sim = Simulation(seed=1)
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_run_max_time_stops_early(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(2))
        sim.run(max_time=10.0)
        assert fired == [1]

    def test_run_max_events_guard(self):
        sim = Simulation(seed=1)

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_until_predicate(self):
        sim = Simulation(seed=1)
        state = {"done": False}
        sim.schedule(5.0, lambda: state.update(done=True))
        sim.schedule(1.0, lambda: None)
        sim.run_until(lambda: state["done"])
        assert sim.now == 5.0

    def test_run_until_queue_drained_raises(self):
        sim = Simulation(seed=1)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False)

    def test_run_until_max_time_raises(self):
        sim = Simulation(seed=1)

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, max_time=50.0)

    def test_spawn_rng_deterministic(self):
        a = Simulation(seed=7).spawn_rng().integers(0, 1000)
        b = Simulation(seed=7).spawn_rng().integers(0, 1000)
        assert a == b


class TestProcessRegistry:
    def test_duplicate_pid_rejected(self):
        sim = Simulation(seed=1)
        sim.add_process(Echo("a"))
        with pytest.raises(ValueError):
            sim.add_process(Echo("a"))

    def test_add_processes_bulk(self):
        sim = Simulation(seed=1)
        procs = sim.add_processes([Echo("a"), Echo("b")])
        assert len(procs) == 2
        assert set(sim.processes) == {"a", "b"}

    def test_get_unknown_process(self):
        sim = Simulation(seed=1)
        assert sim.get_process("nope") is None

    def test_unattached_process_cannot_send(self):
        p = Echo("lonely")
        with pytest.raises(RuntimeError):
            p.send("anyone", "hello")


class TestMessaging:
    def test_ping_pong(self):
        sim = Simulation(seed=3)
        a, b = sim.add_processes([Echo("a"), Echo("b")])
        sim.schedule(0.0, lambda: a.send("b", "ping"))
        sim.run()
        assert ("a", "ping") in b.received
        assert ("b", "pong") in a.received
        assert a.messages_sent == 1 and b.messages_sent == 1

    def test_crashed_process_does_not_send_or_receive(self):
        sim = Simulation(seed=3)
        a, b = sim.add_processes([Echo("a"), Echo("b")])
        b.crash()
        sim.schedule(0.0, lambda: a.send("b", "ping"))
        sim.run()
        assert b.received == []
        assert a.received == []
        assert sim.network.stats.messages_dropped == 1

    def test_sender_crash_after_send_still_delivers(self):
        """The channel model: delivery only depends on the destination."""
        sim = Simulation(seed=3)
        a, b = sim.add_processes([Echo("a"), Echo("b")])

        def send_and_crash():
            a.send("b", "ping")
            a.crash()

        sim.schedule(0.0, send_and_crash)
        sim.run()
        assert ("a", "ping") in b.received
        # The pong back to the crashed sender is dropped.
        assert a.received == []

    def test_timer_fires_unless_crashed(self):
        sim = Simulation(seed=3)
        a, b = sim.add_processes([Echo("a"), Echo("b")])
        fired = []
        sim.schedule(0.0, lambda: a.set_timer(1.0, lambda: fired.append("a")))
        sim.schedule(0.0, lambda: b.set_timer(1.0, lambda: fired.append("b")))
        sim.schedule(0.5, b.crash)
        sim.run()
        assert fired == ["a"]

    def test_events_processed_counter(self):
        sim = Simulation(seed=3)
        sim.add_processes([Echo("a"), Echo("b")])
        sim.schedule(0.0, lambda: sim.get_process("a").send("b", "ping"))
        sim.run()
        assert sim.events_processed >= 3  # send trigger + 2 deliveries


class TestEventHook:
    def test_event_hook_observes_every_event(self):
        sim = Simulation(seed=1)
        fired = []
        sim.event_hook = lambda ev: fired.append((ev.time, ev.seq, ev.label))
        sim.schedule(1.0, lambda: None, label="one")
        sim.schedule(2.0, lambda: None, label="two")
        sim.run()
        assert [(t, lbl) for t, _, lbl in fired] == [(1.0, "one"), (2.0, "two")]
        assert fired[0][1] < fired[1][1]
