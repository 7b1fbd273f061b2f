"""The compiled run loop and the Python loop make the same execution.

Every scenario runs twice from the same seed, once under each loop of
``Simulation.run``, and everything a run leaves behind must be equal: the
history, the network's counters, ``events_processed``, the clock (its type
included: an ``int`` time stays an ``int``), every message-disperse
engine's ``pending_copies``, the heap entry for entry in list order and its
cancelled count, and the exception a run ends with.  The scenarios cover
what takes the loop off its straight path: crashes, cancelled events,
open-loop timeouts, an adversary (message records on), a wrapped
``deliver``, integer times, ``max_time`` stops, an exhausted event budget,
a handler that raises and one that runs the simulation itself.
"""

import dataclasses

import pytest

from repro.baselines.registry import default_kwargs, make_cluster
from repro.sim import simulation
from repro.sim.network import FixedDelay
from repro.sim.process import Process
from repro.sim.run_loop import LOOP
from repro.sim.simulation import EventBudgetExceeded, Simulation
from repro.workloads.arrivals import parse_arrival

pytestmark = pytest.mark.skipif(
    LOOP.availability_error() is not None,
    reason=f"compiled run loop unavailable: {LOOP.availability_error()}",
)

PROTOCOLS = ("ABD", "CAS", "CASGC", "SODA", "SODAerr")
_RESOLVE = simulation._compiled_loop


def _state(sim, cluster=None, raised=None):
    state = {
        "stats": dataclasses.astuple(sim.network.stats),
        "events": sim.events_processed,
        "now": (type(sim.now), sim.now),
        "heap": [entry[:2] for entry in sim._queue._heap],
        "cancelled": sim._queue._cancelled,
        "raised": None if raised is None else (type(raised), str(raised)),
    }
    if cluster is not None:
        state["history"] = [
            (r.op_id, r.kind, r.client, r.invoked_at, r.responded_at, r.value,
             r.tag, r.failed)
            for r in cluster.history.operations()
        ]
        state["pending"] = [
            server._md_engine.pending_copies
            for server in cluster.servers
            if hasattr(server, "_md_engine")
        ]
    return state


def _under_both_loops(monkeypatch, scenario):
    """``scenario()`` under the compiled loop, then under the Python one."""
    compiled, runs = _RESOLVE(), []
    assert compiled is not None

    def counted(*args):
        runs.append(args)
        return compiled(*args)

    states = []
    for loop in (counted, None):
        monkeypatch.setattr(simulation, "_compiled_loop", lambda: loop)
        states.append(scenario())
    assert runs, "the scenario never reached the compiled loop"
    compiled_state, python_state = states
    assert compiled_state == python_state, "the compiled and the Python loop diverged"
    return compiled_state


def _raising(run):
    try:
        run()
    except Exception as exc:  # the exception is part of the execution
        return exc
    return None


def _cluster(protocol, **kwargs):
    kwargs.setdefault("num_writers", 2)
    kwargs.setdefault("num_readers", 2)
    n, f = (8, 2) if protocol == "SODAerr" else (6, 2)
    return make_cluster(protocol, n, f, seed=7, **default_kwargs(protocol), **kwargs)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "faults",
    [None, "crash:2:3:10", "crash:1:2:12;withhold:1:3:6;partition:1:5:4"],
    ids=["fault-free", "crashes", "crashes-and-adversary"],
)
def test_closed_loop_runs_are_identical(monkeypatch, protocol, faults):
    def scenario():
        cluster = _cluster(protocol)
        if faults:
            cluster.apply_fault_plan(faults, seed=3)
        cluster.run_streamed(operations=60, mean_gap=0.25, seed=3)
        return _state(cluster.sim, cluster)

    state = _under_both_loops(monkeypatch, scenario)
    assert len(state["history"]) >= 60
    if faults and "withhold" in faults:
        assert state["stats"][2] > 0  # the adversary dropped messages


def check_soda_runs_are_identical():
    """SODA's closed loop, fault-free and under crashes: the compiled loop
    counts its message-disperse later copies down itself, so this is the
    kill check of the loop's C-source mutants."""
    for faults in (None, "crash:2:3:10"):
        with pytest.MonkeyPatch.context() as patch:
            test_closed_loop_runs_are_identical(patch, "SODA", faults)


@pytest.mark.parametrize("protocol", ("ABD", "SODA"))
def test_open_loop_timeouts_are_identical(monkeypatch, protocol):
    def scenario():
        cluster = _cluster(protocol, num_writers=1, num_readers=1)
        stats = cluster.run_open_loop(
            operations=80, arrival=parse_arrival("poisson:6"), seed=5,
            op_timeout=1.0, policy="drop", queue_per_server=1,
        )
        return _state(cluster.sim, cluster), dataclasses.astuple(stats)

    _under_both_loops(monkeypatch, scenario)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_wrapped_deliver_and_cancelled_timers(monkeypatch, protocol):
    """One server's ``deliver`` is wrapped (its messages leave the inline
    path), and timers are scheduled and cancelled around the run, some by
    other timers as they fire."""

    def scenario():
        cluster = _cluster(protocol)
        sim = cluster.sim
        server = cluster.servers[1]
        seen = []

        class Wrapped(type(server)):
            def deliver(self, sender, message):
                seen.append(type(message).__name__)
                super().deliver(sender, message)

        server.__class__ = Wrapped
        fired = []
        timers = [sim.schedule(0.37 * i, lambda i=i: fired.append(i)) for i in range(40)]
        for timer in timers[::3]:
            sim.cancel(timer)
        for i in range(1, 40, 7):
            sim.schedule(0.37 * i - 0.1, lambda i=i: sim.cancel(timers[i + 1]))
        cluster.run_streamed(operations=40, mean_gap=0.25, seed=4)
        return _state(sim, cluster), seen, fired

    _, seen, fired = _under_both_loops(monkeypatch, scenario)
    assert seen and 0 < len(fired) < 40


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_int_times_and_max_time_stops(monkeypatch, protocol):
    """Operations scheduled at ``int`` times, then ``int`` and ``float``
    ``max_time`` stops: the state after every stop, heap layout included."""

    def scenario():
        cluster = _cluster(protocol, delay_model=FixedDelay(1))
        for i in range(6):
            cluster.schedule_write(2 * i, b"v%d" % i, writer=i % 2)
            cluster.schedule_read(2 * i + 1, reader=i % 2)
        states = []
        for stop in (3, 5.5, 7, 9.25):
            cluster.run(max_time=stop)
            states.append(_state(cluster.sim, cluster))
        cluster.run()
        states.append(_state(cluster.sim, cluster))
        return states

    states = _under_both_loops(monkeypatch, scenario)
    assert states[0]["heap"] and not states[-1]["heap"]
    assert states[0]["now"][0] is int


@pytest.mark.parametrize("protocol", ("CAS", "SODA"))
def test_an_exhausted_budget_is_identical(monkeypatch, protocol):
    def scenario():
        cluster = _cluster(protocol)
        for i in range(4):
            cluster.schedule_write(0.5 * i, b"w%d" % i, writer=i % 2)
            cluster.schedule_read(0.5 * i + 0.2, reader=i % 2)
        raised = _raising(lambda: cluster.run(max_events=257))
        first = _state(cluster.sim, cluster, raised)
        cluster.run()
        return first, _state(cluster.sim, cluster)

    first, last = _under_both_loops(monkeypatch, scenario)
    assert first["raised"][0] is EventBudgetExceeded and first["events"] == 258
    assert not last["heap"]


class Relay(Process):
    """Passes a counter around a ring; raises at ``fail_at``."""

    def __init__(self, pid, ring, fail_at):
        super().__init__(pid)
        self.ring, self.fail_at = ring, fail_at
        self.handlers = {int: self.on_count}

    def on_count(self, count):
        if count == self.fail_at:
            raise ValueError(f"handler failed at {count}")
        self.send((self.pid + 1) % self.ring, count + 1)

    def on_message(self, sender, message):
        if message < 5:
            self.send(sender, message + 1)


def test_a_raising_handler_leaves_the_same_state(monkeypatch):
    def scenario():
        sim = Simulation(seed=2)
        for pid in range(3):
            sim.add_process(Relay(pid, 3, fail_at=50))
        sim.network.send(0, 1, 0)
        sim.network.send(2, 0, 0.0)  # not in the handler table: on_message
        raised = _raising(sim.run)
        first = _state(sim, raised=raised)
        raised = _raising(sim.run)
        return first, _state(sim, raised=raised)

    first, last = _under_both_loops(monkeypatch, scenario)
    assert first["raised"] == (ValueError, "handler failed at 50")
    assert last["raised"] is None and not last["heap"]


class NestedRelay(Relay):
    """A ``Relay`` whose handler runs the simulation itself at count 20 (and
    stops relaying at 40)."""

    def on_count(self, count):
        if count < 40:
            super().on_count(count)
        if count == 20:
            self.sim.run()


@pytest.mark.parametrize("fail_at", [30, 99], ids=["raises-inside", "drains-inside"])
def test_a_handler_that_runs_the_simulation_itself(monkeypatch, fail_at):
    """The inner run moves the clock under the outer one; the outer one
    must leave it where the inner one did, on error and on quiescence."""

    def scenario():
        sim = Simulation(seed=4)
        for pid in range(3):
            sim.add_process(NestedRelay(pid, 3, fail_at=fail_at))
        sim.network.send(0, 1, 0)
        raised = _raising(sim.run)
        return _state(sim, raised=raised)

    state = _under_both_loops(monkeypatch, scenario)
    assert state["events"] > 30 and not state["heap"]
    assert (state["raised"] is None) == (fail_at == 99)
