"""The message path: heap-resident message entries, records only for
observers, ``send_many`` fan-out and the interception contract.

A message normally costs one heap tuple and one handler call; a
``MessageRecord`` exists only while something installed on the network
reads it.  These tests pin down that the two ways a message can travel are
indistinguishable from outside: same ``(time, seq)`` stream, same counters,
same costs.

The observed protocol runs also carry the check that stands where
``frozen=True`` stood on the message classes: no payload changes after it is
sent (``tests/sent_payloads.py``).
"""

from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sent_payloads import SentPayloads

import repro.sim.network as network_module
from repro.baselines.registry import make_cluster
from repro.metrics.costs import CommunicationCostTracker
from repro.sim.network import FixedDelay, Network, SlowDisk, UniformDelay
from repro.sim.process import Process
from repro.sim.simulation import Simulation


@dataclass(frozen=True)
class Payload:
    body: str
    data_units: float = 0.0
    op_id: object = None


class Sink(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []

    def on_message(self, sender, message):
        self.got.append((sender, message, self.now))


# ----------------------------------------------------------------------
# (a) fast path == observed path, through real protocols
# ----------------------------------------------------------------------
PROTOCOL_RUNS = {
    "SODA": dict(n=5, f=2),
    # One always-corrupting server, and a server crash mid-run (below).
    "SODAerr": dict(n=8, f=2, e=1, error_probability=1.0, error_prone_servers=(3,)),
    "CASGC": dict(n=5, f=1, delta=4),
    "ABD": dict(n=5, f=2),
}


def _protocol_run(protocol: str, *, observed: bool):
    kwargs = dict(PROTOCOL_RUNS[protocol])
    n, f = kwargs.pop("n"), kwargs.pop("f")
    cluster = make_cluster(
        protocol,
        n,
        f,
        num_writers=2,
        num_readers=2,
        seed=7,
        keep_message_trace=observed,
        **kwargs,
    )
    network = cluster.sim.network
    sends, delivers = [], []
    if observed:
        network.on_send(sends.append)
        network.on_deliver(delivers.append)
        payloads = SentPayloads(network)
    if protocol == "SODAerr":
        cluster.crash_server(0, at_time=40.0)
    stream = []
    cluster.sim.event_hook = lambda ev: stream.append((ev.time, ev.seq))
    stats = cluster.run_streamed(operations=120, value_size=48, seed=3)
    assert stats.completed == 120
    if observed:
        # Every message had a record, and every observer saw it.
        assert len(network.trace) == len(sends) == network.stats.messages_sent
        assert len(delivers) == network.stats.messages_delivered
        assert all(r.delivered_at is not None or r.dropped for r in network.trace)
        # ... and every payload is still what its sender sent.
        payloads.check()
    else:
        assert network.trace == []
    return dict(
        stream=stream,
        network=asdict(network.stats),
        cost_per_op=cluster.costs.costs(),
        end_time=cluster.sim.now,
        events=cluster.sim.events_processed,
        sent={pid: p.messages_sent for pid, p in cluster.sim.processes.items()},
    )


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_RUNS))
def test_fast_path_is_event_for_event_the_observed_path(protocol):
    fast = _protocol_run(protocol, observed=False)
    observed = _protocol_run(protocol, observed=True)
    assert len(fast["stream"]) > 1000
    assert fast["network"]["messages_dropped"] == observed["network"]["messages_dropped"]
    if protocol == "SODAerr":
        assert fast["network"]["messages_dropped"] > 0  # the crash happened mid-run
    for key in fast:
        assert fast[key] == observed[key], f"{protocol}: {key} differs"


def check_soda_payloads_unchanged():
    """The kill check of the mutant registry's payload-rewriting server."""
    _protocol_run("SODA", observed=True)


# ----------------------------------------------------------------------
# (b) send_many == a loop of sends
# ----------------------------------------------------------------------
class DropLegTo:
    """Drops every message addressed to one process."""

    def __init__(self, victim):
        self.victim = victim

    def intervene(self, record, delay, now):
        return delay, record.dst == self.victim


PIDS = [f"p{i}" for i in range(6)]

fanouts = st.lists(
    st.tuples(
        st.sampled_from(PIDS),  # sender
        st.lists(st.sampled_from(PIDS), max_size=7),  # destinations, repeats allowed
        st.sampled_from([0.0, 0.25, 1.0]),  # data units
        st.sampled_from([None, "op:a", "op:b"]),  # attribution
    ),
    min_size=1,
    max_size=12,
)

DELAY_MODELS = {
    "uniform": lambda: UniformDelay(0.1, 1.0),
    "fixed": lambda: FixedDelay(0.5),
    # Delays depend on the sender: no block sampling at all.
    "slowdisk": lambda: SlowDisk(UniformDelay(0.1, 1.0), ["p0", "p3"], jitter=0.5),
}


def _fanout_run(plan, *, many, model, crashed, adversary, extra_tracker):
    sim = Simulation(seed=11, delay_model=DELAY_MODELS[model]())
    tracker = CommunicationCostTracker().attach(sim.network)
    second = CommunicationCostTracker().attach(sim.network) if extra_tracker else None
    sinks = {pid: sim.add_process(Sink(pid)) for pid in PIDS}
    if adversary:
        sim.network.install_adversary(DropLegTo("p2"))
    for pid in crashed:
        sinks[pid].crash()
    for i, (src, dsts, units, op) in enumerate(plan):
        payload = Payload(f"m{i}", units, op)
        if many:
            sinks[src].send_many(dsts, payload)
        else:
            for dst in dsts:
                sinks[src].send(dst, payload)
    stream = []
    sim.event_hook = lambda ev: stream.append((ev.time, ev.seq))
    sim.run()
    return dict(
        stream=stream,
        got={pid: s.got for pid, s in sinks.items()},
        sent={pid: s.messages_sent for pid, s in sinks.items()},
        network=asdict(sim.network.stats),
        per_op=tracker.costs(),
        second=None if second is None else second.costs(),
        rng_next=float(sim.rng.uniform()),  # both drew the same number of delays
    )


@settings(max_examples=120, deadline=None)
@given(
    plan=fanouts,
    model=st.sampled_from(sorted(DELAY_MODELS)),
    crashed=st.sets(st.sampled_from(PIDS), max_size=2),
    adversary=st.booleans(),
    extra_tracker=st.booleans(),
    block=st.sampled_from([3, 4, 256]),
)
def test_send_many_equals_a_loop_of_sends(
    plan, model, crashed, adversary, extra_tracker, block
):
    # A small block makes the delay buffer run out *inside* a fan-out.
    saved = network_module.DELAY_BLOCK_SIZE
    network_module.DELAY_BLOCK_SIZE = block
    try:
        kwargs = dict(
            model=model, crashed=crashed, adversary=adversary, extra_tracker=extra_tracker
        )
        looped = _fanout_run(plan, many=False, **kwargs)
        fanned = _fanout_run(plan, many=True, **kwargs)
    finally:
        network_module.DELAY_BLOCK_SIZE = saved
    assert fanned == looped


def test_send_many_takes_the_one_pass_route_only_when_unobserved():
    """The equivalence above would hold trivially if send_many always
    looped; check it really pushes bare entries, and stops doing so the
    moment an observer is installed."""
    sim = Simulation(seed=1)
    a = sim.add_process(Sink("a"))
    sim.add_processes([Sink("b"), Sink("c")])
    a.send_many(["b", "c"], Payload("x"))
    assert [entry[6] for entry in sim._queue._heap] == [None, None]
    sim.network.on_deliver(lambda record: None)
    a.send_many(["b", "c"], Payload("y"))
    assert sum(entry[6] is not None for entry in sim._queue._heap) == 2
    sim.run()
    assert sim.network.stats.messages_delivered == 4


# ----------------------------------------------------------------------
# (c) interception contract
# ----------------------------------------------------------------------
class TappedSink(Sink):
    delivered = 0

    def deliver(self, sender, message):
        TappedSink.delivered += 1
        super().deliver(sender, message)


def test_a_subclass_overriding_deliver_sees_every_delivery():
    TappedSink.delivered = 0
    sim = Simulation(seed=5)
    procs = sim.add_processes([TappedSink(pid) for pid in PIDS])
    procs[1].crash()
    for i, p in enumerate(procs):
        p.send_many(PIDS, Payload(f"fan{i}"))
        p.send(PIDS[(i + 1) % len(PIDS)], Payload(f"one{i}"))
    sim.run()
    stats = sim.network.stats
    assert stats.messages_dropped > 0
    assert TappedSink.delivered == stats.messages_delivered
    assert sum(len(p.got) for p in procs) == stats.messages_delivered


def _soda_run():
    cluster = make_cluster("SODA", 5, 2, num_writers=2, num_readers=2, seed=9)
    cluster.run_streamed(operations=40, value_size=32, seed=2)
    return cluster


@pytest.mark.parametrize("install", ["before", "after"])
def test_class_level_wrappers_see_every_send_and_delivery(monkeypatch, install):
    """What ``bench/spans.py`` does: wrap ``Network.send`` and
    ``Process.deliver`` on the classes, before or after the cluster is
    built.  Every message must still pass through both."""
    calls = {"send": 0, "deliver": 0}
    plain_send, plain_deliver = Network.send, Process.deliver

    def counted_send(self, src, dst, payload):
        calls["send"] += 1
        return plain_send(self, src, dst, payload)

    def counted_deliver(self, sender, message):
        calls["deliver"] += 1
        return plain_deliver(self, sender, message)

    def patch():
        monkeypatch.setattr(Network, "send", counted_send)
        monkeypatch.setattr(Process, "deliver", counted_deliver)

    if install == "before":
        patch()
    cluster = make_cluster("SODA", 5, 2, num_writers=2, num_readers=2, seed=9)
    if install == "after":
        patch()
    cluster.run_streamed(operations=40, value_size=32, seed=2)
    stats = cluster.sim.network.stats
    assert calls["send"] == stats.messages_sent > 1000
    assert calls["deliver"] == stats.messages_delivered > 1000
    monkeypatch.undo()
    # ... and intercepting changed nothing.
    plain = _soda_run()
    assert asdict(plain.sim.network.stats) == asdict(stats)
    assert plain.sim.now == cluster.sim.now


# ----------------------------------------------------------------------
# (d) step() and run_until() deliver message entries too
# ----------------------------------------------------------------------
def _echo_sim():
    sim = Simulation(seed=4)
    sinks = sim.add_processes([Sink(pid) for pid in PIDS])
    sinks[2].crash()
    for i, sink in enumerate(sinks):
        sink.send_many(PIDS, Payload(f"m{i}", 0.5, f"op{i}"))
    stream = []
    sim.event_hook = lambda ev: stream.append((ev.time, ev.seq))
    return sim, sinks, stream


def test_step_and_run_until_deliver_like_run():
    sim, sinks, stream = _echo_sim()
    sim.run()
    expected = (stream, [s.got for s in sinks], asdict(sim.network.stats))

    sim, sinks, stream = _echo_sim()
    while sim.step():
        pass
    assert (stream, [s.got for s in sinks], asdict(sim.network.stats)) == expected

    sim, sinks, stream = _echo_sim()
    sim.run_until(lambda: len(sim._queue) == 0)
    assert (stream, [s.got for s in sinks], asdict(sim.network.stats)) == expected


def test_single_operations_run_on_run_until():
    cluster = make_cluster("SODA", 5, 2, seed=1)
    cluster.write(b"through run_until")
    assert cluster.read().value == b"through run_until"
    assert cluster.sim.network.stats.messages_delivered > 0


def test_event_hook_sees_a_fireable_event_for_a_message():
    sim = Simulation(seed=1, keep_message_trace=True)
    sim.add_processes([Sink("a"), Sink("b")])
    sim.get_process("a").send("b", Payload("hello"))
    seen = []
    sim.event_hook = seen.append
    sim.run()
    (event,) = seen
    assert event.label == "deliver Payload a->b"
    assert (event.time, event.seq) == (sim.now, 0)


# ----------------------------------------------------------------------
# Process.send on an unattached process
# ----------------------------------------------------------------------
def test_unattached_send_raises_before_counting():
    loner = Sink("loner")
    with pytest.raises(RuntimeError, match="not attached"):
        loner.send("nobody", Payload("x"))
    with pytest.raises(RuntimeError, match="not attached"):
        loner.send_many(["nobody", "nobody else"], Payload("x"))
    assert loner.messages_sent == 0
