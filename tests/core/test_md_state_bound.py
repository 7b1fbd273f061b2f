"""The message-disperse engines keep a message id only while copies of it
are still due (the no-state-bloat property, Theorem 3.2, for ids as well
as for values).

The relay topology fixes how many copies of one md-send can reach a server:
``j + 1`` at position ``j`` of the dispersal set (the sender's and one relay
from each earlier dispersal server), ``f + 1`` outside it.  A tap on
``Process.deliver`` counts the copies actually handed to each server and the
deliveries the engine made of them, and the tests hold the engines' pending
map against those counts: empty after any fault-free run, and after a
faulty one holding exactly the sends that lost a copy, with the number lost.
"""

from collections import Counter
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from exponential_delay import ExponentialDelay

from repro.baselines.registry import make_cluster
from repro.core.message_disperse import MDSender, MDServerEngine
from repro.core.messages import MDMeta, MDValueCoded, MDValueFull
from repro.core.tags import Tag
from repro.erasure.rs import ReedSolomonCode
from repro.sim.network import DelayModel, FixedDelay, UniformDelay
from repro.sim.process import Process
from repro.sim.simulation import Simulation

MD_TYPES = (MDValueFull, MDValueCoded, MDMeta)

DELAY_MODELS = {
    "fixed": lambda: FixedDelay(0.5),
    "uniform": lambda: UniformDelay(0.1, 1.0),
    "exponential": lambda: ExponentialDelay(mean=0.7),
}

#: ``[n, f]`` with ``f <= (n - 1) / 2``, down to the degenerate ``f = 0``.
shapes = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (n - 1) // 2))
)


class CopyTap:
    """Counts, per ``(server, mid)``, the copies ``Process.deliver`` handed to
    a live server and the md-deliver callbacks its engine fired for them."""

    def __init__(self, engines, f):
        self.engines = dict(engines)  # pid -> MDServerEngine, in server order
        self.expected = {
            pid: min(position, f) + 1 for position, pid in enumerate(self.engines)
        }
        self.copies = Counter()
        self.delivered = Counter()
        self._current = None
        for engine in self.engines.values():
            for name in ("_on_value_deliver", "_on_meta_deliver"):
                setattr(engine, name, self._counting(getattr(engine, name)))

    def __enter__(self):
        """Tap ``Process.deliver`` (the run loop re-resolves it per run)."""
        self._deliver = deliver = Process.deliver
        tap = self

        def tapped(process, sender, message):
            if type(message) in MD_TYPES and not process.is_crashed:
                key = (process.pid, message.mid)
                tap.copies[key] += 1
                assert tap.copies[key] <= tap.expected[process.pid], (
                    f"more copies than the relay topology produces: {key}"
                )
                tap._current = key
            deliver(process, sender, message)
            tap._current = None

        Process.deliver = tapped
        return self

    def __exit__(self, *exc_info):
        Process.deliver = self._deliver

    def _counting(self, callback):
        def counted(*args):
            self.delivered[self._current] += 1
            callback(*args)

        return counted

    def check(self):
        """Exactly-once delivery, and the pending map against the copies."""
        assert set(self.delivered) == set(self.copies)
        twice = sorted(key for key, count in self.delivered.items() if count > 1)
        assert not twice, f"delivered more than once: {twice[:3]}"
        pending = {pid: engine.pending_copies for pid, engine in self.engines.items()}
        for (pid, mid), copies in self.copies.items():
            assert pending[pid].get(mid, 0) == self.expected[pid] - copies, (
                f"pending_copies of {pid} holds {pending[pid].get(mid, 0)} for "
                f"{mid}, {self.expected[pid] - copies} copies are still due"
            )
        for pid, held in pending.items():
            assert all((pid, mid) in self.copies for mid in held)
        return pending


# ----------------------------------------------------------------------
# the primitives alone
# ----------------------------------------------------------------------
class EngineServer(Process):
    def __init__(self, pid, index, server_ids, f, code, engine=MDServerEngine):
        super().__init__(pid)
        self.engine = engine(
            server=self,
            server_index=index,
            servers_in_order=server_ids,
            f=f,
            code=code,
            on_value_deliver=lambda *delivery: None,
            on_meta_deliver=lambda *delivery: None,
        )
        self.handlers = self.engine.handler_map()


class Client(Process):
    def on_message(self, sender, message):
        pass


def _engines(n, f, seed, delay):
    """``n`` bare engine servers and a client on one simulation."""
    sim = Simulation(seed=seed, delay_model=DELAY_MODELS[delay]())
    code = ReedSolomonCode(n, n - f)
    server_ids = [f"s{i}" for i in range(n)]
    servers = [
        EngineServer(pid, i, server_ids, f, code) for i, pid in enumerate(server_ids)
    ]
    sim.add_processes(servers)
    client = sim.add_process(Client("c"))
    return sim, servers, client


def _disperse(n, f, seed, delay, sends):
    """``sends`` md-sends, alternately MD-VALUE and MD-META, from a client
    and from every server in turn, at staggered times."""
    sim, servers, client = _engines(n, f, seed, delay)
    server_ids = [server.pid for server in servers]
    tap = CopyTap({server.pid: server.engine for server in servers}, f)
    senders = [MDSender(process, server_ids, f) for process in (client, *servers)]
    mids = []

    def send(i):
        sender = senders[i % len(senders)]
        if i % 2:
            mids.append(sender.md_meta_send(("meta", i), op_id=f"op{i}"))
        else:
            mids.append(
                sender.md_value_send(Tag(i + 1, "c"), b"value %d" % i, op_id=f"op{i}")
            )

    for i in range(sends):
        sim.schedule(0.3 * i, partial(send, i))
    with tap:
        sim.run()
    return tap, servers, mids


@settings(max_examples=60, deadline=None)
@given(
    shape=shapes,
    seed=st.integers(0, 2**16),
    delay=st.sampled_from(sorted(DELAY_MODELS)),
    sends=st.integers(1, 12),
)
def test_fault_free_run_leaves_no_message_id_behind(shape, seed, delay, sends):
    n, f = shape
    tap, servers, mids = _disperse(n, f, seed, delay, sends)
    pending = tap.check()
    assert all(held == {} for held in pending.values())
    # Every md-send reached every server, in exactly its expected copies.
    assert len(set(mids)) == sends
    assert tap.copies == {
        (server.pid, mid): tap.expected[server.pid]
        for server in servers
        for mid in mids
    }


def test_position_zero_and_f_zero_store_nothing_even_mid_run():
    """A server that can only ever get one copy never has an entry: position
    0 of the dispersal set, and every server when ``f = 0``."""
    sizes = []
    for n, f in ((5, 2), (4, 0)):
        sim, servers, client = _engines(n, f, seed=1, delay="uniform")
        sender = MDSender(client, [server.pid for server in servers], f)
        single_copy = servers[:1] if f else servers
        sim.event_hook = lambda event: sizes.extend(
            len(server.engine.pending_copies) for server in single_copy
        )
        for i in range(6):
            sim.schedule(0.2 * i, partial(sender.md_meta_send, i, op_id="op"))
        sim.run()
        assert sim.events_processed > 6
    assert set(sizes) == {0}


class SenderSlowToTheFirst(DelayModel):
    """The client's copies to the first ``f`` dispersal servers take 5.0,
    every other message 0.5."""

    def __init__(self, slow):
        self.slow = set(slow)

    def sample(self, src, dst, rng):
        return 5.0 if src == "c" and dst in self.slow else 0.5


def check_md_meta_is_uniform_after_f_crashes():
    """Mutant kill (``ShortMetaRelayEngine``): ``[5, 2]``, one md-meta-send
    whose copy reaches the last dispersal server ``s2`` first; ``s0`` and
    ``s1`` crash before theirs arrive.  ``s2`` delivered, so every live
    server must (uniformity, Theorem 3.1), and the outside servers hold
    exactly the two copies the crashes took.  The engine is the one SODA
    servers are built from."""
    from repro.core.soda import server as soda_server

    n, f = 5, 2
    server_ids = [f"s{i}" for i in range(n)]
    sim = Simulation(seed=0, delay_model=SenderSlowToTheFirst(server_ids[:f]))
    code = ReedSolomonCode(n, n - f)
    servers = [
        EngineServer(pid, i, server_ids, f, code, engine=soda_server.MDServerEngine)
        for i, pid in enumerate(server_ids)
    ]
    delivered = {server.pid: [] for server in servers}
    for server in servers:
        server.engine._on_meta_deliver = (
            lambda payload, origin, op_id, pid=server.pid: delivered[pid].append(payload)
        )
    sim.add_processes(servers)
    client = sim.add_process(Client("c"))
    mid = MDSender(client, server_ids, f).md_meta_send("meta", op_id="op")
    for server in servers[:f]:
        sim.schedule(1.0, server.crash)
    sim.run()
    assert delivered["s2"] == ["meta"]
    for server in servers[f + 1 :]:
        assert delivered[server.pid] == ["meta"], (
            f"uniformity violated: {server.pid} never delivered {mid}, "
            f"which s2 delivered"
        )
        assert server.engine.pending_copies == {mid: f}


def test_the_real_engine_is_uniform_after_f_crashes():
    check_md_meta_is_uniform_after_f_crashes()


# ----------------------------------------------------------------------
# under SODA, with faults
# ----------------------------------------------------------------------
def _soda_run(n, f, seed, delay, faults, operations=60):
    cluster = make_cluster(
        "SODA",
        n,
        f,
        num_writers=2,
        num_readers=2,
        seed=seed,
        delay_model=DELAY_MODELS[delay](),
    )
    tap = CopyTap({server.pid: server._md_engine for server in cluster.servers}, f)
    with tap:
        if faults is not None:
            cluster.apply_fault_plan(faults, seed=seed + 1)
        cluster.run_streamed(operations=operations, mean_gap=0.25, seed=seed + 1)
    return cluster, tap


@settings(max_examples=15, deadline=None)
@given(
    shape=shapes.filter(lambda shape: shape[0] >= 3),
    seed=st.integers(0, 2**16),
    delay=st.sampled_from(sorted(DELAY_MODELS)),
)
def test_soda_fault_free_run_leaves_no_message_id_behind(shape, seed, delay):
    n, f = shape
    cluster, tap = _soda_run(n, f, seed, delay, faults=None)
    pending = tap.check()
    assert all(held == {} for held in pending.values())
    assert len(tap.copies) > 60 * n  # every operation dispersed something everywhere


def check_soda_delivers_each_md_send_once():
    """Mutant kill (``EarlyCountdownEngine``): a fault-free SODA [6, 2] run
    delivers every md-send exactly once at every server, so no server
    relays one twice."""
    _soda_run(6, 2, seed=3, delay="uniform", faults=None)[1].check()


def check_soda_drains_every_pending_copy():
    """Mutant kill (``LateCountdownEngine``): after a fault-free SODA
    [6, 2] run no server holds a pending entry."""
    cluster, tap = _soda_run(6, 2, seed=3, delay="uniform", faults=None)
    held = {pid: len(e.pending_copies) for pid, e in tap.engines.items()}
    assert not any(held.values()), f"pending_copies not drained: {held}"


def test_the_real_engine_passes_the_mutant_kills():
    check_soda_delivers_each_md_send_once()
    check_soda_drains_every_pending_copy()


@settings(max_examples=15, deadline=None)
@given(
    shape=shapes.filter(lambda shape: shape[1] >= 1),
    seed=st.integers(0, 2**16),
    delay=st.sampled_from(sorted(DELAY_MODELS)),
)
def test_faulty_run_keeps_exactly_the_sends_that_lost_a_copy(shape, seed, delay):
    """<= f crashes, a partition window and a withholding adversary: still
    delivered at most once everywhere, and a pending entry is a send some of
    whose copies a crash or a drop took, counting exactly those."""
    n, f = shape
    faults = f"crash:{f}:2:12;withhold:1:3:6;partition:1:5:4"
    cluster, tap = _soda_run(n, f, seed, delay, faults)
    tap.check()
    assert cluster.sim.network.stats.messages_dropped > 0


def test_sends_after_a_dispersal_server_crashed_keep_their_entries():
    """With s0 and s1 of [6, 2] down, s2 gets the sender's copy only (1 of
    3) and s3..s5 get s2's relay only (1 of 3): every later send keeps an
    entry there, which is what every send did before the countdown."""
    cluster = make_cluster("SODA", 6, 2, num_writers=2, num_readers=2, seed=4)
    cluster.crash_server(0, 0.0)
    cluster.crash_server(1, 0.0)
    tap = CopyTap({server.pid: server._md_engine for server in cluster.servers}, 2)
    with tap:
        stats = cluster.run_streamed(operations=40, mean_gap=0.25, seed=5)
    assert stats.completed == 40
    pending = tap.check()
    assert pending["s0"] == pending["s1"] == {}
    sends = {mid for _, mid in tap.copies}
    for pid in ("s2", "s3", "s4", "s5"):
        assert pending[pid] == dict.fromkeys(sends, 2)
