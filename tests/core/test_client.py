"""The register-client lifecycle (:mod:`repro.core.client`), checked once for
all five protocols: op ids, one operation at a time, no start after a crash,
a crash failing the in-flight operation once, and the invocation / response
steps recorded around the protocol's sends (Section II's well-formed
clients).  Also the checks that kill the client mutants of
``tests/mutants/clients.py``, and a guard that the lifecycle stays in one
place.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.baselines.registry import available_protocols, default_kwargs, make_cluster
from repro.consistency.incremental import check_history_incrementally
from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.stream import StreamObserver
from repro.consistency.wgl import check_linearizability
from repro.core.client import RegisterClient
from repro.core.tags import TAG_ZERO
from repro.sim.network import FixedDelay

PROTOCOLS = available_protocols()


def _cluster(protocol, **kwargs):
    return make_cluster(protocol, 5, 2, seed=7, **default_kwargs(protocol), **kwargs)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_op_ids_count_each_clients_operations(protocol):
    cluster = _cluster(protocol, num_writers=2)
    ops = [
        cluster.write(b"a", writer=1),
        cluster.read(),
        cluster.write(b"b", writer=1),
        cluster.write(b"c", writer=0),
        cluster.read(),
    ]
    assert [op.op_id for op in ops] == [
        "write:w1:1",
        "read:r0:1",
        "write:w1:2",
        "write:w0:1",
        "read:r0:2",
    ]
    assert ops[-1].value == b"c"
    for client in (*cluster.writers.values(), *cluster.readers.values()):
        assert isinstance(client, RegisterClient)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_one_operation_at_a_time(protocol):
    cluster = _cluster(protocol)
    writer, reader = cluster.writer(), cluster.reader()
    writer.start_write(b"first")
    reader.start_read()
    assert writer.busy and reader.busy
    with pytest.raises(RuntimeError, match="w0 already has write:w0:1 in flight"):
        writer.start_write(b"second")
    with pytest.raises(RuntimeError, match="r0 already has read:r0:1 in flight"):
        reader.start_read()
    cluster.run()
    assert not writer.busy and not reader.busy
    assert len(cluster.history) == 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_crashed_client_starts_nothing(protocol):
    cluster = _cluster(protocol)
    cluster.writer().crash()
    cluster.reader().crash()
    with pytest.raises(RuntimeError, match="w0 has crashed"):
        cluster.writer().start_write(b"x")
    with pytest.raises(RuntimeError, match="r0 has crashed"):
        cluster.reader().start_read()
    assert len(cluster.history) == 0


class _Failures(StreamObserver):
    def __init__(self):
        self.failed = []

    def on_failed(self, record):
        self.failed.append(record.op_id)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_crash_fails_the_operation_in_flight_once(protocol):
    cluster = _cluster(protocol)
    failures = cluster.history.subscribe(_Failures())
    cluster.write(b"done before the crash")
    op_id = cluster.writer().start_write(b"in flight")
    cluster.run(max_time=cluster.sim.now + 0.5)  # mid-protocol
    assert cluster.writer().busy
    cluster.writer().crash()
    cluster.writer().crash()
    cluster.reader().crash()  # idle: nothing to fail
    cluster.run()
    assert failures.failed == [op_id]
    assert cluster.history.get(op_id).failed
    assert not cluster.history.get("write:w0:1").failed


class _Steps(StreamObserver):
    """One log of sends, invocations and responses, in the order they happen."""

    def __init__(self, cluster):
        self.log = []
        cluster.sim.network.on_send(lambda msg: self.log.append(("send", msg.src)))
        cluster.history.subscribe(self)

    def on_invoke(self, record):
        self.log.append(("invoke", record.client))

    def on_complete(self, record):
        self.log.append(("respond", record.client))

    def of(self, pid):
        return [step for step, who in self.log if who == pid]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_invocation_before_the_first_send_response_after_the_last(protocol):
    cluster = _cluster(protocol)
    steps = _Steps(cluster)
    cluster.write(b"v")
    cluster.read()
    cluster.run()
    for pid in ("w0", "r0"):
        log = steps.of(pid)
        assert log[0] == "invoke" and log[-1] == "respond", (pid, log)
        assert log.count("invoke") == log.count("respond") == 1
        assert set(log[1:-1]) == {"send"}


# ----------------------------------------------------------------------
# the checks that kill the client mutants (tests/mutants/clients.py), the
# stale-tag server (tests/mutants/soda_server.py) and the tagless decoder
# cache (tests/mutants/decoder.py)
# ----------------------------------------------------------------------
def _write_then_read(protocol):
    cluster = _cluster(protocol)
    cluster.write(b"overwritten")
    # A second write by the same writer strictly after the first's response
    # must be stored under a tag above the first's ...
    cluster.schedule_write(cluster.sim.now + 1.0, b"written")
    cluster.run()
    # ... and strictly after its response, the read must return its value.
    cluster.schedule_read(cluster.sim.now + 1.0)
    cluster.run()
    return cluster


def _write_then_read_is_atomic(protocol):
    cluster = _write_then_read(protocol)
    verdict = check_history_incrementally(cluster.history, initial_value=b"")
    assert verdict.ok, [v.kind for v in verdict.violations]
    assert check_linearizability(cluster.history, initial_value=b"")


def check_soda_write_then_read():
    _write_then_read_is_atomic("SODA")


def check_soda_write_then_read_tags():
    """The same scenario through the tags: Lemma 2.1's P1-P3 hold."""
    history = _write_then_read("SODA").history
    violations = check_lemma_properties(history, initial_tag=TAG_ZERO, initial_value=b"")
    assert violations == [], [v.kind for v in violations]


def check_cas_write_then_read():
    _write_then_read_is_atomic("CAS")


def check_cas_write_then_read_tags():
    """The same scenario through CAS's tags: Lemma 2.1's P1-P3 hold."""
    history = _write_then_read("CAS").history
    violations = check_lemma_properties(history, initial_tag=TAG_ZERO, initial_value=b"")
    assert violations == [], [v.kind for v in violations]


def _read_write_read():
    """One reader reads, a write completes, the reader reads again, each
    operation strictly after the last: the second read must return the
    second value (``TaglessCachedDecoder`` serves it the first read's, which
    decoded from the same servers' elements: under equal delays every read
    hears from the same servers first)."""
    cluster = _cluster("SODA", delay_model=FixedDelay(1.0))
    cluster.write(b"first")
    for step in (
        lambda at: cluster.schedule_read(at),
        lambda at: cluster.schedule_write(at, b"second"),
        lambda at: cluster.schedule_read(at),
    ):
        step(cluster.sim.now + 1.0)
        cluster.run()
    return cluster


def check_soda_read_write_read():
    verdict = check_history_incrementally(_read_write_read().history, initial_value=b"")
    assert verdict.ok, [v.kind for v in verdict.violations]


def check_soda_read_write_read_tags():
    """The same scenario through the tags: Lemma 2.1's P1-P3 hold."""
    history = _read_write_read().history
    violations = check_lemma_properties(history, initial_tag=TAG_ZERO, initial_value=b"")
    assert violations == [], [v.kind for v in violations]


@pytest.mark.parametrize(
    "check",
    [
        check_soda_write_then_read,
        check_soda_write_then_read_tags,
        check_cas_write_then_read,
        check_cas_write_then_read_tags,
        check_soda_read_write_read,
        check_soda_read_write_read_tags,
    ],
)
def test_the_real_clients_pass_the_checks_that_kill_their_mutants(check):
    check()


# ----------------------------------------------------------------------
# the lifecycle lives in one place
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).resolve().parent
RECORDING = {"invoke", "respond", "mark_failed"}


def recording_calls(source: str) -> list:
    """Lines that call ``<sink>.invoke`` / ``.respond`` / ``.mark_failed``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in RECORDING
    )


def test_the_guard_sees_a_recording_call():
    source = "def f(self):\n    self.history.respond(op, now)\n    sink.invoke(op)\n"
    assert recording_calls(source) == [2, 3]


def test_only_the_client_base_records_operations():
    sources = sorted(
        path for pkg in ("core", "baselines") for path in (SRC / pkg).rglob("*.py")
    )
    assert SRC / "core" / "client.py" in sources
    recording = {
        str(path.relative_to(SRC))
        for path in sources
        if recording_calls(path.read_text())
    }
    assert recording == {"core/client.py"}
