"""The checker call path: an operation is checked where it is recorded.

A checker subscribed to a cluster's recorder is called inside the
``invoke()`` / ``respond()`` that records each operation, under every
driver — there is no drain between the record and its crossing test, so
an observer subscribed *after* the checker already finds the verdict on
the record it is handed.  The injected violation is a stale read: a
crossing, the one test the deleted drain batcher used to park.
"""

import pytest

from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import (
    READ,
    WRITE,
    StreamingRecorder,
    StreamObserver,
)
from repro.runtime.namespace import MultiRegisterCluster
from repro.workloads.arrivals import parse_arrival
from repro.workloads.keyed import KeyDistribution

PROTOCOLS = {
    "ABD": {},
    "CAS": {},
    "CASGC": {"delta": 4},
    "SODA": {},
    "SODAerr": {"e": 1},
}
SHAPE = dict(num_writers=2, num_readers=2, seed=5)
OPERATIONS = 90
STALE = "stale-read"


class _AfterTheChecker(StreamObserver):
    """What the checker had done by the time the recording call moved on
    to the next observer."""

    def __init__(self, checker):
        self.checker = checker
        self.invokes = 0
        self.behind = 0
        self.written = []
        self.stale_flagged = None

    def on_invoke(self, record):
        self.invokes += 1
        self.behind += self.checker.ops_seen != self.invokes

    def on_complete(self, record):
        if record.kind == WRITE:
            self.written.append(record.value)
        elif record.op_id == STALE:
            self.stale_flagged = not self.checker.ok


def _checked_recorder():
    recorder = StreamingRecorder(window=64)
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    return recorder, recorder.subscribe(_AfterTheChecker(checker))


def _inject_stale_read_mid_run(sim, recorder, after):
    """One simulator event, while traffic is in flight, records a read of
    the first value written — overwritten several times since."""
    seen = {}

    def inject():
        seen["completed_before"] = recorder.completed_count
        seen["overwrites"] = len(after.written) - 1
        seen["ok_before"] = after.checker.ok
        recorder.invoke(STALE, READ, "intruder", sim.now)
        recorder.respond(STALE, sim.now, value=after.written[0])

    sim.schedule(25.0, inject)
    return seen


def _assert_injected_mid_run(seen, completed):
    assert 0 < seen["completed_before"] < completed
    assert seen["overwrites"] >= 2 and seen["ok_before"]


def _streamed(cluster):
    return cluster.run_streamed(
        operations=OPERATIONS, value_size=48, mean_gap=0.5, seed=9
    )


def _open_loop(cluster):
    return cluster.run_open_loop(
        operations=OPERATIONS,
        arrival=parse_arrival("poisson:2"),
        read_fraction=0.5,
        value_size=48,
        seed=9,
    )


@pytest.mark.parametrize("drive", [_streamed, _open_loop])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_record_is_checked_inside_the_recording_call(protocol, drive):
    recorder, after = _checked_recorder()
    cluster = make_cluster(
        protocol, 6, 2, recorder=recorder, **SHAPE, **PROTOCOLS[protocol]
    )
    seen = _inject_stale_read_mid_run(cluster.sim, recorder, after)
    stats = drive(cluster)

    # The stale read is the one record the driver did not issue.
    assert stats.completed == recorder.completed_count - 1 >= OPERATIONS - 5
    _assert_injected_mid_run(seen, stats.completed)
    checker = after.checker
    assert checker.ops_seen == recorder.invoked_count > stats.completed
    assert after.behind == 0
    assert after.stale_flagged is True
    assert checker.violations[0].kind == "cluster-cycle"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_namespace_objects_are_each_checked_at_the_record(protocol):
    pairs = [_checked_recorder() for _ in range(3)]
    cluster = MultiRegisterCluster(
        protocol,
        6,
        2,
        objects=3,
        recorder_factory=lambda index: pairs[index][0],
        protocol_kwargs=PROTOCOLS[protocol],
        **SHAPE,
    )
    victim = 1
    seen = _inject_stale_read_mid_run(cluster.sim, *pairs[victim])
    stats = cluster.run_streamed(
        operations=3 * OPERATIONS,
        key_dist=KeyDistribution.uniform(),
        value_size=48,
        mean_gap=0.5,
        seed=9,
    )

    assert stats.completed == 3 * OPERATIONS
    _assert_injected_mid_run(seen, stats.allocation[victim])
    for index, (recorder, after) in enumerate(pairs):
        injected = index == victim
        assert after.checker.ops_seen == recorder.invoked_count
        assert recorder.invoked_count == stats.allocation[index] + injected
        assert after.behind == 0
        assert after.stale_flagged is (True if injected else None)
        assert after.checker.ok is not injected
