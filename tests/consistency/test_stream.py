"""Tests for the operation event stream: sinks, observers, bounded memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fuzz_checkers import FUZZ_FACTOR, build_history, checker_export, fuzz_seed

from repro.consistency.history import History
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.shardmerge import shard_verdict_from_checker
from repro.consistency.stream import (
    READ,
    RETIRED_BYTE_BUDGET,
    WRITE,
    CheckerBatcher,
    OperationRecord,
    StreamingRecorder,
    StreamObserver,
)


class _CollectingObserver(StreamObserver):
    def __init__(self):
        self.invoked = []
        self.completed = []
        self.failed = []

    def on_invoke(self, record):
        self.invoked.append(record.op_id)

    def on_complete(self, record):
        self.completed.append(record.op_id)

    def on_failed(self, record):
        self.failed.append(record.op_id)


class TestObserverDispatch:
    @pytest.mark.parametrize("sink_factory", [History, StreamingRecorder])
    def test_events_reach_observer(self, sink_factory):
        sink = sink_factory()
        observer = sink.subscribe(_CollectingObserver())
        sink.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        sink.invoke("r1", READ, "c1", 0.5)
        sink.respond("w1", 1.0, tag="t")
        sink.mark_failed("r1")
        assert observer.invoked == ["w1", "r1"]
        assert observer.completed == ["w1"]
        assert observer.failed == ["r1"]

    @pytest.mark.parametrize("sink_factory", [History, StreamingRecorder])
    def test_counters(self, sink_factory):
        sink = sink_factory()
        sink.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        sink.invoke("w2", WRITE, "c0", 2.0, value=b"b")
        sink.respond("w1", 1.0)
        assert sink.invoked_count == 2
        assert sink.completed_count == 1

    def test_observer_sees_final_record_state(self):
        sink = StreamingRecorder()
        seen = {}

        class Check(StreamObserver):
            def on_complete(self, record):
                seen["value"] = record.value
                seen["responded_at"] = record.responded_at

        sink.subscribe(Check())
        sink.invoke("r1", READ, "c0", 0.0)
        sink.respond("r1", 2.0, value=b"result")
        assert seen == {"value": b"result", "responded_at": 2.0}


class TestSharedValidation:
    @pytest.mark.parametrize("sink_factory", [History, StreamingRecorder])
    def test_unknown_kind_rejected(self, sink_factory):
        with pytest.raises(ValueError):
            sink_factory().invoke("op", "delete", "c", 0.0)

    @pytest.mark.parametrize("sink_factory", [History, StreamingRecorder])
    def test_duplicate_op_id_rejected(self, sink_factory):
        sink = sink_factory()
        sink.invoke("op", WRITE, "w0", 0.0)
        with pytest.raises(ValueError):
            sink.invoke("op", READ, "r0", 1.0)

    @pytest.mark.parametrize("sink_factory", [History, StreamingRecorder])
    def test_unknown_op_id_is_descriptive_valueerror(self, sink_factory):
        sink = sink_factory()
        with pytest.raises(ValueError, match="unknown operation id 'nope'"):
            sink.get("nope")
        with pytest.raises(ValueError, match="unknown operation id"):
            sink.mark_failed("nope")
        with pytest.raises(ValueError, match="unknown operation id"):
            sink.respond("nope", 1.0)


class TestStreamingRecorderBoundedMemory:
    def test_window_bounds_resident_records(self):
        recorder = StreamingRecorder(window=10)
        for i in range(500):
            recorder.invoke(f"op{i}", WRITE, "c0", float(i), value=str(i).encode())
            recorder.respond(f"op{i}", float(i) + 0.5)
        assert recorder.invoked_count == 500
        assert recorder.completed_count == 500
        assert recorder.evicted_count == 490
        assert recorder.resident_count <= 11
        # max_resident includes the in-flight op on top of the full window.
        assert recorder.max_resident <= 12

    def test_in_flight_ops_always_resident(self):
        recorder = StreamingRecorder(window=2)
        for i in range(50):
            recorder.invoke(f"pending{i}", WRITE, f"c{i}", float(i))
        assert recorder.resident_count == 50  # nothing retired yet
        assert all(not op.is_complete for op in recorder.in_flight())
        recorder.respond("pending7", 100.0)
        assert recorder.get("pending7").is_complete

    def test_evicted_op_lookup_raises(self):
        recorder = StreamingRecorder(window=1)
        recorder.invoke("a", WRITE, "c0", 0.0)
        recorder.respond("a", 1.0)
        recorder.invoke("b", WRITE, "c0", 2.0)
        recorder.respond("b", 3.0)  # evicts "a"
        with pytest.raises(ValueError, match="evicted"):
            recorder.get("a")
        assert recorder.get("b").is_complete

    def test_failed_incomplete_op_is_retired(self):
        """Abandoned (crashed-client) operations must not stay resident
        forever — mark_failed retires them into the bounded window."""
        recorder = StreamingRecorder(window=4)
        for i in range(100):
            recorder.invoke(f"op{i}", WRITE, f"c{i}", float(i))
            recorder.mark_failed(f"op{i}")
        assert recorder.failed_count == 100
        assert recorder.resident_count <= 4
        assert not recorder.in_flight()

    def test_zero_window_retires_immediately(self):
        recorder = StreamingRecorder(window=0)
        recorder.invoke("a", WRITE, "c0", 0.0)
        recorder.respond("a", 1.0)
        assert recorder.resident_count == 0
        assert recorder.evicted_count == 1

    def test_window_overflow_never_evicts_in_flight_ops(self):
        """Retirement-window pressure must only evict *retired* records:
        an op still in flight stays resident however many completions
        churn through a tiny window."""
        recorder = StreamingRecorder(window=2)
        recorder.invoke("pinned", WRITE, "c9", 0.0, value=b"pinned")
        for i in range(200):
            recorder.invoke(f"op{i}", WRITE, "c0", 1.0 + i, value=str(i).encode())
            recorder.respond(f"op{i}", 1.5 + i)
        assert recorder.evicted_count == 198
        assert [op.op_id for op in recorder.in_flight()] == ["pinned"]
        # The in-flight record is still addressable and completable.
        recorder.respond("pinned", 500.0)
        assert recorder.get("pinned").is_complete

    def test_crash_mid_operation_at_shard_boundary(self):
        """The shard-boundary shape of a crash: a client dies with an op in
        flight while the epoch's stream keeps retiring completions.  The
        failed op must be retired into the window (not pinned forever),
        flow to observers exactly once, and look up as evicted afterwards."""
        recorder = StreamingRecorder(window=1)
        observer = recorder.subscribe(_CollectingObserver())
        recorder.invoke("doomed", WRITE, "w0", 0.0, value=b"never-lands")
        recorder.mark_failed("doomed")  # crash-mid-operation
        assert observer.failed == ["doomed"]
        assert not recorder.in_flight()
        # Two more completions push the failed record out of the window —
        # exactly what happens when the epoch continues past the crash.
        recorder.invoke("w1", WRITE, "w1", 1.0, value=b"a")
        recorder.respond("w1", 2.0)
        recorder.invoke("w2", WRITE, "w1", 3.0, value=b"b")
        recorder.respond("w2", 4.0)
        with pytest.raises(ValueError, match="evicted"):
            recorder.get("doomed")
        # A late response for the crashed op (e.g. a straggler callback
        # firing after the boundary) is a descriptive error, not a KeyError.
        with pytest.raises(ValueError, match="unknown operation id 'doomed'"):
            recorder.respond("doomed", 9.0)
        assert recorder.failed_count == 1

    def test_failed_complete_op_is_not_double_retired(self):
        """mark_failed on an op that already responded must not retire it a
        second time (the window would double-count the record)."""
        recorder = StreamingRecorder(window=4)
        recorder.invoke("a", WRITE, "c0", 0.0)
        recorder.respond("a", 1.0)
        recorder.mark_failed("a")  # crash after the response was recorded
        assert recorder.failed_count == 1
        assert recorder.completed_count == 1
        assert recorder.resident_count == 1

    def test_unknown_and_evicted_ids_share_the_descriptive_error(self):
        recorder = StreamingRecorder(window=0)
        recorder.invoke("gone", WRITE, "c0", 0.0)
        recorder.respond("gone", 1.0)  # immediately evicted (window=0)
        for op_id in ("gone", "never-existed"):
            with pytest.raises(ValueError, match="unknown operation id"):
                recorder.get(op_id)
            with pytest.raises(ValueError, match="never invoked .* or already evicted"):
                recorder.mark_failed(op_id)


def check_one_response_per_operation(sink):
    """A second response is refused and changes nothing: the record keeps
    its first time and value, and observers hear of one completion."""
    observer = sink.subscribe(_CollectingObserver())
    sink.invoke("r1", READ, "c0", 0.0)
    sink.respond("r1", 1.0, b"first")
    with pytest.raises(ValueError, match="'r1' already completed"):
        sink.respond("r1", 2.0, b"second")
    record = sink.get("r1")
    assert (record.responded_at, record.value) == (1.0, b"first")
    assert sink.completed_count == 1 and observer.completed == ["r1"]


class TestOneResponsePerOperation:
    @pytest.mark.parametrize("sink_factory", [History, StreamingRecorder])
    def test_second_response_is_refused(self, sink_factory):
        check_one_response_per_operation(sink_factory())


class TestMarkFailedTwice:
    """A second mark_failed on one operation is a no-op: counted once,
    retired once, observers told once."""

    @pytest.mark.parametrize("sink_factory", [History, lambda: StreamingRecorder(window=4)])
    @pytest.mark.parametrize("completed", [False, True])
    def test_second_call_changes_nothing(self, sink_factory, completed):
        sink = sink_factory()
        observer = sink.subscribe(_CollectingObserver())
        sink.invoke("w", WRITE, "c0", 0.0, value=b"x" * 100)
        if completed:
            sink.respond("w", 1.0)
        sink.mark_failed("w")
        sink.mark_failed("w")
        assert sink.failed_count == 1
        assert observer.failed == ["w"]
        assert sink.get("w").failed
        if isinstance(sink, StreamingRecorder):
            assert sink.resident_count == 1 and sink.evicted_count == 0
            assert sink.retired_bytes == 100


#: One shared object per size: the recorder holds references, so a schedule
#: of values "above the budget" allocates nothing per example.
_SIZES = (0, 1, 65536, 1 << 20, RETIRED_BYTE_BUDGET, RETIRED_BYTE_BUDGET + 1, 3 << 20)
_VALUES = {size: bytes(size) for size in _SIZES}

_steps = st.lists(
    st.tuples(
        st.sampled_from(["invoke", "invoke", "respond", "respond", "fail"]),
        st.integers(0, 1 << 16),  # which operation, modulo the candidates
        st.sampled_from(_SIZES),
        st.booleans(),  # write?
    ),
    max_size=60,
)


def check_byte_bounded_window(recorder, steps):
    """Drive ``steps`` into ``recorder`` and hold the window's contract
    after each: in-flight records are never evicted, the retired window
    references at most the budget (or is one record), every operation is
    resident or counted evicted, and an evicted id raises the named error."""
    live, failed, invoked = [], [], []
    for serial, (action, pick, size, is_write) in enumerate(steps):
        # a late response reaches an operation retired as failed only while
        # that record is resident (and may then change its value)
        late = [op_id for op_id in failed if op_id in recorder._retired]
        if action == "invoke" or not (live or late):
            op_id = f"op{serial}"
            value = _VALUES[size] if is_write else None
            kind = WRITE if is_write else READ
            recorder.invoke(op_id, kind, "c", float(serial), value=value)
            live.append(op_id)
            invoked.append(op_id)
        elif action == "fail" and live:
            op_id = live.pop(pick % len(live))
            recorder.mark_failed(op_id)
            if op_id in recorder._retired:
                recorder.mark_failed(op_id)  # counted once, retired once
            failed.append(op_id)
        else:
            op_id = (live + late)[pick % len(live + late)]
            recorder.respond(op_id, float(serial), value=_VALUES[size])
            (live if op_id in live else failed).remove(op_id)

        for op_id in live:
            assert not recorder.get(op_id).is_complete  # resident, whatever its size
        assert [record.op_id for record in recorder.in_flight()] == live
        retired = recorder._retired
        assert recorder.retired_bytes == sum(len(r.value or b"") for r in retired.values())
        assert len(retired) <= recorder.window
        assert recorder.retired_bytes <= RETIRED_BYTE_BUDGET or len(retired) == 1
        assert recorder.retired_bytes <= recorder.max_retired_bytes
        assert recorder.evicted_count + recorder.resident_count == len(invoked)
        evicted = [op for op in invoked if op not in retired and op not in live]
        assert len(evicted) == recorder.evicted_count
        for op_id in evicted[-3:]:
            with pytest.raises(ValueError, match="already evicted from its retirement"):
                recorder.get(op_id)


class TestByteBoundedWindow:
    def test_values_are_evicted_by_bytes_before_the_record_count(self):
        recorder = StreamingRecorder(window=256)
        for i in range(100):
            recorder.invoke(f"w{i}", WRITE, "c0", float(i), value=bytes(65536))
            recorder.respond(f"w{i}", i + 0.5)
        assert recorder.retired_bytes == RETIRED_BYTE_BUDGET == recorder.max_retired_bytes
        assert recorder.resident_count == 32 and recorder.evicted_count == 68
        assert recorder.max_resident == 33
        with pytest.raises(ValueError, match="already evicted from its retirement window"):
            recorder.get("w0")
        assert recorder.get("w99").is_complete

    def test_small_values_keep_the_whole_window(self):
        recorder = StreamingRecorder(window=256)
        for i in range(600):
            recorder.invoke(f"w{i}", WRITE, "c0", float(i), value=bytes(8192))
            recorder.respond(f"w{i}", i + 0.5)
        assert recorder.resident_count == 256
        assert recorder.max_retired_bytes == RETIRED_BYTE_BUDGET

    def test_the_newest_retired_record_stays_even_above_the_budget(self):
        recorder = StreamingRecorder(window=8)
        for i in range(3):
            recorder.invoke(f"w{i}", WRITE, "c0", float(i), value=_VALUES[3 << 20])
            recorder.respond(f"w{i}", i + 0.5)
            assert recorder.resident_count == 1
            assert recorder.get(f"w{i}").is_complete
        assert recorder.retired_bytes == 3 << 20
        assert recorder.evicted_count == 2

    @settings(max_examples=150 * FUZZ_FACTOR, deadline=None)
    @given(window=st.sampled_from([0, 1, 2, 4, 256]), steps=_steps)
    def test_any_interleaving_keeps_the_contract(self, window, steps):
        check_byte_bounded_window(StreamingRecorder(window=window), steps)

    def test_a_large_write_in_flight_is_not_evicted(self):
        check_large_write_in_flight_stays(StreamingRecorder(window=4))


def check_large_write_in_flight_stays(recorder):
    """A large write in flight while another retires stays resident: a byte
    bound that evicted it would fail the contract's live lookup."""
    big = 3 << 20
    steps = [("invoke", 0, big, True), ("invoke", 0, big, True), ("respond", 1, 0, True)]
    check_byte_bounded_window(recorder, steps)


def _feed(sink, history, pad):
    """Record ``history`` into ``sink`` in live-stream order, values padded
    to ``pad`` bytes; operations that never complete fail at the end."""

    def padded(value):
        return None if value is None else value.ljust(pad, b".")

    events = []
    for op in history.operations():
        events.append((op.invoked_at, 0, op))
        if op.is_complete:
            events.append((op.responded_at, 1, op))
    for _, phase, op in sorted(events, key=lambda e: e[:2]):
        if phase == 0:
            value = padded(op.value) if op.kind == WRITE else None
            sink.invoke(op.op_id, op.kind, op.client, op.invoked_at, value=value)
        else:
            value = padded(op.value) if op.kind == READ else None
            sink.respond(op.op_id, op.responded_at, value=value)
    for op in history.incomplete_operations():
        sink.mark_failed(op.op_id)


class TestReportsDoNotDependOnTheWindow:
    """What the checker reports is a function of the events, never of which
    records the recorder still holds: window 0, window 256 and the
    keep-everything sink export equal verdicts on the fuzz schedules — with
    600 KiB values too, where the byte bound evicts after three records."""

    @pytest.mark.parametrize("pad, cases", [(0, 150), (600 * 1024, 12)])
    @pytest.mark.parametrize("inject", [None, "phantom", "swap", "future", "duplicate"])
    def test_equal_exports(self, inject, pad, cases):
        rng = np.random.default_rng(fuzz_seed(f"window:{inject}:{pad}"))
        flagged = 0
        for _ in range(cases * FUZZ_FACTOR):
            history = build_history(rng, inject=inject)
            exports = []
            for sink in (StreamingRecorder(window=0), StreamingRecorder(window=256), History()):
                checker = sink.subscribe(IncrementalAtomicityChecker(unknown_values="defer"))
                _feed(sink, history, pad)
                exports.append(
                    (checker_export(checker), shard_verdict_from_checker(0, checker))
                )
            assert exports[0] == exports[1] == exports[2]
            flagged += not exports[0][0][0]
        assert inject is None or flagged  # the schedules do reach the checker


class TestClusterWithStreamingRecorder:

    def test_blocking_ops_survive_tiny_window(self):
        """Blocking write/read must work even when the completed record is
        evicted from the sink immediately (window=0)."""
        from repro.core.soda.cluster import SodaCluster

        cluster = SodaCluster(n=5, f=2, seed=1, recorder=StreamingRecorder(window=0))
        write = cluster.write(b"payload")
        read = cluster.read()
        assert write.is_complete
        assert read.value == b"payload"
        assert cluster.history.completed_count == 2

    def test_whole_history_analyses_raise_descriptively(self):
        from repro.core.soda.cluster import SodaCluster

        cluster = SodaCluster(n=5, f=2, seed=2, recorder=StreamingRecorder(window=8))
        with pytest.raises(TypeError, match="StreamingRecorder"):
            cluster.full_history()
        read = cluster.read()
        # Every whole-history entry point routes through the same guard
        # instead of crashing with an AttributeError deep inside.
        with pytest.raises(TypeError, match="StreamingRecorder"):
            cluster.measured_delta_w(read.op_id)


class TestHistoryRecordBulkLoad:
    def test_record_appends_prebuilt(self):
        h = History()
        h.record(
            OperationRecord(
                op_id="w1",
                kind=WRITE,
                client="c0",
                invoked_at=0.0,
                responded_at=1.0,
                value=b"a",
            )
        )
        assert h.get("w1").is_complete
        assert h.completed_count == 1

    def test_record_rejects_bad_kind(self):
        h = History()
        with pytest.raises(ValueError):
            h.record(
                OperationRecord(op_id="x", kind="delete", client="c", invoked_at=0.0)
            )


def _feed_stale_read(sink):
    """w(v1) -> r/v1 -> w(v2) -> r/v1 again: the last read is a violation."""
    sink.invoke("w1", WRITE, "w0", 0.0, value=b"v1")
    sink.respond("w1", 1.0)
    sink.invoke("r1", READ, "r0", 2.0)
    sink.respond("r1", 3.0, value=b"v1")
    sink.invoke("w2", WRITE, "w0", 4.0, value=b"v2")
    sink.respond("w2", 5.0)
    sink.invoke("bad", READ, "r0", 6.0)
    sink.respond("bad", 7.0, value=b"v1")


class TestCheckerBatcher:
    """The name the frozen ``bench/workloads.py`` subscribes: a pure
    pass-through, so the checker behind it sees what a directly subscribed
    one sees, when it would see it."""

    def test_stale_read_is_flagged_at_respond_and_flush_changes_nothing(self):
        def export(checker):
            return (
                tuple(checker.violations),
                checker.cluster_summaries(),
                checker.ops_seen,
            )

        sink = StreamingRecorder(window=8)
        batcher = sink.subscribe(CheckerBatcher(IncrementalAtomicityChecker()))
        direct = sink.subscribe(IncrementalAtomicityChecker())
        _feed_stale_read(sink)
        # Nothing is parked: the violation is there when respond() returns.
        before = export(batcher.checker)
        assert len(before[0]) == 1
        assert before == export(direct)
        batcher.flush()
        batcher.flush()
        assert export(batcher.checker) == before

    def test_failures_are_forwarded(self):
        sink = StreamingRecorder(window=8)
        batcher = sink.subscribe(CheckerBatcher(IncrementalAtomicityChecker()))
        sink.invoke("w1", WRITE, "w0", 0.0, value=b"v1")
        assert batcher.checker._open_write_keys
        sink.mark_failed("w1")
        assert not batcher.checker._open_write_keys
        assert batcher.checker.ok
