"""Tests for the incremental online atomicity checker.

The core property: on any history the offline WGL search can handle, the
incremental checker must return the same verdict — both on randomized
linearizable-by-construction histories and on histories with seeded
violations.  On top of that, streaming-scale tests drive it through the
bounded recorder where the in-memory ``History`` is never materialised.
"""

import numpy as np
import pytest

from crash_client import crash_client

from repro.consistency.history import READ, WRITE, History
from repro.consistency.incremental import (
    IncrementalAtomicityChecker,
    check_history_incrementally,
)
from repro.consistency.stream import OperationRecord, StreamingRecorder
from repro.consistency.wgl import check_linearizability
from repro.workloads.generator import StreamSpec, stream_operations

#: The ``twin`` fixture's tests run under both executors of the checker.
TWINS = ("checker core",)


def _random_history(rng, *, clients=4, ops_per_client=6, corrupt=False):
    """A history that is linearizable by construction (operations take
    effect at sampled linearization points); ``corrupt=True`` afterwards
    rewrites one completed read to return some other write's value."""
    ops = []
    for client in range(clients):
        t = float(rng.uniform(0, 2))
        for i in range(ops_per_client):
            duration = float(rng.uniform(0.2, 3.0))
            kind = WRITE if rng.random() < 0.5 else READ
            lin = t + float(rng.uniform(0.0, duration))
            ops.append(
                {
                    "op_id": f"c{client}o{i}",
                    "kind": kind,
                    "client": f"c{client}",
                    "inv": t,
                    "resp": t + duration,
                    "lin": lin,
                }
            )
            t += duration + float(rng.uniform(0.01, 1.0))
    value = b""
    write_sequence = 0
    for op in sorted(ops, key=lambda o: o["lin"]):
        if op["kind"] == WRITE:
            value = f"v{write_sequence}".encode()
            write_sequence += 1
            op["value"] = value
        else:
            op["value"] = value
    h = History()
    for op in sorted(ops, key=lambda o: o["inv"]):
        h.invoke(
            op["op_id"],
            op["kind"],
            op["client"],
            op["inv"],
            value=op["value"] if op["kind"] == WRITE else None,
        )
    for op in sorted(ops, key=lambda o: o["resp"]):
        if rng.random() < 0.1:
            continue  # leave some operations incomplete
        h.respond(
            op["op_id"],
            op["resp"],
            value=None if op["kind"] == WRITE else op["value"],
        )
    if corrupt:
        reads = [op for op in h.operations() if op.kind == READ and op.is_complete]
        writes = [op for op in h.operations() if op.kind == WRITE]
        if reads and writes:
            victim = reads[int(rng.integers(0, len(reads)))]
            victim.value = writes[int(rng.integers(0, len(writes)))].value
    return h


class TestEquivalenceWithWGL:
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_verdicts_agree_on_randomized_histories(self, corrupt):
        rng = np.random.default_rng(7 if corrupt else 3)
        checked = 0
        for _ in range(60):
            history = _random_history(rng, corrupt=corrupt)
            try:
                wgl_verdict = bool(check_linearizability(history, initial_value=b""))
            except ValueError:
                continue  # corruption produced duplicate write values
            incremental_verdict = bool(
                check_history_incrementally(history, initial_value=b"")
            )
            assert incremental_verdict == wgl_verdict
            checked += 1
        assert checked >= 40

    def test_small_frontier_does_not_change_verdicts(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            history = _random_history(rng, corrupt=trial % 2 == 1)
            wgl_verdict = bool(check_linearizability(history, initial_value=b""))
            tiny = bool(
                check_history_incrementally(
                    history, initial_value=b"", frontier_limit=2
                )
            )
            assert tiny == wgl_verdict


class TestDirectViolations:
    def test_stale_read_flagged(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        h.respond("w1", 1.0)
        h.invoke("w2", WRITE, "c0", 2.0, value=b"b")
        h.respond("w2", 3.0)
        h.invoke("r1", READ, "c1", 4.0)
        h.respond("r1", 5.0, value=b"a")  # stale: w2 fully preceded r1
        result = check_history_incrementally(h)
        assert not result
        assert result.violations[0].kind == "cluster-cycle"

    def test_read_monotonicity_violation_flagged(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        h.invoke("w2", WRITE, "c1", 0.0, value=b"b")
        h.respond("w1", 1.0)
        h.respond("w2", 1.0)
        h.invoke("r1", READ, "c2", 2.0)
        h.respond("r1", 3.0, value=b"a")
        h.invoke("r2", READ, "c2", 4.0)
        h.respond("r2", 5.0, value=b"b")
        h.invoke("r3", READ, "c2", 6.0)
        h.respond("r3", 7.0, value=b"a")  # a, b, a cannot be linearized
        assert not check_history_incrementally(h)
        assert not check_linearizability(h, initial_value=b"")

    def test_unwritten_value_flagged(self):
        h = History()
        h.invoke("r1", READ, "c0", 0.0)
        h.respond("r1", 1.0, value=b"phantom")
        result = check_history_incrementally(h)
        assert not result
        assert result.violations[0].kind == "unwritten-value"

    def test_stale_initial_read_flagged(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        h.respond("w1", 1.0)
        h.invoke("r1", READ, "c1", 2.0)
        h.respond("r1", 3.0, value=b"")  # initial value after w1 completed
        assert not check_history_incrementally(h, initial_value=b"")

    def test_duplicate_write_value_flagged_once(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"same")
        h.respond("w1", 1.0)
        h.invoke("w2", WRITE, "c1", 2.0, value=b"same")
        h.respond("w2", 3.0)
        result = check_history_incrementally(h)
        assert not result
        duplicates = [v for v in result.violations if v.kind == "duplicate-write-value"]
        assert len(duplicates) == 1
        # ops_seen counts invocations; the duplicate's completion must not
        # re-dispatch through on_invoke and inflate it.
        assert result.ops_seen == 2

    def test_clean_sequence_passes(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        h.respond("w1", 1.0)
        h.invoke("r1", READ, "c1", 2.0)
        h.respond("r1", 3.0, value=b"a")
        result = check_history_incrementally(h)
        assert result
        assert result.reads_checked == 1

    def test_incomplete_unread_write_ignored(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        h.respond("w1", 1.0)
        h.invoke("w2", WRITE, "c1", 2.0, value=b"b")  # never responds
        h.invoke("r1", READ, "c2", 10.0)
        h.respond("r1", 11.0, value=b"a")  # reading a is fine: w2 may not
        assert check_history_incrementally(h)  # have taken effect

    def test_pending_write_read_must_be_ordered(self):
        h = History()
        h.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        h.respond("w1", 1.0)
        h.invoke("w2", WRITE, "c1", 2.0, value=b"b")  # never responds
        h.invoke("r1", READ, "c2", 3.0)
        h.respond("r1", 4.0, value=b"b")  # w2 took effect
        h.invoke("r2", READ, "c2", 5.0)
        h.respond("r2", 6.0, value=b"a")  # ...so reading a afterwards is stale
        assert not check_history_incrementally(h)
        assert not check_linearizability(h, initial_value=b"")


class TestStreamingScale:
    def test_hundred_thousand_ops_bounded_memory(self):
        """The acceptance run: >=100k streamed operations checked online
        under a bounded recorder — no in-memory History anywhere."""
        recorder = StreamingRecorder(window=128)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        stats = stream_operations(
            StreamSpec(
                operations=100_000,
                clients=16,
                incomplete_fraction=0.0005,
                seed=29,
            ),
            recorder,
        )
        assert stats.invoked == 100_000
        assert checker.ok, checker.violations
        assert checker.reads_checked > 10_000
        # Crashed clients' abandoned ops are marked failed and retired, so
        # they cannot accumulate in the recorder's active set.
        assert recorder.failed_count > 0
        assert len(recorder.in_flight()) <= 16
        # Residency stays near window + in-flight, orders of magnitude
        # below the operation count.
        assert recorder.max_resident < 1_000

    def test_stale_injection_raises_when_impossible(self):
        """A pure-read stream has nothing to overwrite: the generator must
        refuse rather than silently emit a clean stream."""
        recorder = StreamingRecorder(window=16)
        with pytest.raises(RuntimeError, match="could not inject a stale read"):
            stream_operations(
                StreamSpec(operations=50, clients=4, read_fraction=1.0, inject="stale", seed=1),
                recorder,
            )

    @pytest.mark.parametrize("mode", ["stale", "phantom"])
    def test_streamed_injection_is_caught(self, mode, twin):
        recorder = StreamingRecorder(window=64)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        stats = stream_operations(
            StreamSpec(operations=3_000, clients=8, inject=mode, seed=31), recorder
        )
        assert stats.injected_violation == mode
        assert not checker.ok

    def test_streamed_clean_run_verified_against_wgl_on_sample(self):
        """Stream a small workload into BOTH sinks and cross-validate."""
        history = History()
        checker = history.subscribe(IncrementalAtomicityChecker())
        stream_operations(StreamSpec(operations=120, clients=4, seed=37), history)
        assert checker.ok
        assert check_linearizability(history, initial_value=b"")


class TestReopenAfterDuplicateMinResp:
    """Regression shape for the retired closed-staircase `_reopen` bug.

    Two clusters retire with *identical* ``min_resp`` (their staircase keys
    collide), one of them reopens, and a later stale read must still be
    caught against the other.  The old implementation removed staircase
    entries by bisecting on ``min_resp`` and could silently leave a stale
    entry when the id was not at the matching run; the flat-core table is
    keyed by cluster id (``_pos``), so reopen does no structural surgery at
    all — this test pins the correct behaviour on the exact shape that
    made the old fallback dangerous.
    """

    @staticmethod
    def _feed(checker):
        from repro.consistency.stream import OperationRecord

        def inv(op_id, kind, client, t, value=None):
            checker.on_invoke(OperationRecord(
                op_id=op_id, kind=kind, client=client, invoked_at=t, value=value
            ))

        def comp(op_id, kind, client, t0, t1, value=None):
            checker.on_complete(OperationRecord(
                op_id=op_id, kind=kind, client=client,
                invoked_at=t0, responded_at=t1, value=value,
            ))

        inv("wA", WRITE, "w0", 0.0, b"A")
        inv("wB", WRITE, "w1", 1.0, b"B")
        inv("rA", READ, "r0", 2.0)
        comp("wA", WRITE, "w0", 0.0, 10.0, b"A")
        comp("wB", WRITE, "w1", 1.0, 10.0, b"B")  # same min_resp as wA
        # Two more writes overflow the frontier: wA's and wB's clusters
        # both retire carrying the duplicate min_resp = 10.0.
        inv("wC", WRITE, "w2", 20.0, b"C")
        comp("wC", WRITE, "w2", 20.0, 21.0, b"C")
        inv("wD", WRITE, "w3", 22.0, b"D")
        comp("wD", WRITE, "w3", 22.0, 23.0, b"D")
        # Benign reopen of wA's cluster: the read was invoked back at t=2,
        # so it crosses nothing — but it forces the duplicate-key removal.
        comp("rA", READ, "r0", 2.0, 30.0, b"A")
        # Stale read of wB *invoked after* wC/wD completed: reopens the
        # second duplicate-key cluster and must flag the crossing.
        inv("rB", READ, "r1", 50.0)
        comp("rB", READ, "r1", 50.0, 60.0, b"B")
        return checker

    def test_crossing_caught_after_duplicate_key_reopens(self):
        checker = self._feed(IncrementalAtomicityChecker(frontier_limit=2))
        checker._audit()  # the interval table survived both reopens intact
        assert checker.reopened_clusters == 2
        assert not checker.ok
        assert [v.kind for v in checker.violations] == ["cluster-cycle"]
        assert "wB" in checker.violations[0].description

    def test_byte_identical_to_reference_on_the_regression_shape(self):
        from reference_incremental import ReferenceAtomicityChecker

        flat = self._feed(IncrementalAtomicityChecker(frontier_limit=2))
        reference = self._feed(ReferenceAtomicityChecker(frontier_limit=2))
        assert tuple(reference.violations) == tuple(flat.violations)
        assert reference.cluster_summaries() == flat.cluster_summaries()
        assert reference.reopened_clusters == flat.reopened_clusters

    def test_stale_table_slot_raises_instead_of_corrupting(self):
        """The flat core refuses to operate on a stale id→slot mapping —
        the loud replacement for the old silent `break` fallback."""
        checker = self._feed(IncrementalAtomicityChecker(frontier_limit=2))
        cid, other = list(checker._cid_of.values())[:2]
        # Simulated corruption: a slot past the table, then another
        # cluster's slot (the case that used to evict the wrong interval).
        for stale in (len(checker._tb) + 5, checker._pos[other]):
            checker._pos[cid] = stale
            table = list(checker._tcid)
            with pytest.raises(
                RuntimeError,
                match=rf"interval-table slot for cluster {cid} is stale \(pos={stale}\)",
            ):
                checker._table_remove(cid)
            assert list(checker._tcid) == table  # nothing was evicted


@pytest.fixture
def hashed(monkeypatch):
    """Every value handed to the checker's digest function, in order."""
    # Imported first: the reference binds the digest function it finds
    # at import, and must find the uncounted one.
    import reference_incremental  # noqa: F401

    from repro.consistency import incremental

    seen = []
    digest = incremental._value_key
    monkeypatch.setattr(
        incremental, "_value_key", lambda value: seen.append(value) or digest(value)
    )
    return seen


@pytest.mark.usefixtures("twin")
class TestWriteValueHashedOnce:
    """A write's value is digested at invoke; completion reuses that digest
    only for the very same bytes object, and nothing is kept for a write
    that will never complete."""

    def test_one_digest_per_write_none_for_a_read_of_a_recent_write(self, hashed):
        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        hashed.clear()  # the initial value's digest
        value = b"v" * 65536
        recorder.invoke("w1", WRITE, "w", 0.0, value=value)
        assert checker._open_write_keys.keys() == {"w1"}
        recorder.respond("w1", 1.0)
        recorder.invoke("r1", READ, "r", 2.0)
        recorder.respond("r1", 3.0, value=bytes(bytearray(value)))
        assert len(hashed) == 1 and hashed[0] is value
        assert checker.ok and checker.reads_checked == 1
        assert not checker._open_write_keys

    def test_response_with_other_bytes_is_hashed_again(self, hashed):
        """Identity, not the op id, vouches for the memoized digest — and
        the verdict is what a checker without the memo reaches."""
        from reference_incremental import ReferenceAtomicityChecker

        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        reference = recorder.subscribe(ReferenceAtomicityChecker())
        hashed.clear()
        recorder.invoke("w1", WRITE, "w", 0.0, value=b"claimed")
        recorder.respond("w1", 1.0, value=b"other")
        assert hashed == [b"claimed", b"other"]
        # An equal but distinct object is re-hashed too: equality is what
        # the digest establishes, so it cannot be assumed beforehand.
        claimed = b"second-claim"
        recorder.invoke("w2", WRITE, "w", 2.0, value=claimed)
        recorder.respond("w2", 3.0, value=bytes(bytearray(claimed)))
        assert len(hashed) == 4
        recorder.invoke("r1", READ, "r", 4.0)
        recorder.respond("r1", 5.0, value=b"other")
        assert not checker._open_write_keys
        assert [str(v) for v in checker.violations] == [str(v) for v in reference.violations]
        assert checker.cluster_summaries() == reference.cluster_summaries()

    def test_failed_write_drops_its_entry(self):
        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        recorder.invoke("w1", WRITE, "w", 0.0, value=b"x" * 1024)
        recorder.invoke("r1", READ, "r", 0.5)
        recorder.mark_failed("w1")  # its client crashed mid-write
        recorder.mark_failed("r1")
        assert not checker._open_write_keys
        assert checker.ok

    def test_late_joining_stream_leaves_nothing_behind(self):
        """A completion whose invoke was never observed registers the write
        on the spot, without parking an entry nobody will collect."""
        checker = IncrementalAtomicityChecker()
        record = History().invoke("w1", WRITE, "w", 0.0, value=b"late")
        record.responded_at = 1.0
        checker.on_complete(record)
        assert checker.ok and checker.ops_seen == 1
        assert not checker._open_write_keys

    def test_memo_is_empty_after_a_fuzz_schedule_with_client_crashes(self):
        recorder = StreamingRecorder(window=64)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        stats = stream_operations(
            StreamSpec(operations=1_000, clients=8, incomplete_fraction=0.05, seed=41),
            recorder,
        )
        assert stats.invoked == 1_000
        assert recorder.failed_count > 10  # crashes did happen, mid-write too
        assert checker.ok, checker.violations
        assert not checker._open_write_keys

    def test_memo_is_empty_after_a_cluster_run_with_a_crashed_writer(self):
        from repro.core.soda.cluster import SodaCluster

        recorder = StreamingRecorder(window=64)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        cluster = SodaCluster(
            n=6, f=2, num_writers=2, num_readers=2, seed=5, recorder=recorder
        )
        crash_client(cluster, "w0", at_time=3.0)
        crash_client(cluster, "r1", at_time=4.0)
        stats = cluster.run_streamed(operations=1_000, seed=6, value_size=256)
        assert stats.failed >= 1 and stats.completed + stats.failed == stats.issued
        assert checker.ok, checker.violations
        assert not checker._open_write_keys


@pytest.mark.usefixtures("twin")
class TestReadValueMemo:
    """A read's value is identified by comparing it with a recently written
    one; whatever the comparison cannot settle is digested as before, so
    the memo can only ever save a digest, never change a key."""

    @staticmethod
    def _write(recorder, op_id, at, value):
        recorder.invoke(op_id, WRITE, "w", at, value=value)
        recorder.respond(op_id, at + 0.5)

    @staticmethod
    def _read(recorder, op_id, at, value):
        recorder.invoke(op_id, READ, "r", at)
        recorder.respond(op_id, at + 0.5, value=value)

    def test_same_length_head_and_tail_but_another_middle_does_not_alias(self, hashed):
        """The fingerprint only finds the candidate; ``==`` decides."""
        from repro.consistency.incremental import _value_key

        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        head, tail = b"H" * 64, b"T" * 64
        first = head + b"a" * 4096 + tail
        second = head + b"b" * 4096 + tail
        self._write(recorder, "w1", 0.0, first)
        # Open across both reads, so either value is a legal return.
        recorder.invoke("w2", WRITE, "w", 1.0, value=second)  # takes the fingerprint
        hashed.clear()
        self._read(recorder, "r1", 2.0, bytes(bytearray(first)))  # candidate differs
        assert len(hashed) == 1
        self._read(recorder, "r2", 3.0, bytes(bytearray(second)))
        assert len(hashed) == 1
        recorder.respond("w2", 4.0)
        assert checker.ok
        never_written = head + b"c" * 4096 + tail
        self._read(recorder, "r3", 5.0, never_written)
        assert [v.kind for v in checker.violations] == ["unwritten-value"]
        summaries = {row.key: row.reads for row in checker.cluster_summaries()}
        assert summaries[_value_key(first)] == 1 and summaries[_value_key(second)] == 1

    def test_values_below_the_size_gate_are_digested(self, hashed):
        from repro.consistency import incremental

        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        small = b"s" * (incremental._MEMO_MIN_BYTES - 1)
        self._write(recorder, "w1", 0.0, small)
        assert not checker._recent_writes._entries
        hashed.clear()
        self._read(recorder, "r1", 1.0, bytes(bytearray(small)))
        assert len(hashed) == 1 and checker.ok

    def test_initial_and_absent_values_are_digested(self, hashed):
        from repro.consistency import incremental

        big_initial = b"i" * 4096
        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(
            IncrementalAtomicityChecker(initial_value=big_initial)
        )
        hashed.clear()
        self._read(recorder, "r1", 0.0, bytes(bytearray(big_initial)))
        assert len(hashed) == 1 and checker.ok
        # A read that returned nothing is keyed like the empty value.
        self._read(recorder, "r2", 1.0, None)
        assert hashed[1] is None
        assert [v.kind for v in checker.violations] == ["unwritten-value"]
        assert incremental._value_key(None) == incremental._value_key(b"")

    def test_eviction_by_entries(self, hashed, monkeypatch):
        from repro.consistency import incremental

        monkeypatch.setattr(incremental, "_MEMO_ENTRIES", 3)
        recorder = StreamingRecorder(window=8)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        values = [bytes([i]) * 2048 for i in range(5)]
        for i, value in enumerate(values):
            self._write(recorder, f"w{i}", float(i), value)
        memo = checker._recent_writes
        assert [entry[0] for entry in memo._entries.values()] == values[2:]
        assert memo._bytes == 3 * 2048
        hashed.clear()
        self._read(recorder, "r-new", 10.0, bytes(bytearray(values[4])))
        assert hashed == []
        self._read(recorder, "r-old", 11.0, bytes(bytearray(values[0])))  # evicted
        assert len(hashed) == 1
        assert checker.reads_checked == 2

    def test_eviction_by_bytes(self, monkeypatch):
        from repro.consistency import incremental

        monkeypatch.setattr(incremental, "_MEMO_BYTES", 10_000)
        memo = incremental._RecentWrites()
        values = [bytes([i]) * 4096 for i in range(3)]
        for value in values:
            memo.remember(value, incremental._value_key(value))
        assert [entry[0] for entry in memo._entries.values()] == values[1:]
        assert memo._bytes == 8192
        assert memo.key_of(values[0]) is None
        assert memo.key_of(bytes(values[2])) == incremental._value_key(values[2])
        # A value the whole budget cannot hold is never referenced at all.
        huge = b"x" * 10_001
        memo.remember(huge, incremental._value_key(huge))
        assert memo.key_of(huge) is None and memo._bytes == 8192
        # Writing an equal value again replaces its entry, counted once.
        memo.remember(bytes(values[2]), incremental._value_key(values[2]))
        assert len(memo._entries) == 2 and memo._bytes == 8192

    def test_memo_holds_references_not_copies(self):
        checker = IncrementalAtomicityChecker()
        value = b"r" * 8192
        record = History().invoke("w1", WRITE, "w", 0.0, value=value)
        checker.on_invoke(record)
        ((kept, _),) = checker._recent_writes._entries.values()
        assert kept is value

    @pytest.mark.parametrize("inject", ["stale", "phantom"])
    def test_injected_violations_are_still_flagged(self, inject):
        """The benchmark's ``consistency.probes_flagged`` probes, at a value
        size the memo serves."""
        from repro.consistency import incremental

        recorder = StreamingRecorder(window=64)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        stats = stream_operations(
            StreamSpec(
                operations=600,
                clients=8,
                value_size=2 * incremental._MEMO_MIN_BYTES,
                inject=inject,
                seed=7,
            ),
            recorder,
        )
        assert stats.injected_violation == inject
        assert checker._recent_writes._entries
        assert not checker.ok


def check_duplicate_write_flagged(checker):
    """A second write of one value, recorded live, is flagged once."""
    sink = StreamingRecorder(window=8)
    sink.subscribe(checker)
    sink.invoke("w1", WRITE, "c0", 0.0, b"same")
    sink.respond("w1", 1.0)
    sink.invoke("w2", WRITE, "c1", 2.0, b"same")
    sink.respond("w2", 3.0)
    assert [v.kind for v in checker.violations] == ["duplicate-write-value"]


def check_crossing_closed_by_a_response_flagged(checker):
    """Completions fed out of time order (a direct feed may): the last, ``ra``,
    lowers its cluster's ``b`` from 10 to 4 without moving its ``a`` (``rc``
    was invoked at the same time), and that alone closes the crossing with
    ``w2``'s cluster (``a`` = 5, ``b`` = 2).  ``ra`` reads ``a`` after ``w2``
    completed and ``rb`` reads ``b`` after ``ra`` completed: not linearizable."""
    ops = {
        op.op_id: op
        for op in (
            OperationRecord("w1", WRITE, "c0", 0.0, 10.0, b"a"),
            OperationRecord("w2", WRITE, "c1", 1.0, 2.0, b"b"),
            OperationRecord("ra", READ, "c2", 3.0, 4.0, b"a"),
            OperationRecord("rb", READ, "c3", 5.0, 6.0, b"b"),
            OperationRecord("rc", READ, "c4", 3.0, 20.0, b"a"),
        )
    }
    for op in ops.values():
        checker.on_invoke(op)
    for op_id in ("w2", "w1", "rb", "rc"):
        checker.on_complete(ops[op_id])
    assert checker.ok
    checker.on_complete(ops["ra"])
    assert [v.kind for v in checker.violations] == ["cluster-cycle"]


def _middle_changed_64k():
    """Two 64 KiB values equal but for one byte in the middle: same length,
    head, tail and first KiB."""
    written = np.random.default_rng(0).bytes(64 * 1024)
    mid = len(written) // 2
    return written, written[:mid] + bytes([written[mid] ^ 1]) + written[mid + 1 :]


def check_read_of_a_middle_changed_value_flagged(checker=None):
    """A read returning a value that matches the write just made in its
    length, head and tail but not its middle reads a value nobody wrote."""
    if checker is None:  # the memo mutant is installed in the module
        checker = IncrementalAtomicityChecker()
    written, changed = _middle_changed_64k()
    sink = StreamingRecorder(window=8)
    sink.subscribe(checker)
    sink.invoke("w1", WRITE, "c0", 0.0, written)
    sink.respond("w1", 1.0)
    sink.invoke("r1", READ, "c1", 2.0)
    sink.respond("r1", 3.0, value=changed)
    assert [v.kind for v in checker.violations] == ["unwritten-value"]


def check_writes_differing_in_the_middle_are_distinct(checker):
    """Two writes whose values differ only in the middle are two values,
    and a read of the second after both is atomic."""
    first, second = _middle_changed_64k()
    sink = StreamingRecorder(window=8)
    sink.subscribe(checker)
    sink.invoke("w1", WRITE, "c0", 0.0, first)
    sink.respond("w1", 1.0)
    sink.invoke("w2", WRITE, "c0", 2.0, second)
    sink.respond("w2", 3.0)
    sink.invoke("r1", READ, "c1", 4.0)
    sink.respond("r1", 5.0, value=bytes(bytearray(second)))
    assert checker.ok, checker.violations
    assert checker.reads_checked == 1


@pytest.mark.parametrize(
    "check",
    [
        check_duplicate_write_flagged,
        check_crossing_closed_by_a_response_flagged,
        check_read_of_a_middle_changed_value_flagged,
        check_writes_differing_in_the_middle_are_distinct,
    ],
)
def test_the_checker_passes_the_checks_that_kill_its_mutants(check, twin):
    """The mutant registry (``tests/mutants``) kills the checker's fast-path
    mutants with these checks; the real checker passes them, under either
    executor."""
    check(IncrementalAtomicityChecker())


class TestTimesAreFloats:
    """Both executors store ``float(t)``: ints a float holds exactly and
    float subclasses are taken; any other time is refused with its op id
    (a nanosecond ``int`` is not rounded)."""

    def test_exact_times_are_stored_as_floats(self, twin):
        checker = IncrementalAtomicityChecker()
        for op in (
            OperationRecord("w1", WRITE, "c0", 1, None, b"x"),
            OperationRecord("w1", WRITE, "c0", 1, 2, b"x"),
            OperationRecord("r1", READ, "c1", np.float64(3.5), None, None),
            OperationRecord("r1", READ, "c1", np.float64(3.5), 4, b"x"),
        ):
            (checker.on_invoke if op.responded_at is None else checker.on_complete)(op)
        (row,) = [s for s in checker.cluster_summaries() if s.write_id == "w1"]
        times = (row.write_invoked, row.max_inv, row.min_resp, row.min_read_resp)
        assert times == (1.0, 3.5, 2.0, 4.0)
        assert {type(t) for t in times} == {float} and checker.ok

    @pytest.mark.parametrize(
        "invoked, responded",
        [(2**53 + 1, None), (0.0, 2**53 + 1), (0.0, 10**400), (0.0, "1.0"), (None, None)],
    )
    def test_any_other_time_is_refused_by_op_id(self, twin, invoked, responded):
        checker = IncrementalAtomicityChecker()
        bad = responded if invoked == 0.0 else invoked
        kind = WRITE if responded is None else READ
        if kind == READ:
            checker.on_invoke(OperationRecord("w1", WRITE, "c0", 0.0, None, b"x"))
            checker.on_complete(OperationRecord("w1", WRITE, "c0", 0.0, 0.5, b"x"))
        with pytest.raises(TypeError, match=f"^op7: a time is a float or an int .* {bad!r}$"):
            op = OperationRecord("op7", kind, "c1", invoked, responded, b"x")
            (checker.on_invoke if responded is None else checker.on_complete)(op)
