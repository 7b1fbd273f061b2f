"""Unit tests for the shard-merge reconciliation pass."""

import math

import pytest

from sharded_check import check_history_sharded

from repro.consistency.history import READ, WRITE, History
from repro.consistency.incremental import (
    ClusterSummary,
    IncrementalAtomicityChecker,
    _value_key,
)
from repro.consistency.shardmerge import (
    MergedCheckResult,
    ShardVerdict,
    merge_shard_verdicts,
    shard_verdict_from_checker,
    shift_summary,
)


def summary(
    value: bytes,
    write_id: str,
    *,
    a: float,
    b: float,
    write_invoked: float = None,
    has_write: bool = True,
    min_read_resp: float = math.inf,
    reads: int = 0,
    first_read_id: str = None,
    initial: bool = False,
) -> ClusterSummary:
    return ClusterSummary(
        key=_value_key(value),
        write_id=write_id,
        has_write=has_write,
        write_invoked=write_invoked if write_invoked is not None else a,
        max_inv=a,
        min_resp=b,
        min_read_resp=min_read_resp,
        reads=reads,
        first_read_inv=a if first_read_id else math.inf,
        first_read_id=first_read_id,
        initial=initial,
    )


def shard(index, *summaries, dup=(), ops=0, reads=0):
    return ShardVerdict(
        index=index,
        ops_seen=ops,
        reads_checked=reads,
        summaries=tuple(summaries),
        duplicate_claims=tuple(dup),
    )


class TestMergeSemantics:
    def test_clean_disjoint_shards_merge_ok(self):
        result = merge_shard_verdicts(
            [
                shard(0, summary(b"a", "w0", a=1.0, b=2.0), ops=2),
                shard(1, summary(b"b", "w1", a=10.0, b=11.0), ops=2),
            ],
            initial_value=None,
        )
        assert result
        assert result.shards == 2
        assert result.ops_seen == 4
        assert result.clusters == 2

    def test_boundary_crossing_between_shards_is_flagged(self):
        """The defining case: each shard is clean in isolation, but one
        cluster from each mutually precedes the other across the boundary."""
        first = summary(b"a", "w0", a=5.0, b=1.0)  # responds early, invoked late
        second = summary(b"b", "w1", a=4.0, b=2.0)
        assert merge_shard_verdicts(
            [shard(0, first), shard(1, second)], initial_value=None
        ).ok is False
        result = merge_shard_verdicts(
            [shard(0, first), shard(1, second)], initial_value=None
        )
        assert result.violations[0].kind == "cluster-cycle"
        assert set(result.violations[0].op_ids) == {"w0", "w1"}

    def test_partial_summaries_combine_before_the_crossing_test(self):
        """A cluster split across shards (write in one, reads in another)
        must be reconciled: neither half alone crosses w1, the combined
        block does."""
        write_half = summary(b"a", "w0", a=0.5, b=math.inf, write_invoked=0.5)
        read_half = ClusterSummary(
            key=_value_key(b"a"),
            write_id="<unwritten:r9>",
            has_write=False,
            write_invoked=-math.inf,
            max_inv=9.0,  # late read of a keeps the block open until t=9
            min_resp=1.0,
            min_read_resp=1.0,
            reads=2,
            first_read_inv=0.9,
            first_read_id="r9",
            initial=False,
        )
        other = summary(b"b", "w1", a=8.0, b=3.0)  # inside the read window
        result = merge_shard_verdicts(
            [shard(0, write_half, other), shard(1, read_half)],
            initial_value=None,
        )
        assert not result.ok
        assert result.violations[0].kind == "cluster-cycle"
        # Sanity: without the read half everything is fine.
        assert merge_shard_verdicts(
            [shard(0, write_half, other)], initial_value=None
        ).ok

    def test_unwritten_value_needs_no_shard_to_have_seen_the_write(self):
        read_only = ClusterSummary(
            key=_value_key(b"ghost"),
            write_id="<unwritten:r1>",
            has_write=False,
            write_invoked=-math.inf,
            max_inv=1.0,
            min_resp=2.0,
            min_read_resp=2.0,
            reads=1,
            first_read_inv=1.0,
            first_read_id="r1",
            initial=False,
        )
        result = merge_shard_verdicts([shard(0, read_only)], initial_value=None)
        assert not result
        assert result.violations[0].kind == "unwritten-value"
        assert result.violations[0].op_ids == ("r1",)

    def test_cross_shard_duplicate_write_value(self):
        result = merge_shard_verdicts(
            [
                shard(0, summary(b"same", "w0", a=1.0, b=2.0)),
                shard(1, summary(b"same", "w1", a=10.0, b=11.0)),
            ],
            initial_value=None,
        )
        assert not result
        kinds = {v.kind for v in result.violations}
        assert "duplicate-write-value" in kinds
        flagged = [
            v for v in result.violations if v.kind == "duplicate-write-value"
        ]
        # The later claim is the duplicate; the earlier one owns the value.
        assert flagged[0].op_ids == ("w1",)

    def test_read_from_future_recomputed_at_merge(self):
        cross = summary(
            b"a",
            "w0",
            a=5.0,
            b=6.0,
            write_invoked=5.0,
            min_read_resp=1.0,  # a read finished before the write began
            reads=1,
            first_read_id="r0",
        )
        result = merge_shard_verdicts([shard(0, cross)], initial_value=None)
        assert not result
        assert result.violations[0].kind == "read-from-future"

    def test_initial_cluster_mismatch_raises(self):
        wrong = summary(b"x", "<initial>", a=1.0, b=-math.inf, initial=True)
        with pytest.raises(ValueError, match="different initial value"):
            merge_shard_verdicts([shard(0, wrong)], initial_value=b"")
        with pytest.raises(ValueError, match="initial_value=None"):
            merge_shard_verdicts([shard(0, wrong)], initial_value=None)

    def test_verdict_is_canonical_under_shard_reordering(self):
        shards = [
            shard(0, summary(b"a", "w0", a=5.0, b=1.0)),
            shard(1, summary(b"b", "w1", a=4.0, b=2.0)),
            shard(2, summary(b"c", "w2", a=40.0, b=41.0)),
        ]
        forward = merge_shard_verdicts(shards, initial_value=None)
        backward = merge_shard_verdicts(list(reversed(shards)), initial_value=None)
        assert forward.to_jsonable() == backward.to_jsonable()


class TestShiftSummary:
    def test_finite_fields_shift_and_infinities_survive(self):
        s = summary(b"a", "w0", a=1.0, b=math.inf, min_read_resp=math.inf)
        moved = shift_summary(s, 100.0)
        assert moved.max_inv == 101.0
        assert moved.write_invoked == 101.0
        assert moved.min_resp == math.inf
        assert moved.min_read_resp == math.inf

    def test_initial_cluster_negative_infinity_survives(self):
        s = ClusterSummary(
            key=_value_key(b""),
            write_id="<initial>",
            has_write=True,
            write_invoked=-math.inf,
            max_inv=-math.inf,
            min_resp=-math.inf,
            min_read_resp=math.inf,
            reads=0,
            first_read_inv=math.inf,
            first_read_id=None,
            initial=True,
        )
        moved = shift_summary(s, 50.0)
        assert moved.write_invoked == -math.inf
        assert moved.min_resp == -math.inf


class TestShardVerdictPackaging:
    def test_checker_export_round_trip(self):
        history = History()
        history.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        history.respond("w1", 1.0)
        history.invoke("r1", READ, "c1", 2.0)
        history.respond("r1", 3.0, value=b"a")
        checker = IncrementalAtomicityChecker()
        for op in history.operations():
            checker.on_invoke(op)
            checker.on_complete(op)
        verdict = shard_verdict_from_checker(4, checker)
        assert verdict.index == 4
        assert verdict.ok
        assert verdict.ops_seen == 2
        assert verdict.reads_checked == 1
        keys = {s.write_id for s in verdict.summaries}
        assert keys == {"<initial>", "w1"}
        merged = merge_shard_verdicts([verdict], initial_value=b"")
        assert merged.ok and merged.clusters == 2

    def test_summaries_are_sorted_canonically(self):
        checker = IncrementalAtomicityChecker()
        history = History()
        for i in range(10):
            history.invoke(f"w{i}", WRITE, "c0", float(i), value=f"v{i}".encode())
            history.respond(f"w{i}", i + 0.5)
        for op in history.operations():
            checker.on_invoke(op)
            checker.on_complete(op)
        rows = checker.cluster_summaries()
        assert rows == sorted(rows, key=lambda r: (r.key, r.write_id))


class TestShardedHistoryChecks:
    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            check_history_sharded(History(), shards=0)

    def test_empty_history(self):
        result = check_history_sharded(History(), shards=3)
        assert isinstance(result, MergedCheckResult)
        assert result.ok and result.ops_seen == 0

    def test_cross_shard_read_of_earlier_write(self):
        """A read sliced into a later shard than its write must not be
        misreported as unwritten."""
        history = History()
        history.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        history.respond("w1", 1.0)
        for i in range(6):
            history.invoke(f"r{i}", READ, "c1", 2.0 + i)
            history.respond(f"r{i}", 2.5 + i, value=b"a")
        for shards in (2, 3, 4, 7):
            assert check_history_sharded(history, shards=shards).ok

    def test_stale_read_across_boundary_is_caught(self):
        history = History()
        history.invoke("w1", WRITE, "c0", 0.0, value=b"a")
        history.respond("w1", 1.0)
        history.invoke("w2", WRITE, "c0", 2.0, value=b"b")
        history.respond("w2", 3.0)
        history.invoke("r1", READ, "c1", 10.0)
        history.respond("r1", 11.0, value=b"a")  # stale by then
        for shards in (1, 2, 3):
            result = check_history_sharded(history, shards=shards)
            assert not result
            assert result.violations[0].kind == "cluster-cycle"
