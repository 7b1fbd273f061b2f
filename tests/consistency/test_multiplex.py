"""Tests for the per-object checker mux and the namespace verdict merge."""

import pytest

from repro.consistency.multiplex import ObjectCheckerMux
from repro.consistency.shardmerge import merge_namespace_verdicts
from repro.consistency.stream import READ, WRITE


def feed_clean_history(recorder, *, prefix, base=0.0):
    """A tiny linearizable history: w(v1) -> r/v1 -> w(v2) -> r/v2."""
    v1, v2 = f"{prefix}-v1".encode(), f"{prefix}-v2".encode()
    recorder.invoke(f"{prefix}w1", WRITE, "w0", base + 0.0, value=v1)
    recorder.respond(f"{prefix}w1", base + 1.0)
    recorder.invoke(f"{prefix}r1", READ, "r0", base + 2.0)
    recorder.respond(f"{prefix}r1", base + 3.0, value=v1)
    recorder.invoke(f"{prefix}w2", WRITE, "w0", base + 4.0, value=v2)
    recorder.respond(f"{prefix}w2", base + 5.0)
    recorder.invoke(f"{prefix}r2", READ, "r0", base + 6.0)
    recorder.respond(f"{prefix}r2", base + 7.0, value=v2)


def inject_stale_read(recorder, *, prefix, base=8.0):
    """Read the overwritten v1 after both writes completed: a violation."""
    recorder.invoke(f"{prefix}bad", READ, "r0", base + 0.0)
    recorder.respond(f"{prefix}bad", base + 1.0, value=f"{prefix}-v1".encode())



def shard_verdicts(mux, shard_index=0):
    """Every object's contribution (shard ``shard_index``) to a namespace check."""
    return [mux.shard_verdict(shard_index, j) for j in range(len(mux))]

class TestIsolation:
    """The satellite acceptance: a violation injected on object k flags
    exactly object k, never its neighbours."""

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_violation_flags_only_the_injected_object(self, victim):
        mux = ObjectCheckerMux(3, window=16)
        for j in range(3):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
        inject_stale_read(mux.recorder(victim), prefix=f"o{victim}")
        assert not mux.ok
        assert mux.flagged_objects() == [victim]
        for j in range(3):
            assert mux.checker(j).ok == (j != victim)
        tagged = mux.violations()
        assert {obj for obj, _ in tagged} == {victim}
        assert all(not mux.checker(j).violations for j in range(3) if j != victim)

    def test_phantom_read_on_one_object(self):
        mux = ObjectCheckerMux(2, window=16)
        feed_clean_history(mux.recorder(0), prefix="o0")
        feed_clean_history(mux.recorder(1), prefix="o1")
        recorder = mux.recorder(1)
        recorder.invoke("o1phantom", READ, "r0", 20.0)
        recorder.respond("o1phantom", 21.0, value=b"\xffnever-written\xff")
        assert mux.flagged_objects() == [1]
        kinds = [v.kind for _, v in mux.violations()]
        assert kinds == ["unwritten-value"]

    def test_same_value_on_two_objects_is_not_a_duplicate(self):
        """Write values only need to be distinct per register: the mux must
        not cross-contaminate value digests between objects."""
        mux = ObjectCheckerMux(2, window=16)
        for j in range(2):
            recorder = mux.recorder(j)
            recorder.invoke(f"o{j}w", WRITE, "w0", 0.0, value=b"shared-value")
            recorder.respond(f"o{j}w", 1.0)
        assert mux.ok


class TestMuxAccounting:
    def test_counters_and_residency(self):
        mux = ObjectCheckerMux(2, window=2)
        feed_clean_history(mux.recorder(0), prefix="o0")
        assert mux.ops_seen == 4
        assert mux.checker(0).ops_seen == 4
        assert mux.checker(1).ops_seen == 0
        assert mux.max_resident >= 2
        assert mux.evicted_count >= 1  # window 2, four retirements
        assert len(mux) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one object"):
            ObjectCheckerMux(0)


class TestNamespaceMerge:
    def test_merges_per_object_and_aggregates(self):
        mux = ObjectCheckerMux(3, window=16)
        for j in range(3):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
        inject_stale_read(mux.recorder(2), prefix="o2")
        verdicts = shard_verdicts(mux)
        assert len(verdicts) == 3
        merged = merge_namespace_verdicts([[v] for v in verdicts])
        assert not merged.ok
        assert merged.objects == 3
        assert merged.flagged_objects() == [2]
        assert merged.per_object[0].ok and merged.per_object[1].ok
        assert not merged.per_object[2].ok
        assert {obj for obj, _ in merged.violations()} == {2}
        # Aggregates sum over objects.
        assert merged.ops_seen == sum(v.ops_seen for v in verdicts)
        assert merged.clusters == sum(
            v.clusters for v in merged.per_object
        )

    def test_jsonable_shape(self):
        mux = ObjectCheckerMux(2, window=16)
        for j in range(2):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
        merged = merge_namespace_verdicts([[v] for v in shard_verdicts(mux)])
        payload = merged.to_jsonable()
        assert payload["ok"] is True
        assert payload["objects"] == 2
        assert payload["flagged_objects"] == []
        assert len(payload["per_object"]) == 2
        assert all(entry["ok"] for entry in payload["per_object"])

    def test_empty_namespace(self):
        merged = merge_namespace_verdicts([])
        assert merged.ok
        assert merged.objects == 0
        assert merged.shards == 0


class TestVerdictsTrackTheHistory:
    """Every accessor reads the live checkers: current after each record,
    a function of the recorded history and nothing else."""

    def test_accessors_are_current_after_every_record(self):
        mux = ObjectCheckerMux(2, window=16)
        feed_clean_history(mux.recorder(0), prefix="o0")
        feed_clean_history(mux.recorder(1), prefix="o1")
        assert mux.violations() == []
        assert mux.flagged_objects() == []
        inject_stale_read(mux.recorder(1), prefix="o1")
        assert [obj for obj, _ in mux.violations()] == [1]
        assert mux.flagged_objects() == [1]
        assert not mux.object_ok(1) and mux.object_ok(0)

    @staticmethod
    def _stale_read_on_object_two():
        mux = ObjectCheckerMux(4, window=16)
        for j in range(4):
            feed_clean_history(mux.recorder(j), prefix=f"o{j}")
            feed_clean_history(mux.recorder(j), prefix=f"x{j}", base=20.0)
        inject_stale_read(mux.recorder(2), prefix="o2", base=50.0)
        return mux

    def test_one_stale_read_is_exactly_one_report(self):
        """At the parent this feed exported one ``cluster-cycle`` report
        checked serially and four with ``workers=2``, whose chunk-end
        testing reported the crossing once per involved cluster."""
        mux = self._stale_read_on_object_two()
        reports = mux.violations()
        assert [(obj, v.kind) for obj, v in reports] == [(2, "cluster-cycle")]
        assert mux.checker(2).violations == [reports[0][1]]
        for j in (0, 1, 3):
            assert mux.checker(j).violations == []
        assert len(mux.shard_verdict(0, 2).violations) == 1

    def test_two_muxes_fed_the_same_events_export_equal_verdicts(self):
        first, second = (self._stale_read_on_object_two() for _ in range(2))
        assert shard_verdicts(first) == shard_verdicts(second)
        assert first.violations() == second.violations()

    def test_abandoned_writes_leave_nothing_behind(self):
        mux = ObjectCheckerMux(2, window=16)
        for j in range(2):
            recorder = mux.recorder(j)
            feed_clean_history(recorder, prefix=f"o{j}")
            recorder.invoke(f"o{j}-dead", WRITE, "wx", 30.0, value=b"abandoned")
            recorder.mark_failed(f"o{j}-dead")
            feed_clean_history(recorder, prefix=f"x{j}", base=40.0)
        assert mux.ok
        assert not any(checker._open_write_keys for checker in mux.checkers)
