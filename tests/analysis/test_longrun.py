"""Tests for the sharded streaming long-run engine."""

import json

import pytest

from repro.analysis import engine
from repro.analysis.engine import (
    EPOCH_GAP,
    artefact_paths,
    run_experiment,
    write_artefacts,
)
from repro.consistency.incremental import check_history_incrementally
from repro.consistency.wgl import check_linearizability

#: An initial value nothing in a long run ever writes or reads — the merged
#: replay history models every epoch's initial state as an explicit marker
#: write, so the register effectively has no distinguished initial value.
GENESIS = b"<genesis>"


def small_run(**overrides):
    defaults = dict(protocol="SODA", ops=240, epoch_ops=80, jobs=1, seed=11)
    defaults.update(overrides)
    return run_experiment("longrun", defaults.pop("protocol"), **defaults)


class TestVerdictCrossValidation:
    def test_merged_verdict_matches_monolithic_checkers(self):
        """Rebuild the merged global history of a small run and feed it to
        the single-stream incremental checker and WGL: all three verdict
        paths must agree that the real cluster execution is atomic."""
        report = small_run(ops=180, epoch_ops=60, keep_records=True)
        history = report.replay_histories[0]
        assert len(history) == report.issued + len(report.epochs)  # + markers
        assert report.ok
        assert bool(check_history_incrementally(history, initial_value=GENESIS))
        assert bool(check_linearizability(history, initial_value=GENESIS))

    def test_epoch_timelines_are_disjoint(self):
        report = small_run(ops=240, epoch_ops=80, keep_records=True)
        spans = []
        for row in report.epochs:
            spans.append((row.offset, row.offset + row.end_time))
        for (start, end), (next_start, _) in zip(spans, spans[1:]):
            assert end + EPOCH_GAP <= next_start + 1e-9
        # Every replayed record falls inside its epoch's global span.
        for op in report.replay_histories[0].operations():
            assert op.invoked_at >= spans[0][0] - EPOCH_GAP

    @pytest.mark.parametrize("protocol", ["SODA", "SODAerr", "ABD", "CAS", "CASGC"])
    def test_every_protocol_streams_atomically(self, protocol):
        report = run_experiment(
            "longrun", protocol, ops=120, epoch_ops=60, jobs=1, seed=23
        )
        assert report.ok, (
            report.verdict.violations,
            report.local_violations,
        )
        assert report.issued == 120
        assert report.completed == 120
        assert report.verdict.shards == 2

    def test_rebased_writes_sit_where_the_replay_has_them(self):
        check_rebased_writes_sit_where_the_replay_has_them()

    def test_online_checkers_run_per_epoch(self):
        report = small_run()
        assert all(row.checker_ok for row in report.epochs)
        assert report.verdict.ops_seen == report.issued
        assert report.distinct_writes == report.writes


def check_rebased_writes_sit_where_the_replay_has_them():
    """The merged verdict and the kept replay history see one global
    timeline: every write a rebased epoch verdict claims (its marker write
    included) is invoked where the replay history invokes it."""
    rebase = engine.rebase_verdict
    rebased = []

    def spy(verdict, epoch_index, offset):
        rebased.append(rebase(verdict, epoch_index, offset))
        return rebased[-1]

    engine.rebase_verdict = spy
    try:
        report = small_run(ops=120, epoch_ops=60, keep_records=True)
    finally:
        engine.rebase_verdict = rebase
    replayed = {
        op.op_id: op.invoked_at for op in report.replay_histories[0].operations()
    }
    claims = [(v.index, s) for v in rebased for s in v.summaries if s.has_write]
    assert len(claims) > len(report.epochs)
    for epoch, summary in claims:
        assert summary.write_invoked == replayed[summary.write_id], (
            f"epoch {epoch}: write {summary.write_id} rebased to "
            f"{summary.write_invoked} but replayed at {replayed[summary.write_id]}"
        )


class TestBoundedMemory:
    def test_resident_records_stay_near_window(self):
        report = small_run(ops=400, epoch_ops=100, window=32)
        # window + one in-flight op per client (4 clients here).
        assert report.stream_max_resident <= 32 + 4
        assert report.params["window"] == 32

    def test_eviction_happens(self):
        report = small_run(ops=400, epoch_ops=100, window=16)
        assert all(row.evicted > 0 for row in report.epochs)


class TestWholeHistoryGuard:
    def test_keep_records_unlocks_whole_history_analyses(self):
        report = small_run(ops=120, epoch_ops=60, keep_records=True)
        writes = report.replay_histories[0].writes()
        completed = [op for op in writes if op.is_complete]
        assert len(completed) == report.writes + len(report.epochs)


class TestArtefacts:
    def test_written_files_and_paths(self, tmp_path):
        report = small_run()
        json_path, csv_path = write_artefacts(report, tmp_path)
        assert (json_path, csv_path) == artefact_paths(report, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "longrun"
        assert payload["protocol"] == "SODA"
        assert payload["verdict"]["ok"] is True
        assert payload["totals"]["issued"] == 240
        assert len(payload["epochs"]) == 3
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("index,seed,ops,")
        assert len(lines) == 1 + 3

    def test_jsonable_excludes_wall_clock(self):
        payload = small_run().to_jsonable()
        flat = json.dumps(payload)
        assert "wall" not in flat
        assert "ops_per_s" not in flat


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="ops must be positive"):
            run_experiment("longrun", "SODA", ops=0)
        with pytest.raises(ValueError, match="epoch_ops must be positive"):
            run_experiment("longrun", "SODA", ops=10, epoch_ops=0)
        with pytest.raises(ValueError, match="single register"):
            run_experiment("longrun", "SODA", ops=10, objects=2)
        with pytest.raises(ValueError, match="fleet must be 1"):
            run_experiment("longrun", "SODA", ops=10, fleet=2)
        with pytest.raises(TypeError, match="unknown experiment parameter"):
            run_experiment("longrun", "SODA", ops=10, epochs=2)

    def test_last_epoch_takes_the_remainder(self):
        report = small_run(ops=250, epoch_ops=100)
        assert [row.ops for row in report.epochs] == [100, 100, 50]
        assert report.issued == 250
