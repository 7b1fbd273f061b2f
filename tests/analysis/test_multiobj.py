"""Tests for the multi-object (namespace) sharded long-run engine."""

import json

import pytest

from repro.analysis.engine import artefact_paths, run_experiment, write_artefacts
from repro.consistency.incremental import check_history_incrementally
from repro.consistency.wgl import check_linearizability

#: An initial value nothing in a long run ever writes or reads — every
#: epoch's per-object initial state is modelled as an explicit marker
#: write, exactly as in the single-register long-run replay.
GENESIS = b"<genesis>"


def small_run(**overrides):
    defaults = dict(
        protocol="SODA",
        ops=240,
        epoch_ops=80,
        jobs=1,
        objects=3,
        key_dist="zipf:1.0",
        seed=11,
    )
    defaults.update(overrides)
    return run_experiment("multiobj-longrun", defaults.pop("protocol"), **defaults)


class TestVerdictCrossValidation:
    def test_per_object_verdicts_match_monolithic_checkers(self):
        """Acceptance: rebuild each object's merged global history and feed
        it to the single-stream incremental checker and WGL — all three
        verdict paths must agree per object."""
        report = small_run(ops=180, epoch_ops=60, keep_records=True)
        assert report.ok
        for j in range(report.objects):
            history = report.replay_histories[j]
            # markers: one per epoch; plus every operation the object served
            ops_served = sum(
                row.issued for row in report.object_rows if row.object == j
            )
            assert len(history) == ops_served + len(report.epochs)
            assert bool(check_history_incrementally(history, initial_value=GENESIS))
            assert bool(check_linearizability(history, initial_value=GENESIS))

    def test_namespace_verdict_shape(self):
        report = small_run()
        verdict = report.verdict
        assert verdict.objects == 3
        assert verdict.shards == len(report.epochs)
        assert len(verdict.per_object) == 3
        assert all(v.ok for v in verdict.per_object)
        assert verdict.ops_seen == report.issued
        assert verdict.flagged_objects() == []

    @pytest.mark.parametrize("protocol", ["SODA", "ABD", "CAS"])
    def test_other_protocols_stream_atomically(self, protocol):
        report = run_experiment(
            "multiobj-longrun",
            protocol,
            ops=120,
            epoch_ops=60,
            jobs=1,
            objects=2,
            key_dist="uniform",
            seed=23,
        )
        assert report.ok, report.verdict.violations()
        assert report.issued == 120
        assert report.completed == 120


class TestKeyedLoad:
    def test_zipf_concentrates_on_the_hot_object(self):
        report = small_run(objects=4, key_dist="zipf:2.0", ops=400, epoch_ops=100)
        totals = [t["issued"] for t in report.object_totals()]
        assert sum(totals) == 400
        assert totals[0] > totals[-1]
        assert totals[0] > 400 // 4

    def test_uniform_spreads_the_load(self):
        report = small_run(objects=4, key_dist="uniform", ops=400, epoch_ops=100)
        totals = [t["issued"] for t in report.object_totals()]
        assert sum(totals) == 400
        assert max(totals) < 2 * min(totals) + 40  # no systematic hot key

    def test_params_record_the_canonical_dist(self):
        report = small_run(key_dist="ZIPF:1.10")
        assert report.params["key_dist"] == "zipf:1.1"


class TestBoundedMemory:
    def test_resident_records_stay_near_window(self):
        report = small_run(ops=300, epoch_ops=100, window=16)
        # Per-object recorders: window + one in-flight op per client
        # (1 writer + 1 reader per object here).
        assert report.stream_max_resident <= 16 + 2
        assert report.params["window"] == 16


class TestArtefacts:
    def test_written_files_and_paths(self, tmp_path):
        report = small_run()
        json_path, csv_path = write_artefacts(report, tmp_path)
        assert (json_path, csv_path) == artefact_paths(report, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "multiobj-longrun"
        assert payload["protocol"] == "SODA"
        assert payload["params"]["objects"] == 3
        assert payload["verdict"]["ok"] is True
        assert len(payload["verdict"]["per_object"]) == 3
        assert payload["totals"]["issued"] == 240
        assert len(payload["epochs"]) == 3
        assert len(payload["object_rows"]) == 3 * 3  # epochs x objects
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,object,seed,")
        assert len(lines) == 1 + 3 * 3

    def test_jsonable_excludes_wall_clock(self):
        flat = json.dumps(small_run().to_jsonable())
        assert "wall" not in flat
        assert "ops_per_s" not in flat


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="ops must be positive"):
            run_experiment("multiobj-longrun", "SODA", ops=0, objects=2)
        with pytest.raises(ValueError, match="objects must be positive"):
            run_experiment("multiobj-longrun", "SODA", ops=10, objects=0)
        with pytest.raises(ValueError, match="unknown key distribution"):
            run_experiment(
                "multiobj-longrun", "SODA", ops=10, objects=2, key_dist="hotcold"
            )
