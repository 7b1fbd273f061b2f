"""Tests for the sharded adversarial long-run engine."""

import json

import pytest

from repro.analysis.engine import artefact_paths, run_experiment, write_artefacts

SMALL = dict(
    ops=600,
    epoch_ops=300,
    objects=2,
    faults="withhold:1:8:20;partition:2:2:5",
    audit_rounds=30,
    seed=11,
)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment("adversary-longrun", "SODA", **SMALL)


class TestDetectionColumns:
    def test_every_below_k_register_is_flagged_before_stall(self, small_report):
        below = [row for row in small_report.object_rows if row.below_k]
        assert below, "the planted withhold leg must push objects below k"
        for row in below:
            assert row.flagged
            assert row.detected_before_stall
            assert row.min_estimate < small_report.n - small_report.f
        assert small_report.detection_ok
        assert small_report.ok

    def test_no_false_flags_from_partition_within_f(self, small_report):
        # The partition leg isolates exactly f servers — k stay reachable,
        # so sound rows must never be flagged.
        sound = [row for row in small_report.object_rows if not row.below_k]
        assert all(not row.false_flag for row in sound)
        assert small_report.detection_summary()["false_flags"] == 0

    def test_ground_truth_matches_withhold_arithmetic(self, small_report):
        k = small_report.n - small_report.f
        for row in small_report.object_rows:
            if row.below_k:
                assert row.withheld == small_report.n - k + 1
                assert row.surviving_elements == k - 1

    def test_summary_is_consistent_with_rows(self, small_report):
        summary = small_report.detection_summary()
        below = [row for row in small_report.object_rows if row.below_k]
        assert summary["below_k_rows"] == len(below)
        assert summary["detected"] == sum(1 for r in below if r.flagged)
        assert summary["missed"] == len(below) - summary["detected"]
        assert summary["all_detected_before_stall"] == small_report.detection_ok

    def test_checker_verdict_holds_under_faults(self, small_report):
        assert small_report.checker_ok
        assert small_report.verdict.ok
        assert not small_report.local_violations

    def test_epochs_redraw_victims(self, small_report):
        # Faults derive from each epoch's seed, so two epochs of the same
        # object almost surely withhold different server subsets.
        specs = {
            (entry["epoch"], tuple(entry["withheld"]))
            for entry in small_report.object_faults
            if entry["withheld"]
        }
        epochs = {epoch for epoch, _ in specs}
        assert len(epochs) == 2


class TestParams:
    def test_params_carry_canonical_spec(self, small_report):
        assert small_report.params["faults"] == "withhold:1:8:20:0;partition:2:2:5"


class TestArtefacts:
    def test_write_and_paths(self, small_report, tmp_path):
        json_path, csv_path = write_artefacts(small_report, tmp_path)
        assert (json_path, csv_path) == artefact_paths(small_report, tmp_path)
        assert json_path.name == "adversary_soda_2x600.json"
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "adversary-longrun"
        assert payload["detection"]["all_detected_before_stall"] is True
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(small_report.object_rows)

    def test_rewrite_is_byte_identical(self, small_report, tmp_path):
        json_path, _ = write_artefacts(small_report, tmp_path)
        first = json_path.read_bytes()
        write_artefacts(small_report, tmp_path)
        assert json_path.read_bytes() == first


class TestValidation:
    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("adversary-longrun", "SODA", ops=0)
        with pytest.raises(ValueError):
            run_experiment("adversary-longrun", "SODA", stall_threshold=0.0)
        with pytest.raises(ValueError, match="stall_threshold must be positive"):
            run_experiment("adversary-longrun", "SODA", stall_threshold=float("nan"))
        with pytest.raises(ValueError):
            run_experiment("adversary-longrun", "SODA", faults="meteor:1")
        with pytest.raises(ValueError, match="must not be 'none'"):
            run_experiment("adversary-longrun", "SODA", faults="none")
