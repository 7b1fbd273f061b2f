"""Tests for the epoch-sharded open-loop analysis engine."""

import numpy as np
import pytest

from repro.analysis.engine import artefact_paths, run_experiment


def small_run(**overrides):
    defaults = dict(
        protocol="SODA",
        ops=400,
        epoch_ops=100,
        jobs=1,
        arrival="poisson:2",
        n=5,
        f=2,
        num_writers=4,
        num_readers=4,
        seed=11,
    )
    defaults.update(overrides)
    return run_experiment("openloop", defaults.pop("protocol"), **defaults)


class TestArtefactPaths:
    def test_artefact_paths_stem(self, tmp_path):
        report = small_run(ops=200, epoch_ops=100)
        json_path, csv_path = artefact_paths(report, tmp_path)
        assert json_path.name == "openloop_soda_poisson_1x200.json"
        assert csv_path.name == "openloop_soda_poisson_1x200.csv"


class TestReport:
    def test_totals_and_epochs_consistent(self):
        report = small_run()
        assert len(report.epochs) == 4
        assert report.arrived == 400
        assert report.completed == sum(r.completed for r in report.epochs)
        assert report.completed > 0
        payload = report.to_jsonable()
        assert payload["kind"] == "openloop"
        assert payload["totals"]["completed"] == report.completed
        assert payload["params"]["arrival"] == "poisson:2"
        assert len(payload["epochs"]) == 4

    def test_percentiles_cross_validate_against_exact_samples(self):
        report = small_run(ops=2_000, epoch_ops=500, keep_samples=True)
        samples = np.array(report.samples["read"] + report.samples["write"])
        assert len(samples) == report.completed
        for p, approx in ((50.0, report.p50), (99.0, report.p99)):
            exact = float(np.percentile(samples, p))
            assert abs(approx - exact) / exact < 0.03, (p, exact, approx)
        # SLO attainment against the exact sample fraction.
        exact_att = float((samples <= report.slo_ms).mean())
        assert report.slo_attainment() == pytest.approx(exact_att, abs=0.02)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            small_run(arrival="bogus")
        with pytest.raises(ValueError, match="slo"):
            small_run(slo=0.0)
