"""Tests for the sharded sweep engine: determinism, ordering, seeds."""

import pytest

from repro.analysis import experiments as exp
from repro.analysis.engine import fleet_object_seed
from repro.analysis.sweep import SweepSpec, derive_seed, iter_sweep, run_sweep
from repro.analysis.sweeps import available_sweeps, rows_as_dicts, run_named_sweep
from repro.workloads.faults import fault_seed


def echo_point(*, label: str, scale: int, seed: int) -> dict:
    """Module-level (hence picklable) point function used by the tests."""
    return {"label": label, "scale": scale, "seed": seed}


def _spec(points=3, base_seed=0):
    return SweepSpec(
        name="echo",
        fn=echo_point,
        grid=tuple({"label": f"p{i}", "scale": i} for i in range(points)),
        base_seed=base_seed,
    )


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(0, "storage", 1) == derive_seed(0, "storage", 1)

    def test_varies_with_every_component(self):
        base = derive_seed(0, "storage", 1)
        assert derive_seed(1, "storage", 1) != base
        assert derive_seed(0, "write-cost", 1) != base
        assert derive_seed(0, "storage", 2) != base

    def test_text_formats_are_pinned(self):
        """The three derived-seed families share one rule and differ only
        in their text formats, which are committed bytes (every artefact
        under ``results/`` descends from them)."""
        assert derive_seed(0, "longrun", 0) == 45555707255896427
        assert derive_seed(12345, "multiobj", 7) == 6718459430949554245
        assert fault_seed(0, "crash", 0) == 6600943012843402091
        assert fault_seed(12345, "withhold-objects", 3) == 3047226056859978451
        assert fleet_object_seed(0, 0) == 7873489990770789343
        assert fleet_object_seed(12345, 7) == 1804012197883522832

    def test_points_carry_derived_seeds(self):
        points = _spec(points=3, base_seed=9).points()
        assert [p.index for p in points] == [0, 1, 2]
        assert len({p.seed for p in points}) == 3
        assert points[1].seed == derive_seed(9, "echo", 1)


class TestRunSweep:
    def test_serial_results_ordered(self):
        results = run_sweep(_spec(points=4), jobs=1)
        assert [r["label"] for r in results] == ["p0", "p1", "p2", "p3"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(_spec(), jobs=0)

    def test_multiprocess_matches_serial(self):
        spec = _spec(points=5, base_seed=3)
        assert run_sweep(spec, jobs=1) == run_sweep(spec, jobs=2)


class TestIterSweep:
    def test_serial_yields_in_point_order(self):
        pairs = list(iter_sweep(_spec(points=4), jobs=1))
        assert [i for i, _ in pairs] == [0, 1, 2, 3]
        assert [r["label"] for _, r in pairs] == ["p0", "p1", "p2", "p3"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            list(iter_sweep(_spec(), jobs=0))

    def test_unordered_stream_covers_every_point(self):
        """jobs>1 yields in completion order; index + result pairs must
        reconstruct exactly the serial results (the order-restoring merge
        the longrun engine builds on)."""
        spec = _spec(points=5, base_seed=3)
        serial = run_sweep(spec, jobs=1)
        collected = {}
        for index, result in iter_sweep(spec, jobs=2):
            assert index not in collected
            collected[index] = result
        assert [collected[i] for i in range(5)] == serial


class TestExperimentDeterminism:
    """The acceptance property: any --jobs count, byte-identical results."""

    def test_storage_sweep_identical_across_jobs(self):
        serial = exp.storage_cost_vs_f(n=8, f_values=(1, 2, 3), seed=5, jobs=1)
        sharded = exp.storage_cost_vs_f(n=8, f_values=(1, 2, 3), seed=5, jobs=2)
        assert serial == sharded

    def test_atomicity_identical_across_jobs(self):
        serial = exp.atomicity_experiment("SODA", executions=2, seed=5, jobs=1)
        sharded = exp.atomicity_experiment("SODA", executions=2, seed=5, jobs=2)
        assert serial == sharded
        assert serial.incremental_agreements == serial.executions


class TestScenarioSweeps:
    def test_skew_experiment_rows(self):
        rows = exp.skew_experiment(read_fractions=(0.25, 0.75), total_ops=8, seed=2)
        assert [r.read_fraction for r in rows] == [0.25, 0.75]
        for row in rows:
            assert row.completed == row.operations
            assert row.linearizable

    def test_crash_burst_experiment_rows(self):
        rows = exp.crash_burst_experiment(burst_widths=(0.0, 0.5), seed=3)
        for row in rows:
            assert row.crashed_servers == row.f
            assert row.linearizable

    def test_slow_disk_latency_grows(self):
        # Slowing <= f servers keeps stragglers off the quorum critical
        # path, so inject on f+1 servers to make the slowdown observable.
        rows = exp.slow_disk_experiment(
            extra_delays=(0.0, 5.0), slow_servers=3, seed=4
        )
        assert rows[1].max_read_latency > rows[0].max_read_latency + 1.0


class TestRegistry:
    def test_expected_names_present(self):
        names = available_sweeps()
        for required in (
            "storage",
            "write-cost",
            "read-cost",
            "latency",
            "sodaerr",
            "atomicity",
            "tradeoff",
            "skew",
            "crash-burst",
            "slow-disk",
        ):
            assert required in names

    def test_unknown_sweep_raises(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            run_named_sweep("nonsense")

    def test_named_sweep_runs_and_renders(self):
        rows = run_named_sweep("storage", seed=1)
        dicts = rows_as_dicts(rows)
        assert dicts and all("measured" in d for d in dicts)
