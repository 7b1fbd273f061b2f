"""Engine-wide properties of :mod:`repro.analysis.engine`: the kind table,
the one report's rate definitions and the atomic artefact writer.

Per-kind behaviour lives in test_longrun / test_multiobj / test_openloop /
test_adversary_engine / test_fleet; byte-identity under scheduling in
test_determinism; golden bytes in test_golden_longrun.
"""

import csv
import warnings

import pytest

from repro.analysis import engine
from repro.analysis.engine import (
    DEFAULTS,
    KINDS,
    artefact_paths,
    build_grid,
    run_cell,
    run_experiment,
    write_artefacts,
)
from repro.analysis.pool import WorkerDied


class TestKindTable:
    def test_seven_kinds_with_consistent_schemas(self):
        assert len(KINDS) == 7
        for name, kind in KINDS.items():
            assert kind.name == name
            assert kind.driver in ("closed", "open", "audited")
            assert set(kind.defaults) <= set(DEFAULTS)
            assert kind.epoch_columns[:3] == ("index", "seed", "ops")
            if kind.object_columns:
                assert kind.object_columns[:3] == ("epoch", "object", "seed")
            # Every total folds a column the epoch rows actually carry.
            for total in kind.totals:
                source = engine._DERIVED.get(total, (total,))[0]
                assert total == "sim_ops_per_s" or source in kind.epoch_columns
            # Private clocks give every object row its own end_time.
            assert kind.private == (
                bool(kind.object_columns) and "end_time" in kind.object_columns
            )

    def test_shared_seed_streams(self):
        """Fleet kinds reuse the shared-clock kind's epoch-seed stream, so
        per-object driver outcomes cross-validate against it."""
        streams = {name: kind.seed_name for name, kind in KINDS.items()}
        assert streams["fleet-longrun"] == streams["multiobj-longrun"]
        assert streams["fleet-openloop"] == streams["openloop"]
        assert streams["fleet-adversary"] == streams["adversary-longrun"]


class TestTruncationGuards:
    """A truncated cell must fail the run, not fold partial counters into
    the report — for every driver of the one cell runner."""

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("openloop", dict(arrival="poisson:2", num_writers=4, num_readers=4)),
            ("longrun", dict(mean_gap=1.0, num_writers=4, num_readers=4)),
            ("fleet-longrun", dict(objects=2)),
            ("adversary-longrun", dict(objects=2)),
        ],
    )
    def test_truncated_cell_raises(self, kind, params):
        grid = build_grid(kind, "SODA", ops=200, n=5, f=2, seed=3, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="truncated"):
                run_cell({**grid.cells[0], "max_events": 100})


class TestLostCellsAreNamed:
    """A run that loses cells says which: ``<kind> epoch E cell C`` in the
    error's message and in its ``cells``."""

    PARAMS = dict(ops=200, epoch_ops=100, objects=2, fleet=2, jobs=2, n=5, f=2)

    def test_a_raising_cell_names_itself(self, monkeypatch):
        real = engine._run_group

        def raises_in_epoch_one(cell, gids):
            if cell["epoch"] == 1:
                raise ValueError("injected")
            return real(cell, gids)

        monkeypatch.setattr(engine, "_run_group", raises_in_epoch_one)
        with pytest.raises(ValueError, match="^longrun epoch 1 cell 0: injected$") as e:
            run_experiment("longrun", "SODA", ops=200, epoch_ops=100, n=5, f=2, jobs=1)
        assert e.value.cells == ("longrun epoch 1 cell 0",)
        assert e.value.payload_index == 1

    def test_a_dead_worker_names_the_unfinished_cells(self, monkeypatch):
        grid = build_grid("fleet-longrun", "SODA", **self.PARAMS)
        assert (grid.epochs, grid.width) == (2, 2)
        assert [grid.cells[i]["epoch"] for i in (1, 2)] == [0, 1]

        def dies(fn, payloads, *, jobs):
            assert jobs > 1 and payloads == grid.cells
            raise WorkerDied([1, 2])

        monkeypatch.setattr(engine, "iter_unordered", dies)
        with pytest.raises(WorkerDied) as caught:
            run_experiment("fleet-longrun", "SODA", **self.PARAMS)
        names = ("fleet-longrun epoch 0 cell 1", "fleet-longrun epoch 1 cell 0")
        assert caught.value.cells == names
        assert caught.value.indices == (1, 2)
        assert str(caught.value) == (
            f"a pool worker died before reporting; {', '.join(names)} did not finish"
        )


LOSSY = dict(
    ops=300,
    epoch_ops=150,
    objects=3,
    key_dist="zipf:1.1",
    arrival="poisson:8",
    policy="shed-reads",
    queue_per_server=1,
    num_writers=1,
    num_readers=1,
    n=5,
    f=2,
    seed=5,
    # Withheld elements park reads past the end of the epoch, so some
    # issued operations never complete.
    faults="withhold:1:5:400",
)


class TestRatesCountCompletedOperations:
    """One meaning of ``ops_per_s``: completed operations, fleet or not
    (the fleet reports used to divide *issued* by the same denominators,
    overstating a lossy run's rate)."""

    @pytest.mark.parametrize(
        "kind, extra", [("openloop", {}), ("fleet-openloop", {"fleet": 2})]
    )
    def test_lossy_run_rates(self, kind, extra):
        report = run_experiment(kind, "SODA", **LOSSY, **extra)
        assert report.rejected > 0 and report.shed_reads > 0
        assert report.completed < report.issued < report.arrived
        assert report.ops_per_s == report.completed / report.wall_s
        assert report.ops_per_cpu_s == report.completed / report.cpu_s
        assert report.events_per_cpu_s == report.events / report.cpu_s
        assert report.ops_per_s < report.issued / report.wall_s

    def test_totals_and_params_read_as_attributes(self):
        report = run_experiment("openloop", "SODA", **LOSSY)
        assert report.completed == report.totals["completed"]
        assert report.slo_ms == report.params["slo_ms"] == 10.0
        assert report.objects == 3
        with pytest.raises(AttributeError):
            report.no_such_total


class TestAtomicArtefacts:
    @pytest.fixture(scope="class")
    def report(self):
        return run_experiment(
            "multiobj-longrun", "SODA", ops=120, epoch_ops=60, objects=2, seed=3
        )

    def test_csv_header_is_the_schema(self, report, tmp_path):
        _, csv_path = write_artefacts(report, tmp_path)
        with csv_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == report.kind.object_columns
        assert len(rows) == 1 + len(report.object_rows)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in artefact_paths(report, tmp_path)
        )

    def test_failed_csv_stage_leaves_nothing_behind(
        self, report, tmp_path, monkeypatch
    ):
        def explode(report, path):
            path.write_text("epoch,obj")  # a half-written file
            raise OSError("disk full")

        monkeypatch.setattr(engine, "_write_csv", explode)
        with pytest.raises(OSError, match="disk full"):
            write_artefacts(report, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_previous_pair_intact(
        self, report, tmp_path, monkeypatch
    ):
        paths = write_artefacts(report, tmp_path)
        before = [path.read_bytes() for path in paths]

        def explode(report, path):
            raise OSError("disk full")

        monkeypatch.setattr(engine, "_write_csv", explode)
        with pytest.raises(OSError):
            write_artefacts(report, tmp_path)
        assert [path.read_bytes() for path in paths] == before
        assert sorted(tmp_path.iterdir()) == sorted(paths)
