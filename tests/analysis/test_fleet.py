"""Tests for fleet mode: partitioned namespaces across OS processes.

The load-bearing property — partitioning is a *scheduling* choice, so
every artefact byte is independent of ``fleet`` and ``jobs`` — is
asserted for every kind at once in
``test_determinism.py``.  This file covers what is specific to the
private-clock grouping.  The cross-validation class pins the fleet
timeline to the shared-clock grouping: both draw the same
:func:`~repro.workloads.keyed.plan_objects` grid, so every object's
allocation, driver seed and issued count must match exactly.

Note the deliberate *limit* of that contract: the shared-clock run
schedules all objects on one simulation clock while each fleet object
runs on its own, and the closed-loop driver's write/read split is
client-timing dependent — so per-object ``writes``/``reads`` may drift
by a slot or two between the two groupings (their sum may not: every
issued operation is one or the other).  Fleet-vs-fleet stays exact.
"""

import json
import warnings

import pytest

from repro.analysis.engine import artefact_paths, run_experiment, write_artefacts
from repro.analysis.pool import in_order, iter_unordered, resolve_workers
from repro.sim.simulation import derive_seed


def small_fleet_run(**overrides):
    defaults = dict(
        protocol="SODA",
        ops=240,
        epoch_ops=120,
        fleet=1,
        jobs=1,
        objects=4,
        key_dist="zipf:1.1",
        n=5,
        seed=11,
    )
    defaults.update(overrides)
    return run_experiment("fleet-longrun", defaults.pop("protocol"), **defaults)


def check_every_epoch_folds_every_object():
    """A two-cell fleet run: every epoch's object rows name every object
    once, and the totals count every issued operation, so a fold that
    loses a cell's objects fails here by epoch."""
    report = small_fleet_run(fleet=2)
    for epoch in range(2):
        folded = sorted(row.object for row in report.object_rows if row.epoch == epoch)
        assert folded == [0, 1, 2, 3], f"epoch {epoch} folded objects {folded}"
    assert report.issued == 240


class TestFleetReports:
    def test_every_epoch_folds_every_object(self):
        check_every_epoch_folds_every_object()

    def test_adversary_detection_contract_holds_per_object(self):
        """Not just determinism: every withheld-below-k register flagged
        before any foreground stall, no healthy register ever flagged."""
        report = run_experiment(
            "fleet-adversary",
            "SODA",
            ops=240,
            epoch_ops=120,
            fleet=2,
            objects=4,
            key_dist="zipf:1.1",
            n=6,
            seed=11,
        )
        assert report.ok
        assert any(row.below_k for row in report.object_rows)
        assert all(
            row.detected_before_stall for row in report.object_rows if row.below_k
        )
        assert not any(row.false_flag for row in report.object_rows)

    def test_jsonable_excludes_scheduling_and_wall_clock(self):
        flat = json.dumps(small_fleet_run(fleet=2).to_jsonable())
        for needle in ("wall", "ops_per_s", "cpu_s", "rss", '"fleet":', '"jobs":'):
            assert needle not in flat, needle


class TestMonolithicCrossValidation:
    """Per-partition replay against the monolithic namespace engine."""

    def test_per_object_rows_match_the_monolithic_run(self):
        config = dict(
            ops=240, epoch_ops=120, objects=4, key_dist="zipf:1.1", n=5, seed=11
        )
        fleet_report = run_experiment("fleet-longrun", "SODA", fleet=2, **config)
        mono_report = run_experiment("multiobj-longrun", "SODA", jobs=1, **config)
        assert fleet_report.ok and mono_report.ok

        mono_rows = {(r.epoch, r.object): r for r in mono_report.object_rows}
        assert len(fleet_report.object_rows) == len(mono_rows)
        for row in fleet_report.object_rows:
            mono = mono_rows[(row.epoch, row.object)]
            # The shared plan: same multinomial allocation, same derived
            # driver seed, and the closed loop issues every allocated op.
            assert row.allocated == mono.allocated
            assert row.seed == mono.seed
            assert row.issued == mono.issued
            # The write/read split is client-timing dependent (see module
            # docstring) — only the sum is pinned.
            assert row.writes + row.reads == row.issued
            assert mono.writes + mono.reads == mono.issued
            assert row.checker_ok and mono.checker_ok

    def test_totals_match_the_monolithic_run(self):
        config = dict(
            ops=240, epoch_ops=120, objects=4, key_dist="zipf:1.1", n=5, seed=11
        )
        fleet_report = run_experiment("fleet-longrun", "SODA", fleet=4, **config)
        mono_report = run_experiment("multiobj-longrun", "SODA", jobs=1, **config)
        assert fleet_report.issued == mono_report.issued == 240
        assert [t["issued"] for t in fleet_report.object_totals()] == [
            t["issued"] for t in mono_report.object_totals()
        ]


class TestCapacityAccounting:
    def test_capacity_fields_populate(self):
        report = small_fleet_run(fleet=2)
        assert report.cpu_s > 0
        assert report.wall_s > 0
        assert report.ops_per_cpu_s > 0
        assert report.events_per_cpu_s > 0
        assert report.worker_max_rss_kb >= 0
        assert report.fleet == 2

    def test_artefact_paths_and_kind(self, tmp_path):
        report = small_fleet_run()
        json_path, csv_path = write_artefacts(report, tmp_path)
        assert (json_path, csv_path) == artefact_paths(report, tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "fleet-longrun"
        assert payload["params"]["objects"] == 4
        assert payload["totals"]["issued"] == 240
        assert len(payload["object_rows"]) == 2 * 4  # epochs x objects
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 4


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(0, "storage", 1) == derive_seed(0, "storage", 1)

    def test_varies_with_every_component(self):
        base = derive_seed(0, "storage", 1)
        assert derive_seed(1, "storage", 1) != base
        assert derive_seed(0, "write-cost", 1) != base
        assert derive_seed(0, "storage", 2) != base

    def test_fleet_object_seeds_are_spread(self):
        seeds = {derive_seed("fleet", 7, "object", gid) for gid in range(64)}
        assert len(seeds) == 64
        assert all(0 <= s < 2**63 - 1 for s in seeds)
        assert derive_seed("fleet", 8, "object", 0) != derive_seed(
            "fleet", 7, "object", 0
        )

    def test_text_formats_are_pinned(self):
        """The three derived-seed families (epochs and sweep points, fault
        legs, fleet objects) share one rule and differ only in their parts,
        which are committed bytes (every artefact under ``results/``
        descends from them)."""
        assert derive_seed(0, "longrun", 0) == 45555707255896427
        assert derive_seed(12345, "multiobj", 7) == 6718459430949554245
        assert derive_seed("faults", 0, "crash", 0) == 6600943012843402091
        assert (
            derive_seed("faults", 12345, "withhold-objects", 3)
            == 3047226056859978451
        )
        assert derive_seed("fleet", 0, "object", 0) == 7873489990770789343
        assert derive_seed("fleet", 12345, "object", 7) == 1804012197883522832


class TestPoolHelpers:
    def test_in_order_restores_grid_order(self):
        shuffled = [(2, "c"), (0, "a"), (3, "d"), (1, "b")]
        assert list(in_order(shuffled)) == ["a", "b", "c", "d"]

    def test_in_order_raises_on_a_gap(self):
        with pytest.raises(RuntimeError, match="gap at index 1"):
            list(in_order([(0, "a"), (2, "c")]))

    def test_iter_unordered_serial_preserves_payload_order(self):
        assert list(iter_unordered(str, [3, 1, 2], jobs=1)) == ["3", "1", "2"]

    def test_iter_unordered_validates_jobs(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            list(iter_unordered(str, [1], jobs=0))

    def test_resolve_workers_validates(self):
        with pytest.raises(ValueError, match="at least one worker"):
            resolve_workers(0)

    def test_resolve_workers_degrades_inside_pool_workers(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "parent_process", object)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_workers(4, what="fleet cells") == 1
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "fleet cells" in str(w.message)
            for w in caught
        )

    def test_resolve_workers_passes_through_outside_pool_workers(self):
        assert resolve_workers(4) == 4


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="ops must be positive"):
            run_experiment("fleet-longrun", "SODA", ops=0, objects=2)
        with pytest.raises(ValueError, match="fleet must be positive"):
            run_experiment("fleet-longrun", "SODA", ops=10, objects=2, fleet=0)
        with pytest.raises(ValueError, match="unknown key distribution"):
            run_experiment(
                "fleet-longrun", "SODA", ops=10, objects=2, key_dist="hotcold"
            )
