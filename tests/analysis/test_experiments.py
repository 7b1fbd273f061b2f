"""The paper's sweeps: the table, its one runner, and the claims themselves.

Every claim of the paper's evaluation is checked here on measured rows
(the cases the pytest-benchmark files under ``benchmarks/`` used to hold
are the ``parametrize`` inputs), and every row at the table defaults is
pinned against ``tests/golden/paper_sweeps_seed0.json``.
"""

import json
import math

import pytest

from repro.analysis.experiments import SWEEPS, Sweep, run_sweep
from repro.baselines.registry import available_protocols
from repro.sim.simulation import derive_seed
from tests.golden.capture_goldens import GOLDEN_DIR, sweep_rows


GOLDEN = json.loads((GOLDEN_DIR / "paper_sweeps_seed0.json").read_text())


def echo_point(*, label: str, scale: int, seed: int) -> dict:
    return {"label": label, "scale": scale, "seed": seed}


class TestRunSweep:
    @pytest.fixture
    def echo(self, monkeypatch):
        monkeypatch.setitem(
            SWEEPS, "echo", Sweep("echo", echo_point, "scale", (0, 1, 2), {"label": "x"})
        )

    def test_point_i_runs_on_the_seed_derived_from_name_and_index(self, echo):
        rows = run_sweep("echo", seed=9)
        assert [r["scale"] for r in rows] == [0, 1, 2]
        assert [r["seed"] for r in rows] == [derive_seed(9, "echo", i) for i in range(3)]

    def test_values_and_fixed_keywords_override_the_row(self, echo):
        rows = run_sweep("echo", values=(7, 5), label="y")
        assert [(r["label"], r["scale"]) for r in rows] == [("y", 7), ("y", 5)]
        assert rows[1]["seed"] == derive_seed(0, "echo", 1)

    def test_a_keyword_the_row_does_not_hold_fixed_is_refused(self, echo):
        for keyword in ("scale", "jobs"):
            with pytest.raises(ValueError, match=f"no keyword {keyword} fixed"):
                run_sweep("echo", **{keyword: 2})

    def test_unknown_sweep_raises(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            run_sweep("nonsense")

    def test_atomicity_seed_text_carries_the_protocol(self, monkeypatch):
        seeds = []

        def refuse(protocol, n, f, *, seed, **kwargs):
            seeds.append(seed)
            raise ValueError("far enough")

        monkeypatch.setattr("repro.analysis.experiments.make_cluster", refuse)
        with pytest.raises(ValueError, match="far enough"):
            run_sweep("atomicity", seed=3, protocol="SODAerr")
        assert seeds == [derive_seed(3, "atomicity-SODAERR", 0)]


class TestTable:
    def test_the_ten_sweeps(self):
        assert list(SWEEPS) == [
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
        ]

    def test_the_golden_names_every_sweep(self):
        assert list(GOLDEN) == list(SWEEPS)

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_rows_at_the_table_defaults_match_the_golden(self, name):
        """Captured from the wrappers and the registry this table replaced
        (the commit before it): every row is the number it was."""
        assert sweep_rows(name) == GOLDEN[name]


class TestStorageSweep:
    @pytest.mark.parametrize("n, seed", [(8, 1), (8, 7), (10, 7), (12, 7)])
    def test_matches_theorem_5_3(self, n, seed):
        points = run_sweep("storage", seed=seed, n=n)
        assert [p.f for p in points] == list(range(1, (n - 1) // 2 + 1))
        for p in points:
            assert p.measured == pytest.approx(p.predicted)
            assert p.predicted == pytest.approx(n / (n - p.f))
            if not math.isnan(p.casgc_predicted):
                assert p.measured <= p.casgc_predicted + 1e-9
        # Storage grows with f but stays at most 2 for f <= (n-1)/2.
        measured = [p.measured for p in points]
        assert measured == sorted(measured)
        assert measured[-1] <= 2.0 + 1e-9

    def test_default_f_range_follows_n(self):
        assert [p.f for p in run_sweep("storage", seed=3, n=7)] == [1, 2, 3]


class TestWriteCostSweep:
    @pytest.mark.parametrize("n, seed", [(None, 11), (11, 13)])
    def test_within_5f_squared(self, n, seed):
        points = run_sweep("write-cost", seed=seed, n=n)
        assert [p.f for p in points] == [1, 2, 3, 4, 5]
        for p in points:
            assert p.n == (2 * p.f + 1 if n is None else n)
            assert p.measured <= p.bound + 1e-9
        # Quadratic-ish growth: f=5 costs much more than 5x what f=1 costs.
        assert points[-1].measured > 5 * points[0].measured

    def test_fixed_n_stops_the_range_at_its_tolerance(self):
        points = run_sweep("write-cost", seed=3, n=9)
        assert [(p.n, p.f) for p in points] == [(9, 1), (9, 2), (9, 3), (9, 4)]


class TestReadCostVsConcurrency:
    @pytest.mark.parametrize("n, f, seed", [(6, 2, 1), (6, 2, 5), (8, 3, 5)])
    def test_bound_holds(self, n, f, seed):
        points = run_sweep("read-cost", seed=seed, n=n, f=f)
        assert [p.concurrent_writes for p in points] == [0, 1, 2, 4, 6]
        for p in points:
            assert p.measured_cost <= p.bound + 1e-9
        # Uncontended read costs exactly n/(n-f); contended ones may cost
        # more (elasticity).
        assert points[0].measured_cost == pytest.approx(n / (n - f))
        assert points[0].measured_delta_w == 0
        assert max(p.measured_cost for p in points) >= points[0].measured_cost


class TestLatency:
    @pytest.mark.parametrize("rounds, seed", [(2, 1), (3, 3)])
    def test_bounds_hold(self, rounds, seed):
        for result in run_sweep("latency", seed=seed, rounds=rounds):
            assert result.operations > 0
            assert result.max_write_latency <= result.write_bound + 1e-9
            assert result.max_read_latency <= result.read_bound + 1e-9

    def test_scales_with_delta(self):
        r1, r2 = (
            run_sweep("latency", seed=2, values=(delta,), n=5, rounds=1)[0]
            for delta in (1.0, 2.0)
        )
        assert r2.max_write_latency == pytest.approx(2 * r1.max_write_latency)

    def test_no_operation_reads_as_nan_not_zero(self):
        (row,) = run_sweep("latency", values=(1.0,), rounds=0)
        assert row.operations == 0
        assert math.isnan(row.max_write_latency)
        assert math.isnan(row.max_read_latency)


class TestSodaErrExperiment:
    @pytest.mark.parametrize("n, f, seed", [(10, 2, 1), (8, 2, 17), (10, 2, 17), (12, 4, 17)])
    def test_correctness_and_costs(self, n, f, seed):
        points = run_sweep("sodaerr", seed=seed, n=n, f=f)
        assert [p.e for p in points] == [0, 1, 2]
        for p in points:
            assert p.reads_correct
            assert p.measured_storage == pytest.approx(p.predicted_storage)
            assert p.measured_read_cost <= p.predicted_read_cost + 1e-9
            assert p.measured_write_cost <= p.write_bound + 1e-9
        assert points[1].errors_injected > 0
        # Storage grows with e: the price of error tolerance.
        storages = [p.measured_storage for p in points]
        assert storages == sorted(storages) and storages[0] < storages[2]

    def test_a_code_with_no_dimension_left_is_a_value_error(self):
        with pytest.raises(ValueError, match="k = n - f - 2e"):
            run_sweep("sodaerr", n=6)


class TestAtomicityExperiment:
    @pytest.mark.parametrize(
        "protocol, fixed, seed",
        [
            ("SODA", dict(), 1),
            ("ABD", dict(), 1),
            ("CASGC", dict(), 1),
            ("SODAerr", dict(n=7), 3),
            *((p, dict(n=6), 41) for p in ("SODA", "SODAerr", "ABD", "CASGC")),
            *((p, dict(crashes=2), 43) for p in ("SODA", "ABD")),
        ],
    )
    def test_all_executions_linearizable(self, protocol, fixed, seed):
        (result,) = run_sweep(
            "atomicity", seed=seed, values=range(3), protocol=protocol, **fixed
        )
        assert result.protocol == protocol and result.executions == 3
        assert result.linearizable_executions == 3
        assert result.incremental_agreements == 3
        assert result.lemma_violations == 0
        assert result.incomplete_operations == 0
        assert result.operations > 0


class TestTradeoff:
    @pytest.mark.parametrize("seed", [1, 29])
    def test_soda_storage_flat_casgc_grows(self, seed):
        points = run_sweep("tradeoff", seed=seed)
        assert [p.delta for p in points] == [0, 1, 2, 4]
        soda_storage = {round(p.soda_storage, 6) for p in points}
        assert len(soda_storage) == 1  # flat
        for p in points:
            assert p.soda_storage <= p.casgc_storage + 1e-9
        casgc = [p.casgc_storage for p in points]
        assert casgc == sorted(casgc)
        assert casgc[-1] > casgc[0]


class TestScenarioSweeps:
    def test_skew_rows(self):
        rows = run_sweep("skew", seed=2, values=(0.25, 0.75), total_ops=8)
        assert [r.read_fraction for r in rows] == [0.25, 0.75]
        for row in rows:
            assert row.completed == row.operations
            assert row.linearizable

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_one_skew_point_per_protocol(self, protocol):
        """Every protocol builds with the registry's defaults (``skew``
        used to pass CASGC's ``delta`` only, and SODAerr died without ``e``)."""
        (row,) = run_sweep(
            "skew", seed=2, values=(0.5,), protocol=protocol, total_ops=8
        )
        assert row.protocol == protocol
        assert row.completed == row.operations == 8
        assert row.linearizable

    def test_crash_burst_rows(self):
        for row in run_sweep("crash-burst", seed=3, values=(0.0, 0.5)):
            assert row.crashed_servers == row.f
            assert row.linearizable

    def test_slow_disk_latency_grows(self):
        # Slowing <= f servers keeps stragglers off the quorum critical
        # path, so inject on f+1 servers to make the slowdown observable.
        rows = run_sweep("slow-disk", seed=4, values=(0.0, 5.0), slow_servers=3)
        assert rows[1].max_read_latency > rows[0].max_read_latency + 1.0
