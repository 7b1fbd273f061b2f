"""Tests for the workloads that schedule operations on a live cluster."""

import numpy as np
import pytest

from repro.baselines.abd import AbdCluster
from repro.consistency.wgl import check_linearizability
from repro.core.soda.cluster import SodaCluster
from repro.sim.failures import CrashSchedule
from repro.sim.network import SlowDisk, UniformDelay
from repro.workloads.scenarios import (
    WorkloadSpec,
    concurrent_read_scenario,
    run_workload,
    sequential_scenario,
    skewed_scenario,
)


def all_complete(result):
    return all(op.is_complete for op in result.writes + result.reads)


class TestRunWorkload:
    def test_all_operations_scheduled_and_completed(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=0)
        spec = WorkloadSpec(writes_per_writer=2, reads_per_reader=2, seed=1)
        result = run_workload(c, spec)
        assert len(result.writes) == 4
        assert len(result.reads) == 4
        assert all_complete(result)
        assert c.history.completed_count == 8
        assert len(result.write_costs(c)) == 4
        assert len(result.read_costs(c)) == 4

    def test_linearizable_output(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=3)
        run_workload(c, WorkloadSpec(seed=4))
        assert check_linearizability(c.history, initial_value=b"")

    def test_crash_injection(self):
        c = SodaCluster(n=7, f=3, num_writers=2, num_readers=2, seed=5)
        spec = WorkloadSpec(server_crashes=3, seed=6)
        run_workload(c, spec)
        assert len(c.failures.injected) == 3
        assert sum(p.is_crashed for p in c.sim.processes.values()) == 3
        # Liveness: client operations still complete.
        assert len(c.history.incomplete_operations()) == 0

    def test_crashes_beyond_f_rejected(self):
        c = SodaCluster(n=5, f=1, seed=7)
        with pytest.raises(ValueError):
            run_workload(c, WorkloadSpec(server_crashes=2, seed=8))

    def test_deterministic_given_seeds(self):
        def run_once():
            c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=11)
            run_workload(c, WorkloadSpec(seed=12))
            return [
                (op.op_id, op.kind, op.invoked_at, op.responded_at, op.value)
                for op in c.history.operations()
            ]

        assert run_once() == run_once()


class TestSequentialScenario:
    def test_counts_and_completion(self):
        c = SodaCluster(n=5, f=2, seed=0)
        result = sequential_scenario(c, num_writes=3, num_reads=2)
        assert len(result.writes) == 3
        assert len(result.reads) == 2
        assert all_complete(result)

    def test_reads_return_last_write(self):
        c = SodaCluster(n=5, f=2, seed=0)
        result = sequential_scenario(c, num_writes=2, num_reads=1)
        assert result.reads[0].value == result.writes[-1].value

    def test_zero_reads(self):
        c = SodaCluster(n=5, f=2, seed=0)
        result = sequential_scenario(c, num_writes=1, num_reads=0)
        assert result.reads == []

    def test_works_for_baselines(self):
        c = AbdCluster(n=5, f=2, seed=0)
        result = sequential_scenario(c, num_writes=2, num_reads=2)
        assert all_complete(result)


class TestConcurrentReadScenario:
    def test_read_completes_and_returns_valid_value(self):
        c = SodaCluster(n=6, f=2, num_writers=2, seed=1)
        result = concurrent_read_scenario(c, concurrent_writes=3)
        assert result.read.is_complete
        written = {op.value for op in c.history.writes()}
        assert result.read.value in written | {b""}

    def test_zero_concurrency(self):
        c = SodaCluster(n=6, f=2, seed=2)
        result = concurrent_read_scenario(c, concurrent_writes=0)
        assert result.read.is_complete

    def test_writes_include_baseline_and_concurrent(self):
        c = SodaCluster(n=6, f=2, num_writers=2, seed=1)
        result = concurrent_read_scenario(c, concurrent_writes=3)
        assert len(result.writes) == 4
        assert len(result.reads) == 1
        assert all_complete(result)

    def test_delta_w_tracks_concurrency_level(self):
        c = SodaCluster(n=6, f=2, num_writers=3, seed=3)
        result = concurrent_read_scenario(c, concurrent_writes=3)
        assert c.measured_delta_w(result.read.op_id) >= 1

    def test_cost_within_theorem_bound(self):
        n, f = 6, 2
        c = SodaCluster(n=n, f=f, num_writers=3, seed=4)
        result = concurrent_read_scenario(c, concurrent_writes=4)
        bound = n / (n - f) * (c.measured_delta_w(result.read.op_id) + 1)
        assert result.read_costs(c)[0] <= bound + 1e-9


class TestSkewedScenario:
    def test_read_fraction_controls_mix(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=7)
        result = skewed_scenario(c, read_fraction=0.75, total_ops=12, seed=11)
        assert len(result.reads) == 9
        assert len(result.writes) == 3
        assert all_complete(result)
        assert check_linearizability(c.history, initial_value=b"")

    def test_pure_write_workload(self):
        c = SodaCluster(n=5, f=2, num_writers=2, seed=8)
        result = skewed_scenario(c, read_fraction=0.0, total_ops=6, seed=12)
        assert result.reads == []
        assert len(result.writes) == 6

    def test_invalid_fraction_rejected(self):
        c = SodaCluster(n=5, f=2, seed=9)
        with pytest.raises(ValueError):
            skewed_scenario(c, read_fraction=1.5)


class TestCrashBurst:
    def test_burst_times_are_correlated(self):
        rng = np.random.default_rng(0)
        schedule = CrashSchedule.burst(
            [f"s{i}" for i in range(9)], 4, rng, start_range=(2.0, 5.0), width=0.2
        )
        times = [e.time for e in schedule]
        assert len(schedule) == 4
        assert max(times) - min(times) <= 0.2
        assert 2.0 <= min(times) <= 5.2

    def test_zero_width_is_simultaneous(self):
        rng = np.random.default_rng(1)
        schedule = CrashSchedule.burst(["s0", "s1", "s2"], 3, rng, width=0.0)
        assert len({e.time for e in schedule}) == 1

    def test_too_many_victims_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            CrashSchedule.burst(["s0"], 2, rng)

    def test_cluster_survives_simultaneous_f_burst(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=13)
        rng = np.random.default_rng(3)
        schedule = CrashSchedule.burst(
            c.server_ids, 2, rng, start_range=(1.0, 2.0), width=0.0
        )
        c.apply_crash_schedule(schedule)
        result = sequential_scenario(c, num_writes=2, num_reads=2)
        assert all_complete(result)


class TestSlowDisk:
    def test_extra_delay_applied_to_slow_sources_only(self):
        rng = np.random.default_rng(0)
        model = SlowDisk(UniformDelay(0.1, 0.2), slow=["s0"], extra=3.0)
        assert model.sample("s0", "r0", rng) >= 3.1
        assert model.sample("s1", "r0", rng) <= 0.2

    def test_negative_extra_rejected(self):
        with pytest.raises(ValueError):
            SlowDisk(UniformDelay(), slow=[], extra=-1.0)

    def test_cluster_still_completes_with_straggler(self):
        model = SlowDisk(UniformDelay(0.1, 1.0), slow=["s0"], extra=4.0)
        c = SodaCluster(n=5, f=2, seed=15, delay_model=model)
        result = sequential_scenario(c, num_writes=2, num_reads=2)
        assert all_complete(result)
