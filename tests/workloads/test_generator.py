"""Tests for the randomized workload generator."""

import pytest

from repro.consistency.wgl import check_linearizability
from repro.consistency.history import History
from repro.core.soda.cluster import SodaCluster
from repro.workloads.generator import (
    StreamSpec,
    WorkloadSpec,
    run_workload,
    stream_operations,
    unique_value,
)
import numpy as np


class TestUniqueValue:
    def test_uniqueness(self):
        rng = np.random.default_rng(0)
        values = {unique_value(w, s, 64, rng) for w in range(3) for s in range(20)}
        assert len(values) == 60

    def test_requested_size(self):
        rng = np.random.default_rng(0)
        assert len(unique_value(1, 2, 128, rng)) == 128

    def test_tiny_size_still_unique_header(self):
        rng = np.random.default_rng(0)
        v = unique_value(1, 2, 3, rng)
        assert v.startswith(b"w1#2")


class TestRunWorkload:
    def test_all_operations_scheduled_and_completed(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=0)
        spec = WorkloadSpec(writes_per_writer=2, reads_per_reader=2, seed=1)
        result = run_workload(c, spec)
        assert len(result.write_handles) == 4
        assert len(result.read_handles) == 4
        assert all(h.op_id for h in result.write_handles + result.read_handles)
        assert result.completed_operations == 8
        assert len(result.write_costs(c)) == 4
        assert len(result.read_costs(c)) == 4

    def test_linearizable_output(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=3)
        run_workload(c, WorkloadSpec(seed=4))
        assert check_linearizability(c.history, initial_value=b"")

    def test_crash_injection(self):
        c = SodaCluster(n=7, f=3, num_writers=2, num_readers=2, seed=5)
        spec = WorkloadSpec(server_crashes=3, seed=6)
        result = run_workload(c, spec)
        assert result.crash_schedule is not None
        assert len(result.crash_schedule) == 3
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


class TestStreamSpecValidation:
    """A spec outside the generator's contract is refused by name: before
    the check, with ``mean_gap=-1`` every operation but a client's first
    was invoked before the previous one responded, ``clients=0`` streamed
    nothing, and ``mean_duration=-1`` died inside the recorder."""

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("operations", -1),
            ("clients", 0),
            ("read_fraction", 1.5),
            ("mean_gap", -1.0),
            ("mean_duration", -1.0),
            ("value_size", -1),
            ("incomplete_fraction", -0.1),
        ],
    )
    def test_field_out_of_range_is_named(self, field, bad):
        with pytest.raises(ValueError, match=rf"^StreamSpec\.{field}="):
            StreamSpec(**{"operations": 100, field: bad})

    def test_nan_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"StreamSpec\.mean_gap="):
            StreamSpec(operations=10, mean_gap=float("nan"))

    def test_unknown_injection_mode(self):
        with pytest.raises(ValueError, match="unknown injection mode"):
            StreamSpec(operations=10, inject="stall")

    def test_boundaries_stream_well_formed_histories(self):
        spec = StreamSpec(
            operations=200,
            clients=1,
            read_fraction=1.0,
            mean_gap=0.0,
            mean_duration=0.0,
            value_size=0,
            incomplete_fraction=0.0,
        )
        history = History()
        stats = stream_operations(spec, history)
        assert stats.completed == 200
        ops = history.operations()
        assert all(a.responded_at <= b.invoked_at for a, b in zip(ops, ops[1:]))
        assert StreamSpec(operations=0).operations == 0
