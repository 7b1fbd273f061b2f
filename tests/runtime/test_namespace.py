"""Tests for the multi-object register namespace layer."""

import pytest

from repro.consistency.history import History
from repro.consistency.multiplex import ObjectCheckerMux
from repro.runtime.namespace import (
    MultiRegisterCluster,
    NamespaceStats,
    object_namespace,
)
from repro.workloads.keyed import KeyDistribution


def make_namespace(objects=3, protocol="SODA", **kwargs):
    defaults = dict(num_writers=1, num_readers=1, seed=7)
    defaults.update(kwargs)
    return MultiRegisterCluster(protocol, 5, 2, objects=objects, **defaults)


class TestConstruction:
    def test_objects_share_one_simulation(self):
        cluster = make_namespace(4)
        assert len(cluster) == 4
        for obj in cluster.objects:
            assert obj.sim is cluster.sim
            assert obj.costs is cluster.costs

    def test_pid_namespacing(self):
        cluster = make_namespace(2)
        assert cluster.object(0).server_ids == [f"o0/s{i}" for i in range(5)]
        assert cluster.object(1).server_ids == [f"o1/s{i}" for i in range(5)]
        assert cluster.object(1).writer_ids == ["o1/w0"]
        assert cluster.object(1).reader_ids == ["o1/r0"]
        assert object_namespace(3) == "o3/"
        # Every pid is registered exactly once on the shared simulation.
        pids = list(cluster.sim.processes)
        assert len(pids) == len(set(pids)) == 2 * (5 + 1 + 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one object"):
            make_namespace(0)

    @pytest.mark.parametrize("protocol", ["ABD", "CAS", "CASGC", "SODAerr"])
    def test_other_protocols_construct(self, protocol):
        kwargs = {}
        if protocol == "CASGC":
            kwargs["protocol_kwargs"] = {"delta": 2}
        if protocol == "SODAerr":
            kwargs["protocol_kwargs"] = {"e": 1}
        cluster = make_namespace(2, protocol=protocol, **kwargs)
        record = cluster.write(1, b"value-x")
        assert cluster.read(1).value == b"value-x"
        assert record.is_complete


class TestObjectIndependence:
    def test_writes_to_one_object_do_not_leak(self):
        cluster = make_namespace(3, initial_value=b"init")
        cluster.write(0, b"object0-value")
        assert cluster.read(0).value == b"object0-value"
        assert cluster.read(1).value == b"init"
        assert cluster.read(2).value == b"init"

    def test_per_object_histories(self):
        cluster = make_namespace(2)
        cluster.write(0, b"a")
        cluster.write(1, b"b")
        h0, h1 = (cluster.object(j).full_history() for j in range(2))
        assert isinstance(h0, History) and isinstance(h1, History)
        assert len(h0.writes()) == 1 and len(h1.writes()) == 1
        assert {op.client for op in h0.operations()} == {"o0/w0"}
        assert {op.client for op in h1.operations()} == {"o1/w0"}

    def test_cost_attribution_across_objects(self):
        cluster = make_namespace(2)
        w0 = cluster.write(0, b"x" * 64)
        w1 = cluster.write(1, b"y" * 64)
        assert cluster.operation_cost(w0.op_id) > 0
        assert cluster.operation_cost(w1.op_id) > 0
        assert cluster.object(0).operation_cost(w0.op_id) == cluster.operation_cost(
            w0.op_id
        )

    def test_storage_aggregates(self):
        cluster = make_namespace(2)
        cluster.write(0, b"x" * 32)
        cluster.write(1, b"y" * 32)
        assert cluster.storage_peak() >= cluster.object(0).storage_peak()


class TestStreamedNamespaceRuns:
    def test_budget_allocation_and_completion(self):
        mux = ObjectCheckerMux(3, window=32)
        cluster = make_namespace(
            3, num_writers=2, num_readers=2, recorder_factory=mux.recorder
        )
        stats = cluster.run_streamed(
            operations=240, key_dist=KeyDistribution.zipf(1.0), seed=5
        )
        assert isinstance(stats, NamespaceStats)
        assert sum(stats.allocation) == 240
        assert stats.issued == stats.completed == 240
        assert stats.failed == 0
        assert stats.writes + stats.reads == 240
        assert [s.issued for s in stats.per_object] == stats.allocation
        assert mux.ok
        assert cluster.max_resident_records() == mux.max_resident

    def test_zipf_skews_the_load(self):
        cluster = make_namespace(4)
        stats = cluster.run_streamed(
            operations=400, key_dist=KeyDistribution.zipf(1.5), seed=2
        )
        assert stats.allocation[0] > stats.allocation[-1]

    def test_runs_are_deterministic(self):
        outcomes = []
        for _ in range(2):
            cluster = make_namespace(3, num_writers=2, num_readers=2)
            stats = cluster.run_streamed(
                operations=150, key_dist=KeyDistribution.zipf(1.1), seed=9
            )
            outcomes.append(
                (
                    stats.allocation,
                    stats.end_time,
                    stats.events,
                    [s.writes for s in stats.per_object],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_validation(self):
        cluster = make_namespace(2)
        with pytest.raises(ValueError, match="cannot be negative"):
            cluster.run_streamed(operations=-1)


class TestNamespaceFailures:
    def test_every_object_spends_its_own_f_budget(self):
        """The crash leg goes through each object's own ``f`` check:
        ``crash:2`` takes two servers of every object of a [6, 2]
        namespace, and ``crash:3`` is refused by name."""

        def namespace():
            return MultiRegisterCluster(
                "SODA", 6, 2, objects=3, num_writers=1, num_readers=1, seed=7
            )

        cluster = namespace()
        applied = cluster.apply_fault_plan("crash:2", seed=3)
        assert [len(obj.crashed) for obj in applied.objects] == [2, 2, 2]
        for obj in cluster.objects:
            crashed = {event.pid for event in obj.failures.injected}
            assert len(crashed) == 2 and crashed <= set(obj.server_ids)
        with pytest.raises(ValueError, match="more than f=2"):
            namespace().apply_fault_plan("crash:3", seed=3)
