"""Tests for the open-loop traffic driver and event-budget truncation."""

import pytest

from repro.core.soda.cluster import SodaCluster
from repro.runtime.namespace import MultiRegisterCluster
from repro.workloads.arrivals import PoissonArrivals, TraceArrivals
from repro.workloads.keyed import KeyDistribution


def make_cluster(**kwargs):
    defaults = dict(n=5, f=2, num_writers=4, num_readers=4, seed=7)
    defaults.update(kwargs)
    return SodaCluster(**defaults)


class TestOpenLoopBasics:
    def test_low_rate_run_completes_everything(self):
        cluster = make_cluster()
        stats = cluster.run_open_loop(
            operations=200, arrival=PoissonArrivals(rate=0.2), seed=1
        )
        assert stats.requested == 200
        assert stats.arrived == 200
        assert stats.admitted == 200
        assert stats.completed == 200
        assert stats.failed == 0
        assert stats.rejected == 0
        assert stats.issued == stats.completed + stats.failed
        assert stats.writes + stats.reads == 200
        assert not stats.truncated
        hist = stats.latency()
        assert hist.count == 200
        assert hist.min > 0

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            stats = make_cluster().run_open_loop(
                operations=300, arrival=PoissonArrivals(rate=3.0), seed=5
            )
            results.append(
                (
                    stats.completed,
                    stats.rejected,
                    stats.latency().to_jsonable(),
                )
            )
        assert results[0] == results[1]

    def test_latency_includes_queue_wait(self):
        """All arrivals at t=0 through one writer: the k-th operation's
        measured latency includes waiting behind k-1 predecessors."""
        cluster = make_cluster(num_writers=1, num_readers=1)
        stats = cluster.run_open_loop(
            operations=6,
            arrival=TraceArrivals.from_times([0.0] * 6),
            read_fraction=0.0,
            policy="backpressure",
            seed=2,
        )
        assert stats.completed == 6
        hist = stats.write_latency
        # Queueing makes the max far exceed the min (a lone op's service time).
        assert hist.max > 3 * hist.min

    def test_validation(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="admission policy"):
            cluster.run_open_loop(
                operations=1, arrival=PoissonArrivals(), policy="reject"
            )
        with pytest.raises(ValueError, match="read_fraction"):
            cluster.run_open_loop(
                operations=1, arrival=PoissonArrivals(), read_fraction=1.5
            )


class TestAdmissionPolicies:
    def overload(self, policy, **kwargs):
        cluster = make_cluster(num_writers=2, num_readers=2)
        stats = cluster.run_open_loop(
            operations=400,
            arrival=PoissonArrivals(rate=50.0),
            policy=policy,
            queue_per_server=1,
            seed=3,
            **kwargs,
        )
        return stats

    def test_drop_rejects_overflow(self):
        stats = self.overload("drop")
        assert stats.rejected > 0
        assert stats.admitted + stats.rejected == stats.arrived == 400
        assert stats.completed == stats.admitted - stats.timed_out
        assert stats.max_queue_depth <= stats.queue_capacity

    def test_shed_reads_prefers_writes(self):
        stats = self.overload("shed-reads")
        assert stats.shed_reads > 0
        # Shed reads count as failures-by-policy, not completions.
        assert stats.completed + stats.rejected + stats.shed_reads == 400

    def test_backpressure_stalls_instead_of_dropping(self):
        stats = self.overload("backpressure")
        assert stats.rejected == 0
        assert stats.shed_reads == 0
        assert stats.completed == 400
        assert stats.stall_time > 0

    def test_timeout_expires_stale_queue_entries(self):
        stats = self.overload("drop", op_timeout=1.0)
        assert stats.timed_out > 0
        assert stats.completed + stats.timed_out == stats.admitted


class TestTruncation:
    def test_run_streamed_sets_truncated_flag(self):
        # Regression: budget exhaustion used to be indistinguishable from
        # a completed run (and previously raised out of run_streamed).
        cluster = make_cluster()
        with pytest.warns(RuntimeWarning, match="truncated"):
            stats = cluster.run_streamed(operations=500, max_events=300)
        assert stats.truncated
        assert stats.completed < 500
        assert stats.events > 0

    def test_run_streamed_complete_is_not_truncated(self):
        stats = make_cluster().run_streamed(operations=50)
        assert not stats.truncated
        assert stats.completed == 50

    def test_run_open_loop_sets_truncated_flag(self):
        cluster = make_cluster()
        with pytest.warns(RuntimeWarning, match="truncated"):
            stats = cluster.run_open_loop(
                operations=500,
                arrival=PoissonArrivals(rate=5.0),
                seed=1,
                max_events=300,
            )
        assert stats.truncated
        assert stats.completed < 500


class TestNamespaceOpenLoop:
    def test_multi_object_run(self):
        cluster = MultiRegisterCluster(
            "SODA", 5, 2, objects=3, num_writers=2, num_readers=2, seed=7
        )
        stats = cluster.run_open_loop(
            operations=300,
            arrival=PoissonArrivals(rate=2.0),
            key_dist=KeyDistribution.zipf(1.1),
            seed=4,
        )
        assert sum(stats.allocation) == 300
        assert len(stats.per_object) == 3
        assert stats.completed == 300
        assert stats.failed == 0
        assert not stats.truncated
        assert stats.latency().count == 300

    def test_namespace_truncation_marks_every_object(self):
        cluster = MultiRegisterCluster(
            "SODA", 5, 2, objects=2, num_writers=2, num_readers=2, seed=7
        )
        with pytest.warns(RuntimeWarning, match="truncated"):
            stats = cluster.run_streamed(operations=400, max_events=200)
        assert stats.truncated
        assert all(s.truncated for s in stats.per_object)

    def test_trace_arrivals_cannot_split_over_objects(self):
        cluster = MultiRegisterCluster(
            "SODA", 5, 2, objects=2, num_writers=1, num_readers=1, seed=7
        )
        with pytest.raises(ValueError, match="rescaled"):
            cluster.run_open_loop(
                operations=10,
                arrival=TraceArrivals.from_times([float(i) for i in range(10)]),
                seed=0,
            )
