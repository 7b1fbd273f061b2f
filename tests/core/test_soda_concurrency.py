"""SODA under concurrency: atomicity, relaying of concurrent writes, costs."""

import pytest

from exponential_delay import ExponentialDelay

from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.wgl import check_linearizability
from repro.core.soda.cluster import SodaCluster
from repro.core.tags import TAG_ZERO
from repro.sim.failures import CrashSchedule
from repro.sim.network import UniformDelay


def run_concurrent_workload(
    *,
    n=5,
    f=2,
    num_writers=2,
    num_readers=2,
    writes_per_writer=3,
    reads_per_reader=3,
    seed=0,
    crash_servers=0,
    delay_model=None,
    spacing=2.0,
):
    """Schedule interleaved writes and reads and run to quiescence."""
    c = SodaCluster(
        n=n,
        f=f,
        num_writers=num_writers,
        num_readers=num_readers,
        seed=seed,
        delay_model=delay_model or UniformDelay(0.1, 3.0),
    )
    rng = c.sim.spawn_rng()
    if crash_servers:
        schedule = CrashSchedule.random(
            c.server_ids, crash_servers, rng, time_range=(0.0, spacing * writes_per_writer), exact=True
        )
        c.apply_crash_schedule(schedule)
    value_counter = 0
    for w in range(num_writers):
        for i in range(writes_per_writer):
            at = float(rng.uniform(0, spacing * writes_per_writer))
            c.schedule_write(at, f"value-{w}-{i}-{value_counter}".encode(), writer=w)
            value_counter += 1
    for r in range(num_readers):
        for i in range(reads_per_reader):
            at = float(rng.uniform(0, spacing * reads_per_reader))
            c.schedule_read(at, reader=r)
    c.run()
    return c


class TestAtomicityUnderConcurrency:
    @pytest.mark.parametrize("seed", range(8))
    def test_linearizable_random_interleavings(self, seed):
        c = run_concurrent_workload(seed=seed)
        result = check_linearizability(c.history, initial_value=b"")
        assert result, f"execution with seed {seed} is not linearizable"
        violations = check_lemma_properties(
            c.history, initial_tag=TAG_ZERO, initial_value=b""
        )
        assert violations == []

    @pytest.mark.parametrize("seed", range(4))
    def test_linearizable_with_server_crashes(self, seed):
        c = run_concurrent_workload(seed=seed + 100, crash_servers=2, n=5, f=2)
        assert check_linearizability(c.history, initial_value=b"")
        assert (
            check_lemma_properties(c.history, initial_tag=TAG_ZERO, initial_value=b"")
            == []
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_linearizable_heavy_tail_delays(self, seed):
        c = run_concurrent_workload(
            seed=seed + 200, delay_model=ExponentialDelay(mean=1.5)
        )
        assert check_linearizability(c.history, initial_value=b"")

    def test_all_scheduled_operations_complete(self):
        """Liveness: with non-crashed clients every operation terminates."""
        c = run_concurrent_workload(seed=7)
        assert len(c.history.incomplete_operations()) == 0

    def test_read_concurrent_with_write_returns_old_or_new(self):
        c = SodaCluster(n=5, f=2, num_writers=1, num_readers=1, seed=3)
        c.write(b"old")
        c.schedule_write(10.0, b"new", writer=0)
        c.schedule_read(10.0, reader=0)
        c.run()
        read_op = c.history.reads()[-1]
        assert read_op.value in (b"old", b"new")

    def test_read_after_write_sees_it(self):
        """Real-time order: a read invoked after a write completes must not
        return an older value."""
        c = SodaCluster(n=7, f=3, seed=4)
        c.write(b"v1")
        c.write(b"v2")
        rec = c.read()
        assert rec.value == b"v2"


class TestConcurrentWriteRelaying:
    def test_registered_reader_receives_concurrent_write_elements(self):
        """While a reader is registered, servers relay coded elements of
        concurrent writes to it (the core of SODA's read protocol)."""
        c = SodaCluster(n=5, f=2, num_writers=1, num_readers=1, seed=5)
        c.schedule_read(0.0, reader=0)
        c.schedule_write(0.5, b"concurrent", writer=0)
        c.run()
        read_op = c.history.reads()[0]
        assert read_op.is_complete
        assert read_op.value in (b"", b"concurrent")

    def test_read_cost_grows_with_concurrent_writes(self):
        """Theorem 5.6: the read cost is bounded by (n/(n-f)) * (delta_w + 1),
        and with concurrent writes it can exceed the uncontended n/(n-f)."""
        n, f = 5, 2
        c = SodaCluster(n=n, f=f, num_writers=2, num_readers=1, seed=6)
        read_handle = c.schedule_read(1.0, reader=0)
        writes = [
            c.schedule_write(1.0 + 0.3 * i, f"cw-{i}".encode(), writer=i % 2)
            for i in range(4)
        ]
        c.run()
        assert read_handle.op_id is not None
        read_op = c.history.get(read_handle.op_id)
        assert read_op.is_complete
        cost = c.operation_cost(read_handle.op_id)
        delta_w = c.measured_delta_w(read_handle.op_id)
        assert cost <= (n / (n - f)) * (delta_w + 1) + 1e-9

    def test_unregistration_after_read_completes(self):
        """After READ-COMPLETE, no server keeps the reader registered."""
        c = SodaCluster(n=5, f=2, seed=7)
        c.write(b"x")
        c.read()
        c.run()
        for server in c.servers:
            assert server.registered_readers == {}

    def test_server_history_bounded_after_quiescence(self):
        """No reader stays registered once its read completed, and leftover H
        entries stay bounded (the paper's note 3 allows a few stale entries
        from late READ-DISPERSE messages, but never unbounded growth)."""
        c = SodaCluster(n=5, f=2, seed=8)
        num_reads = 5
        for i in range(num_reads):
            c.write(f"v{i}".encode())
            c.read()
        c.run()
        for server in c.servers:
            assert server.registered_readers == {}
            # At most one stale READ-DISPERSE entry per (read, server) pair.
            assert len(server.history_entries) <= num_reads * c.n


class TestWriteCostUnderConcurrency:
    def test_write_cost_bound_holds_with_many_clients(self):
        n, f = 7, 3
        c = SodaCluster(n=n, f=f, num_writers=3, num_readers=2, seed=9)
        handles = []
        for i in range(6):
            handles.append(
                c.schedule_write(float(i), f"val-{i}".encode(), writer=i % 3)
            )
        for i in range(4):
            c.schedule_read(float(i) + 0.5, reader=i % 2)
        c.run()
        for h in handles:
            assert h.op_id is not None
            assert c.operation_cost(h.op_id) <= 5 * f * f
