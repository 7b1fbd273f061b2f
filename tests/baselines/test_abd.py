"""Tests for the ABD replication baseline."""

import pytest

from repro.baselines.abd import AbdCluster
from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.wgl import check_linearizability
from repro.core.tags import TAG_ZERO
from repro.sim.network import FixedDelay, UniformDelay


class TestBasics:
    def test_write_read_roundtrip(self):
        c = AbdCluster(n=5, f=2, seed=1)
        c.write(b"replicated")
        assert c.read().value == b"replicated"

    def test_initial_value(self):
        c = AbdCluster(n=5, f=2, initial_value=b"genesis")
        rec = c.read()
        assert rec.value == b"genesis"
        assert rec.tag == TAG_ZERO

    def test_sequential_writes(self):
        c = AbdCluster(n=5, f=2, seed=2)
        for i in range(4):
            c.write(f"v{i}".encode())
        assert c.read().value == b"v3"

    def test_invalid_f(self):
        with pytest.raises(ValueError):
            AbdCluster(n=4, f=2)

    def test_multiple_writers_readers(self):
        c = AbdCluster(n=5, f=2, num_writers=2, num_readers=2, seed=3)
        c.write(b"a", writer=0)
        c.write(b"b", writer=1)
        assert c.read(reader=0).value == b"b"
        assert c.read(reader=1).value == b"b"

    def test_well_formedness(self):
        c = AbdCluster(n=5, f=2)
        c.writer(0).start_write(b"x")
        with pytest.raises(RuntimeError):
            c.writer(0).start_write(b"y")
        c.reader(0).start_read()
        with pytest.raises(RuntimeError):
            c.reader(0).start_read()


class TestCosts:
    def test_storage_cost_is_n(self):
        for n, f in [(4, 1), (6, 2), (10, 4)]:
            c = AbdCluster(n=n, f=f, seed=n)
            for i in range(3):
                c.write(f"value-{i}".encode())
            c.run()
            assert c.storage_peak() == pytest.approx(float(n))
            assert c.theoretical_storage_cost() == float(n)

    def test_write_cost_is_n(self):
        c = AbdCluster(n=7, f=3, seed=4)
        rec = c.write(b"payload")
        c.run()
        assert c.operation_cost(rec.op_id) == pytest.approx(7.0)

    def test_read_cost_is_order_n(self):
        """Measured ABD read cost is ~2n (value responses + write-back); the
        paper's Table I quotes the dominant n term."""
        n = 7
        c = AbdCluster(n=n, f=3, seed=5)
        c.write(b"payload")
        c.run()
        rec = c.read()
        c.run()
        cost = c.operation_cost(rec.op_id)
        assert n <= cost <= 2 * n + 1e-9


class TestFaultToleranceAndAtomicity:
    @pytest.mark.parametrize("n,f", [(5, 2), (7, 3)])
    def test_operations_complete_with_f_crashes(self, n, f):
        c = AbdCluster(n=n, f=f, seed=6)
        for i in range(f):
            c.crash_server(i, at_time=0.0)
        c.write(b"still works")
        assert c.read().value == b"still works"

    def test_latency_bound_fixed_delay(self):
        """Both ABD phases are simple round trips: 4 delta for either op."""
        c = AbdCluster(n=5, f=2, delay_model=FixedDelay(1.0), seed=7)
        w = c.write(b"x")
        r = c.read()
        assert w.duration == pytest.approx(4.0)
        assert r.duration == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_concurrent_workload_linearizable(self, seed):
        c = AbdCluster(
            n=5, f=2, num_writers=2, num_readers=2, seed=seed,
            delay_model=UniformDelay(0.1, 3.0),
        )
        rng = c.sim.spawn_rng()
        for w in range(2):
            for i in range(3):
                c.schedule_write(float(rng.uniform(0, 10)), f"abd-{w}-{i}".encode(), writer=w)
        for r in range(2):
            for i in range(3):
                c.schedule_read(float(rng.uniform(0, 10)), reader=r)
        c.run()
        assert len(c.history.incomplete_operations()) == 0
        assert check_linearizability(c.history, initial_value=b"")
        assert check_lemma_properties(c.history, initial_tag=TAG_ZERO, initial_value=b"") == []

    def test_linearizable_with_crashes(self):
        c = AbdCluster(n=5, f=2, num_writers=2, num_readers=2, seed=11)
        c.crash_server(1, at_time=2.0)
        c.crash_server(3, at_time=5.0)
        rng = c.sim.spawn_rng()
        for w in range(2):
            for i in range(2):
                c.schedule_write(float(rng.uniform(0, 8)), f"c-{w}-{i}".encode(), writer=w)
        for r in range(2):
            c.schedule_read(float(rng.uniform(0, 8)), reader=r)
        c.run()
        assert check_linearizability(c.history, initial_value=b"")
