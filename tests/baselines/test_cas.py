"""Tests for the CAS and CASGC coded baselines."""

import pytest

from repro.analysis import theoretical
from repro.baselines.cas import CasCluster
from repro.baselines.casgc import CasGcCluster
from repro.baselines.registry import available_protocols, make_cluster
from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.wgl import check_linearizability
from repro.core.tags import TAG_ZERO
from repro.sim.network import UniformDelay


class TestCasBasics:
    def test_parameters(self):
        c = CasCluster(n=8, f=2)
        assert c.k == 4
        assert c.quorum_size == 6  # ceil((8+4)/2) = n - f

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            CasCluster(n=4, f=2)

    def test_write_read_roundtrip(self):
        c = CasCluster(n=6, f=2, seed=1)
        c.write(b"coded atomic storage")
        assert c.read().value == b"coded atomic storage"

    def test_initial_value(self):
        c = CasCluster(n=6, f=2, initial_value=b"genesis")
        assert c.read().value == b"genesis"

    def test_sequential_writes(self):
        c = CasCluster(n=6, f=2, seed=2)
        for i in range(4):
            c.write(f"cas-{i}".encode())
        assert c.read().value == b"cas-3"

    def test_operations_complete_with_f_crashes(self):
        c = CasCluster(n=6, f=2, seed=3)
        c.crash_server(0, at_time=0.0)
        c.crash_server(5, at_time=0.0)
        c.write(b"fault tolerant")
        assert c.read().value == b"fault tolerant"


class TestCasCosts:
    def test_write_and_read_cost(self):
        """Both costs are n / (n - 2f) data units (coded elements only)."""
        n, f = 8, 2
        c = CasCluster(n=n, f=f, seed=4)
        w = c.write(b"x" * 32)
        c.run()
        r = c.read()
        c.run()
        expected = n / (n - 2 * f)
        assert c.operation_cost(w.op_id) == pytest.approx(expected)
        assert c.operation_cost(r.op_id) <= expected + 1e-9
        assert theoretical.cas_communication_cost(n, f) == pytest.approx(expected)

    def test_storage_grows_without_bound(self):
        """Plain CAS keeps every version — its storage grows linearly with
        the number of writes (the motivation for CASGC and SODA)."""
        n, f = 6, 2
        c = CasCluster(n=n, f=f, seed=5)
        peaks = []
        for i in range(5):
            c.write(f"version {i}".encode())
            c.run()
            peaks.append(c.storage_peak())
        assert peaks == sorted(peaks)
        assert peaks[-1] == pytest.approx((5 + 1) * n / (n - 2 * f))
        assert c.theoretical_storage_cost() == pytest.approx(peaks[-1])


class TestCasGc:
    def test_delta_validation(self):
        with pytest.raises(ValueError):
            CasGcCluster(n=6, f=2, delta=-1)

    def test_storage_bounded_by_delta_plus_one(self):
        n, f, delta = 6, 2, 1
        c = CasGcCluster(n=n, f=f, delta=delta, seed=6)
        for i in range(6):
            c.write(f"version {i}".encode())
            c.run()
        bound = n / (n - 2 * f) * (delta + 1)
        assert c.storage_peak() <= bound + 1e-9
        assert c.theoretical_storage_cost() == pytest.approx(bound)
        assert any(s.gc_evictions > 0 for s in c.servers)

    def test_storage_rigid_even_without_concurrency(self):
        """The point Section I-B makes: CASGC pays (delta+1) slots even when
        no read is concurrent with any write, while SODA's storage stays at
        n/(n-f)."""
        n, f, delta = 6, 2, 2
        c = CasGcCluster(n=n, f=f, delta=delta, seed=7)
        for i in range(delta + 3):
            c.write(f"sequential {i}".encode())
            c.run()
        assert c.storage_peak() == pytest.approx(n / (n - 2 * f) * (delta + 1))

    def test_reads_correct_after_gc(self):
        c = CasGcCluster(n=6, f=2, delta=0, seed=8)
        for i in range(4):
            c.write(f"gc-{i}".encode())
        assert c.read().value == b"gc-3"

    def test_write_read_roundtrip_with_crashes(self):
        c = CasGcCluster(n=6, f=2, delta=1, seed=9)
        c.crash_server(2, at_time=0.0)
        c.crash_server(4, at_time=0.0)
        c.write(b"casgc resilient")
        assert c.read().value == b"casgc resilient"

    @pytest.mark.parametrize("seed", range(4))
    def test_concurrent_workload_linearizable(self, seed):
        c = CasGcCluster(
            n=6, f=2, delta=4, num_writers=2, num_readers=2, seed=seed,
            delay_model=UniformDelay(0.1, 2.0),
        )
        rng = c.sim.spawn_rng()
        for w in range(2):
            for i in range(3):
                c.schedule_write(float(rng.uniform(0, 8)), f"gc-{w}-{i}".encode(), writer=w)
        for r in range(2):
            for i in range(2):
                c.schedule_read(float(rng.uniform(0, 8)), reader=r)
        c.run()
        assert len(c.history.incomplete_operations()) == 0
        assert check_linearizability(c.history, initial_value=b"")
        assert check_lemma_properties(c.history, initial_tag=TAG_ZERO, initial_value=b"") == []


class TestRegistry:
    def test_available_protocols(self):
        assert set(available_protocols()) == {"ABD", "CAS", "CASGC", "SODA", "SODAerr"}

    @pytest.mark.parametrize("name", ["ABD", "CAS", "SODA"])
    def test_make_cluster_roundtrip(self, name):
        c = make_cluster(name, 6, 2, seed=1)
        c.write(b"registry test")
        assert c.read().value == b"registry test"
        assert c.protocol_name.upper() == name

    def test_make_cluster_casgc_delta(self):
        c = make_cluster("CASGC", 6, 2, delta=3, seed=1)
        assert c.delta == 3

    def test_make_cluster_sodaerr(self):
        c = make_cluster("SODAerr", 7, 2, e=1, seed=1)
        assert c.e == 1

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            make_cluster("PAXOS", 5, 2)
