"""SODAerr tests: correctness under silent disk-read errors (Section VI)."""

import pytest

from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.wgl import check_linearizability
from repro.core.sodaerr.cluster import SodaErrCluster
from repro.core.tags import TAG_ZERO
from repro.sim.network import UniformDelay


class TestConstruction:
    def test_code_dimension(self):
        c = SodaErrCluster(n=9, f=2, e=2)
        assert c.k == 9 - 2 - 2 * 2
        assert c.code.k == c.k

    def test_invalid_parameters(self):
        # k = n - f - 2e must stay at least 1.
        with pytest.raises(ValueError):
            SodaErrCluster(n=5, f=2, e=2)
        with pytest.raises(ValueError):
            SodaErrCluster(n=6, f=3, e=0)  # f > (n-1)/2
        with pytest.raises(ValueError):
            SodaErrCluster(n=6, f=2, e=-1)

    def test_reader_threshold(self):
        c = SodaErrCluster(n=9, f=2, e=2)
        assert c.reader(0).decode_threshold == c.k + 2 * 2

    def test_storage_cost_theorem_6_3(self):
        for n, f, e in [(6, 1, 1), (8, 2, 1), (10, 3, 2)]:
            c = SodaErrCluster(n=n, f=f, e=e, seed=n)
            c.write(b"value")
            c.read()
            c.run()
            assert c.storage_peak() == pytest.approx(n / (n - f - 2 * e))
            assert c.theoretical_storage_cost() == pytest.approx(n / (n - f - 2 * e))


class TestErrorFreeOperation:
    def test_write_read_roundtrip(self):
        c = SodaErrCluster(n=7, f=2, e=1, seed=1)
        c.write(b"sodaerr without errors")
        assert c.read().value == b"sodaerr without errors"

    def test_sequential_writes(self):
        c = SodaErrCluster(n=7, f=2, e=1, seed=2)
        for i in range(4):
            c.write(f"gen {i}".encode())
        assert c.read().value == b"gen 3"


class TestWithInjectedErrors:
    def test_read_correct_despite_one_error(self):
        c = SodaErrCluster(
            n=7, f=2, e=1, error_probability=1.0, max_total_errors=1, seed=3
        )
        c.write(b"resilient to one bad disk")
        rec = c.read()
        assert rec.value == b"resilient to one bad disk"
        assert c.disk_error_model.errors_injected == 1

    def test_read_correct_despite_e_errors(self):
        c = SodaErrCluster(
            n=10, f=2, e=2, error_probability=1.0, max_total_errors=2, seed=4
        )
        c.write(b"two flaky disks at once")
        rec = c.read()
        assert rec.value == b"two flaky disks at once"
        assert c.disk_error_model.errors_injected == 2

    def test_error_prone_server_restriction(self):
        c = SodaErrCluster(
            n=8,
            f=2,
            e=1,
            error_probability=1.0,
            error_prone_servers=[3],
            seed=5,
        )
        c.write(b"only s3 is flaky")
        for _ in range(3):
            assert c.read().value == b"only s3 is flaky"
        assert set(c.disk_error_model.per_server_errors) <= {"s3"}

    def test_repeated_reads_with_errors_every_time(self):
        """A single permanently flaky disk corrupts one element of every
        read; with e = 1 every read must still return the right value."""
        c = SodaErrCluster(
            n=8, f=2, e=1, error_probability=1.0, error_prone_servers=[2], seed=6
        )
        c.write(b"steady value")
        for _ in range(5):
            assert c.read().value == b"steady value"
        assert c.disk_error_model.errors_injected >= 5

    def test_crashes_and_errors_together(self):
        """The headline claim of SODAerr: tolerate f crashes AND e errors."""
        n, f, e = 9, 2, 2
        c = SodaErrCluster(
            n=n,
            f=f,
            e=e,
            error_probability=1.0,
            max_total_errors=e,
            seed=7,
        )
        for i in range(f):
            c.crash_server(i, at_time=0.0)
        c.write(b"worst case: crashes plus corruptions")
        rec = c.read()
        assert rec.value == b"worst case: crashes plus corruptions"

    def test_initial_value_read_with_errors(self):
        c = SodaErrCluster(
            n=7, f=2, e=1, error_probability=1.0, max_total_errors=1,
            initial_value=b"genesis", seed=8
        )
        assert c.read().value == b"genesis"


class TestAtomicityUnderErrors:
    @pytest.mark.parametrize("seed", range(4))
    def test_concurrent_workload_linearizable(self, seed):
        # One flaky disk (server s1) corrupting 30% of its local reads keeps
        # every read within the e = 1 error budget the protocol tolerates.
        c = SodaErrCluster(
            n=8,
            f=2,
            e=1,
            error_probability=0.3,
            error_prone_servers=[1],
            num_writers=2,
            num_readers=2,
            seed=seed,
            delay_model=UniformDelay(0.1, 2.0),
        )
        rng = c.sim.spawn_rng()
        for w in range(2):
            for i in range(3):
                c.schedule_write(
                    float(rng.uniform(0, 8)), f"val-{w}-{i}".encode(), writer=w
                )
        for r in range(2):
            for i in range(3):
                c.schedule_read(float(rng.uniform(0, 8)), reader=r)
        c.run()
        assert len(c.history.incomplete_operations()) == 0
        assert check_linearizability(c.history, initial_value=b"")
        assert (
            check_lemma_properties(c.history, initial_tag=TAG_ZERO, initial_value=b"")
            == []
        )

    def test_read_cost_theorem_6_3(self):
        n, f, e = 8, 2, 1
        c = SodaErrCluster(n=n, f=f, e=e, seed=11)
        c.write(b"baseline")
        c.run()
        rec = c.read()
        c.run()
        # Uncontended read: delta_w = 0 -> cost n / (n - f - 2e).
        assert c.operation_cost(rec.op_id) == pytest.approx(n / (n - f - 2 * e))
