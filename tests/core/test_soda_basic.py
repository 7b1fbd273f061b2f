"""Basic SODA protocol tests: sequential writes/reads, costs, parameters."""

import pytest

from repro.core.soda.cluster import SodaCluster
from repro.core.tags import TAG_ZERO, Tag
from repro.sim.network import FixedDelay


class TestClusterConstruction:
    def test_parameters(self):
        c = SodaCluster(n=5, f=2)
        assert c.k == 3
        assert c.code.n == 5 and c.code.k == 3
        assert len(c.servers) == 5
        assert c.protocol_name == "SODA"

    def test_f_too_large_rejected(self):
        with pytest.raises(ValueError):
            SodaCluster(n=5, f=3)
        with pytest.raises(ValueError):
            SodaCluster(n=4, f=2)

    def test_f_zero_allowed(self):
        c = SodaCluster(n=3, f=0)
        rec = c.write(b"no fault tolerance")
        assert rec.is_complete

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            SodaCluster(n=4, f=-1)

    def test_no_servers_rejected(self):
        with pytest.raises(ValueError):
            SodaCluster(n=0, f=0)

    def test_client_counts(self):
        c = SodaCluster(n=5, f=2, num_writers=3, num_readers=4)
        assert len(c.writers) == 3
        assert len(c.readers) == 4
        with pytest.raises(ValueError):
            SodaCluster(n=5, f=2, num_writers=0)

    def test_initial_storage_cost(self):
        c = SodaCluster(n=6, f=2, initial_value=b"init")
        # Every server stores one coded element of size 1/k from the start.
        assert c.storage.current_total == pytest.approx(6 / 4)


class TestSequentialOperations:
    def test_read_initial_value(self):
        c = SodaCluster(n=5, f=2, initial_value=b"genesis")
        rec = c.read()
        assert rec.value == b"genesis"
        assert rec.tag == TAG_ZERO

    def test_read_default_initial_value_empty(self):
        c = SodaCluster(n=5, f=2)
        assert c.read().value == b""

    def test_write_then_read(self):
        c = SodaCluster(n=5, f=2, seed=42)
        w = c.write(b"hello world")
        assert w.is_complete
        assert w.tag == Tag(1, "w0")
        r = c.read()
        assert r.value == b"hello world"
        assert r.tag == w.tag

    def test_sequence_of_writes_monotonic_tags(self):
        c = SodaCluster(n=5, f=2, seed=1)
        tags = [c.write(f"value {i}".encode()).tag for i in range(5)]
        assert tags == sorted(tags)
        assert len(set(tags)) == 5
        assert c.read().value == b"value 4"

    def test_multiple_writers_interleaved(self):
        c = SodaCluster(n=5, f=2, num_writers=3, seed=2)
        c.write(b"from w0", writer=0)
        c.write(b"from w1", writer=1)
        c.write(b"from w2", writer=2)
        assert c.read().value == b"from w2"

    def test_multiple_readers(self):
        c = SodaCluster(n=5, f=2, num_readers=3, seed=3)
        c.write(b"shared state")
        for i in range(3):
            assert c.read(reader=i).value == b"shared state"

    def test_large_value_roundtrip(self):
        import numpy as np

        payload = bytes(np.random.default_rng(0).integers(0, 256, 10_000, dtype=np.uint8))
        c = SodaCluster(n=7, f=3, seed=4)
        c.write(payload)
        assert c.read().value == payload

    def test_empty_value_roundtrip(self):
        c = SodaCluster(n=5, f=2)
        c.write(b"")
        assert c.read().value == b""

    def test_writer_well_formedness(self):
        c = SodaCluster(n=5, f=2)
        c.writer(0).start_write(b"first")
        with pytest.raises(RuntimeError):
            c.writer(0).start_write(b"second")

    def test_reader_well_formedness(self):
        c = SodaCluster(n=5, f=2)
        c.reader(0).start_read()
        with pytest.raises(RuntimeError):
            c.reader(0).start_read()

    def test_crashed_writer_rejects_new_operation(self):
        c = SodaCluster(n=5, f=2)
        c.writer(0).crash()
        with pytest.raises(RuntimeError):
            c.writer(0).start_write(b"x")

    def test_operation_history_recording(self):
        c = SodaCluster(n=5, f=2, seed=5)
        w = c.write(b"abc")
        r = c.read()
        ops = c.history.operations()
        assert [op.kind for op in ops] == ["write", "read"]
        assert ops[0].duration > 0
        assert ops[1].duration > 0
        assert w.op_id != r.op_id


class TestCosts:
    def test_storage_cost_matches_theorem_5_3(self):
        for n, f in [(4, 1), (5, 2), (8, 3), (10, 4)]:
            c = SodaCluster(n=n, f=f, seed=n)
            for i in range(3):
                c.write(f"value {i}".encode())
                c.read()
            c.run()
            assert c.storage_peak() == pytest.approx(n / (n - f))
            assert c.theoretical_storage_cost() == pytest.approx(n / (n - f))

    def test_write_cost_below_5f_squared(self):
        for n, f in [(5, 2), (7, 3), (9, 4), (11, 5)]:
            c = SodaCluster(n=n, f=f, seed=n)
            rec = c.write(b"x" * 64)
            c.run()
            assert c.operation_cost(rec.op_id) <= 5 * f * f

    def test_uncontended_read_cost_matches_theorem_5_6(self):
        """With no concurrent writes (delta_w = 0) the read cost is n/(n-f)."""
        c = SodaCluster(n=6, f=2, seed=9)
        c.write(b"steady state")
        c.run()
        rec = c.read()
        c.run()
        assert c.operation_cost(rec.op_id) == pytest.approx(6 / 4)

    def test_write_cost_components(self):
        """The write's data traffic comes only from MD-VALUE full/coded messages."""
        c = SodaCluster(n=5, f=2, seed=10, keep_message_trace=True)
        rec = c.write(b"traced")
        c.run()
        traced = [
            m
            for m in c.sim.network.trace
            if m.op_id == rec.op_id and m.data_units > 0
        ]
        full = [m for m in traced if m.data_units == 1.0]
        coded = [m for m in traced if 0 < m.data_units < 1.0]
        # f+1 = 3 full-value messages from the writer, plus relays among the
        # dispersal set; coded elements go to the n-f-1 = 2 remaining servers
        # from each of the f+1 dispersal servers.
        assert len(full) >= 3
        assert len(coded) >= 2
        assert all(m.data_units == pytest.approx(1 / 3) for m in coded)

    def test_latency_bounds_with_fixed_delay(self):
        """Theorem 5.7: writes within 5 delta, reads within 6 delta."""
        delta = 1.0
        c = SodaCluster(n=5, f=2, delay_model=FixedDelay(delta), seed=11)
        w = c.write(b"latency probe")
        r = c.read()
        assert w.duration <= 5 * delta + 1e-9
        assert r.duration <= 6 * delta + 1e-9

    def test_metadata_has_no_cost(self):
        c = SodaCluster(n=5, f=2, seed=12)
        rec = c.read()  # reads of the initial value move only coded elements
        c.run()
        assert c.operation_cost(rec.op_id) == pytest.approx(5 / 3)
