"""SODA liveness and safety under crash failures (Theorems 5.1 / 5.2)."""

import pytest

from crash_client import crash_client

from repro.core.soda.cluster import SodaCluster
from repro.sim.failures import CrashSchedule
from repro.sim.network import UniformDelay


class TestServerCrashes:
    @pytest.mark.parametrize("n,f", [(5, 2), (7, 3), (9, 4)])
    def test_operations_complete_with_f_servers_down_from_start(self, n, f):
        c = SodaCluster(n=n, f=f, seed=n)
        for i in range(f):
            c.crash_server(i, at_time=0.0)
        w = c.write(b"written despite crashes")
        r = c.read()
        assert w.is_complete and r.is_complete
        assert r.value == b"written despite crashes"

    def test_operations_complete_with_last_f_servers_down(self):
        """Crashing the tail of the server order knocks out non-dispersal
        servers; the dispersal set (first f+1) stays intact."""
        c = SodaCluster(n=7, f=3, seed=5)
        for i in (4, 5, 6):
            c.crash_server(i, at_time=0.0)
        assert c.write(b"v").is_complete
        assert c.read().value == b"v"

    def test_operations_complete_with_dispersal_set_partially_down(self):
        """Crashing f of the first f+1 servers leaves one relay alive, which
        is exactly the case the MD primitives are designed for."""
        c = SodaCluster(n=7, f=3, seed=6)
        for i in (0, 1, 2):
            c.crash_server(i, at_time=0.0)
        assert c.write(b"v2").is_complete
        assert c.read().value == b"v2"

    def test_crash_during_write(self):
        """Servers crashing mid-write must not block completion as long as at
        most f crash."""
        c = SodaCluster(n=6, f=2, seed=7, delay_model=UniformDelay(0.5, 2.0))
        c.crash_server(0, at_time=1.0)
        c.crash_server(3, at_time=2.0)
        w = c.write(b"crash during write")
        assert w.is_complete
        r = c.read()
        assert r.value == b"crash during write"

    def test_crash_schedule_respects_f_bound(self):
        c = SodaCluster(n=5, f=2)
        bad = CrashSchedule().add("s0", 1.0).add("s1", 1.0).add("s2", 1.0)
        with pytest.raises(ValueError):
            c.apply_crash_schedule(bad)

    def test_apply_valid_crash_schedule(self):
        c = SodaCluster(n=5, f=2, seed=8)
        c.apply_crash_schedule(CrashSchedule().add("s1", 0.5).add("s4", 1.5))
        assert c.write(b"ok").is_complete
        assert c.read().value == b"ok"

    def test_value_written_before_crash_remains_readable(self):
        c = SodaCluster(n=5, f=2, seed=9)
        c.write(b"durable value")
        c.crash_server(0, at_time=c.sim.now)
        c.crash_server(1, at_time=c.sim.now)
        assert c.read().value == b"durable value"


class TestClientCrashes:
    def test_writer_crash_mid_operation_does_not_block_others(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=1, seed=10)
        # Start a write and crash the writer almost immediately, before it
        # can finish (message delays are at least 0.1).
        c.writer(0).start_write(b"never finished")
        crash_client(c, "w0", at_time=0.05)
        c.run()
        failed_op = c.history.operations()[0]
        assert not failed_op.is_complete
        # Other clients are unaffected.
        assert c.write(b"completed", writer=1).is_complete
        assert c.read().value == b"completed"

    def test_writer_crash_after_dispersal_value_still_propagates(self):
        """If the writer crashes after md-value-send reached a server, the
        uniformity of MD-VALUE guarantees all servers store the new version;
        a later read may legitimately return it."""
        c = SodaCluster(n=5, f=2, num_writers=2, seed=11)
        c.writer(0).start_write(b"phantom write")
        # Let the write-get and dispersal get going, then crash the writer.
        crash_client(c, "w0", at_time=3.0)
        c.run()
        read_rec = c.read()
        assert read_rec.value in (b"", b"phantom write")
        # Whatever the read returned, all servers agree on their stored tag.
        c.run()
        tags = {s.tag for s in c.servers}
        assert len(tags) == 1

    def test_reader_crash_is_eventually_unregistered(self):
        """Theorem 5.5: servers do not relay to a failed reader forever."""
        c = SodaCluster(n=5, f=2, num_readers=2, num_writers=1, seed=12)
        c.reader(0).start_read()
        crash_client(c, "r0", at_time=0.5)
        # Subsequent writes trigger relaying to registered readers; after
        # enough READ-DISPERSE exchanges the dead reader must be dropped.
        for i in range(4):
            c.write(f"post-crash write {i}".encode())
        c.run()
        for server in c.servers:
            assert "r0" not in {
                reg.reader_pid for reg in server.registered_readers.values()
            }
        # And the History of every server is purged of that reader's entries.
        for server in c.servers:
            assert all(
                not entry[2].startswith("read:r0") for entry in server.history_entries
            )

    def test_failed_read_recorded_as_incomplete(self):
        c = SodaCluster(n=5, f=2, seed=13)
        c.reader(0).start_read()
        crash_client(c, "r0", at_time=0.01)
        c.run()
        ops = c.history.operations()
        assert len(ops) == 1
        assert not ops[0].is_complete
        assert ops[0].failed
