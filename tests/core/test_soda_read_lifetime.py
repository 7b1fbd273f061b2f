"""A SODA server forgets a read it is done with — and still knows it is done.

The "this read is over here, drop its stragglers" filter of READ-DISPERSE
used to probe two grow-only per-read maps.  A reader's reads are sequential
and numbered, so a server now keeps one watermark per reader plus the reads
that finished above it out of order.  These tests hold that representation
against the set it replaces, step by step and over whole runs, and pin the
other half of the change: registration timestamps exist exactly where a
whole history does.
"""

import pytest

from exponential_delay import ExponentialDelay

import repro.core.soda.cluster as soda_cluster
from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
from repro.core.soda.cluster import SodaCluster
from repro.core.soda.server import RegistrationLog, SodaServer


class _ShadowServer(SodaServer):
    """Keeps, beside the watermark, the plain set of finished reads the old
    maps amounted to, and checks the two agree at every use."""

    out_of_order = 0  # class-wide: reads that finished above a gap

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finished = set()
        self.notes = 0

    def _finish_read(self, reader_pid, seq):
        super()._finish_read(reader_pid, seq)
        self.finished.add((reader_pid, seq))
        type(self).out_of_order += bool(self._done_above)
        as_set = set(self._done_above)
        for reader, upto in self._done_upto.items():
            as_set.update((reader, s) for s in range(1, upto + 1))
        assert as_set == self.finished

    def _note_history(self, tag, server_index, read_id):
        self.notes += 1
        super()._note_history(tag, server_index, read_id)

    def _on_read_disperse(self, payload):
        over = (payload.reader_pid, payload.seq) in self.finished
        before = self.notes
        super()._on_read_disperse(payload)
        assert (self.notes == before) == over  # dropped exactly when over


@pytest.mark.parametrize(
    "protocol, n, kwargs", [("SODA", 6, {}), ("SODAerr", 8, dict(e=1))]
)
def test_the_watermark_is_the_set_of_finished_reads(monkeypatch, protocol, n, kwargs):
    """Heavy-tailed delays and no think time: a read's READ-COMPLETE is
    overtaken by the whole next read at some servers, so reads do finish
    out of order — and the gap always closes."""
    monkeypatch.setattr(soda_cluster, "SodaServer", _ShadowServer)
    monkeypatch.setattr(_ShadowServer, "out_of_order", 0)
    recorder = StreamingRecorder(window=16)
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    cluster = make_cluster(
        protocol,
        n,
        2,
        num_writers=2,
        num_readers=4,
        seed=5,
        recorder=recorder,
        delay_model=ExponentialDelay(mean=1.0),
        **kwargs,
    )
    stats = cluster.run_streamed(operations=1500, value_size=32, mean_gap=0.0, seed=6)
    assert checker.ok and stats.completed == 1500
    assert _ShadowServer.out_of_order > 0
    issued = {pid: reader._op_counter for pid, reader in cluster.readers.items()}
    for server in cluster.servers:
        assert server.per_read_entries == 0 and not server._done_above
        assert dict(server._done_upto) == issued


def check_soda_reads_leave_no_per_read_state():
    """Concurrent writes and reads to quiescence leave no per-read state at
    any server: no registration, history entry or finished-read marker.

    Most reads are unregistered by the relay threshold alone.  Heavy-tailed
    delays let a read's READ-VALUE reach some server after the elements that
    would have unregistered it there, and only READ-COMPLETE ends those."""
    cluster = make_cluster(
        "SODA", 5, 2, num_writers=2, num_readers=2, seed=4,
        delay_model=ExponentialDelay(mean=1.0),
    )
    stats = cluster.run_streamed(operations=200, value_size=32, mean_gap=0.0, seed=8)
    assert stats.completed == 200
    held = [server.per_read_entries for server in cluster.servers]
    assert held == [0] * 5, f"per-read state left at the servers: {held}"


def test_soda_reads_leave_no_per_read_state():
    check_soda_reads_leave_no_per_read_state()


class TestRegistrationLog:
    def test_window_is_first_registration_to_last_unregistration(self):
        log = RegistrationLog()
        assert log.window("r", now=9.0) is None
        log.registered("r", 1.0)
        log.registered("r", 2.0)
        assert log.window("r", now=9.0) == (1.0, 9.0)  # still registered somewhere
        log.unregistered("r", 3.0)
        assert log.window("r", now=9.0) == (1.0, 9.0)
        log.unregistered("r", 4.0)
        assert log.window("r", now=9.0) == (1.0, 4.0)

    def test_kept_exactly_when_the_whole_history_is(self):
        kept = SodaCluster(n=5, f=2, seed=2)
        assert isinstance(kept.registrations, RegistrationLog)
        assert all(s.registration_log is kept.registrations for s in kept.servers)
        kept.write(b"v")
        read = kept.read()
        kept.run()
        t1, t2 = kept.registrations.window(read.op_id, kept.sim.now)
        assert read.invoked_at < t1 <= t2 <= kept.sim.now

        streamed = SodaCluster(n=5, f=2, seed=2, recorder=StreamingRecorder(window=8))
        assert streamed.registrations is None
        assert all(s.registration_log is None for s in streamed.servers)
        streamed.read()
        streamed.run()
        assert [s.per_read_entries for s in streamed.servers] == [0] * 5
