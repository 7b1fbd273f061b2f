"""What a cluster holds follows what is in flight, not how long it ran.

Four owners used to grow with the run or with the value size: the
message-disperse engines' sets of every message id ever seen (now a
countdown that retires an id with its last copy,
``core/message_disperse.py``), the codec caches' 24 MiB of whatever was
encoded last (now bounded at what the traffic asks again for,
``erasure/batch.py``), the recorder's retired window of ``window`` whole
values (now bounded in bytes as well, ``consistency/stream.py``) and the
SODA servers' two timestamps per read ever seen (now a watermark per
reader, ``core/soda/server.py``).  Sampled at every completed operation of
a closed loop, each gauge stays under a constant of in-flight scale, and the
maximum over the whole run is that of its first half — per-operation growth
would double it.

:func:`check_soda_64k_state_bounds` is a kill check of the mutant registry
(``tests/mutants/``): a recorder that evicts in-flight records and a server
whose watermark lags fail it.
"""

import pytest

from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import RETIRED_BYTE_BUDGET, StreamingRecorder, StreamObserver
from repro.erasure import batch

CLIENTS = (2, 2)

# Disk errors on every read of one server, no crash: a crashed dispersal
# server's relays never come, and sends keep their entries (as all did).
_SODAERR = dict(n=8, f=2, e=1, error_probability=1.0, error_prone_servers=(1,))

CASES = {
    "SODA": dict(protocol="SODA", operations=6000, n=6, f=2, value_size=32),
    "SODAerr": dict(protocol="SODAerr", operations=6000, value_size=512, **_SODAERR),
    # Values large enough for the recorder's byte budget to bind.
    "SODA-64k": dict(protocol="SODA", operations=2000, n=6, f=2, value_size=65536),
    "SODAerr-64k": dict(protocol="SODAerr", operations=2000, value_size=65536, **_SODAERR),
}


class _Gauge(StreamObserver):
    """Peak of each gauge over the first half of the run and over all of it."""

    def __init__(self, cluster, recorder, operations):
        self.cluster = cluster
        self.recorder = recorder
        self.half = operations // 2
        self.completed = 0
        self.first_half = {}
        self.whole = {}

    def on_complete(self, record):
        cluster = self.cluster
        codec = cluster.codec_stats()
        sample = {
            "pending": sum(len(s._md_engine.pending_copies) for s in cluster.servers),
            "encoder_bytes": codec["encoder_bytes"],
            "decoder_bytes": codec["decoder_bytes"],
            "retired_bytes": self.recorder.retired_bytes,
            "per_read": sum(s.per_read_entries for s in cluster.servers),
        }
        self.completed += 1
        for key, value in sample.items():
            self.whole[key] = max(self.whole.get(key, 0), value)
        if self.completed == self.half:
            self.first_half = dict(self.whole)


def run_and_check(name, recorder=None):
    case = dict(CASES[name])
    protocol, operations = case.pop("protocol"), case.pop("operations")
    n, f, value_size = case.pop("n"), case.pop("f"), case.pop("value_size")
    recorder = recorder if recorder is not None else StreamingRecorder(window=64)
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    cluster = make_cluster(
        protocol,
        n,
        f,
        num_writers=CLIENTS[0],
        num_readers=CLIENTS[1],
        seed=3,
        recorder=recorder,
        **case,
    )
    gauge = recorder.subscribe(_Gauge(cluster, recorder, operations))
    stats = cluster.run_streamed(
        operations=operations, value_size=value_size, mean_gap=0.25, seed=4
    )
    assert checker.ok and stats.completed == operations and not stats.truncated

    # Quiescent and fault-free: every copy of every send arrived, every
    # read was unregistered everywhere and left nothing behind.
    assert [server._md_engine.pending_copies for server in cluster.servers] == [{}] * n
    assert [server.per_read_entries for server in cluster.servers] == [0] * n, "per_read"

    # In flight at once: one operation per client, a read's n + 2 md-sends
    # (READ-VALUE, up to n READ-DISPERSE, READ-COMPLETE) with an entry at the
    # n - 1 servers past position 0 — and as much again for the relays of
    # the operation before, still landing.  The sets this replaces held
    # every send of the run: 37 entries per operation, 220 000 by the end.
    in_flight = 2 * sum(CLIENTS) * (n + 2) * (n - 1)
    assert 0 < gauge.whole["pending"] <= in_flight
    for key in ("encoder_bytes", "decoder_bytes"):
        assert 0 < gauge.whole[key] <= batch.CACHE_BYTE_BUDGET
    # The recorder's window is full of values well before half-way, and
    # never above the budget; a server holds a registration and a history
    # entry for a read in flight and for the one before it, still landing.
    assert 0 < gauge.whole["retired_bytes"] <= RETIRED_BYTE_BUDGET
    assert gauge.whole["retired_bytes"] == min(
        recorder.window * value_size, RETIRED_BYTE_BUDGET // value_size * value_size
    )
    assert 0 < gauge.whole["per_read"] <= 2 * 2 * CLIENTS[1] * n, "per_read"

    # Doubling the run did not move the peaks (extreme values of a
    # stationary load creep; growth per operation would double them).
    for key, peak in gauge.whole.items():
        assert peak <= 1.25 * gauge.first_half[key], key
    return recorder


@pytest.mark.parametrize("name", CASES)
def test_pending_maps_and_codec_bytes_do_not_grow_with_the_run(name):
    """... nor do the recorder's value bytes or the servers' per-read state."""
    recorder = run_and_check(name)
    assert recorder.max_retired_bytes <= RETIRED_BYTE_BUDGET


def check_soda_64k_state_bounds(recorder=None):
    run_and_check("SODA-64k", recorder)
