"""What a cluster holds follows what is in flight, not how long it ran.

Two owners used to grow with the run: the message-disperse engines' sets
of every message id ever seen (now a countdown that retires an id with its
last copy, ``core/message_disperse.py``) and the codec caches' 24 MiB of
whatever was encoded last (now bounded at what the traffic asks again for,
``erasure/batch.py``).  Sampled at every completed operation of a 6 000-op
closed loop, the summed pending-map sizes and the codec caches' accounted
bytes stay under a constant of in-flight scale, and the maximum over the
whole run is that of its first half — per-operation growth would double it.
"""

import pytest

from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder, StreamObserver
from repro.erasure import batch

OPERATIONS = 6000
CLIENTS = (2, 2)

CASES = {
    "SODA": dict(n=6, f=2, value_size=32),
    # Disk errors on every read of one server, no crash: a crashed dispersal
    # server's relays never come, and sends keep their entries (as all did).
    "SODAerr": dict(
        n=8, f=2, value_size=512, e=1, error_probability=1.0, error_prone_servers=(1,)
    ),
}


class _Gauge(StreamObserver):
    """Peak of each gauge over the first half of the run and over all of it."""

    def __init__(self, cluster):
        self.cluster = cluster
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
        }
        self.completed += 1
        for key, value in sample.items():
            self.whole[key] = max(self.whole.get(key, 0), value)
        if self.completed == OPERATIONS // 2:
            self.first_half = dict(self.whole)


@pytest.mark.parametrize("protocol", CASES)
def test_pending_maps_and_codec_bytes_do_not_grow_with_the_run(protocol):
    case = dict(CASES[protocol])
    n, f, value_size = case.pop("n"), case.pop("f"), case.pop("value_size")
    recorder = StreamingRecorder(window=64)
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
    gauge = recorder.subscribe(_Gauge(cluster))
    stats = cluster.run_streamed(
        operations=OPERATIONS, value_size=value_size, mean_gap=0.25, seed=4
    )
    assert checker.ok and stats.completed == OPERATIONS and not stats.truncated

    # Quiescent and fault-free: every copy of every send arrived.
    assert [server._md_engine.pending_copies for server in cluster.servers] == [{}] * n

    # In flight at once: one operation per client, a read's n + 2 md-sends
    # (READ-VALUE, up to n READ-DISPERSE, READ-COMPLETE) with an entry at the
    # n - 1 servers past position 0 — and as much again for the relays of
    # the operation before, still landing.  The sets this replaces held
    # every send of the run: 37 entries per operation, 220 000 by the end.
    in_flight = 2 * sum(CLIENTS) * (n + 2) * (n - 1)
    assert 0 < gauge.whole["pending"] <= in_flight
    for key in ("encoder_bytes", "decoder_bytes"):
        assert 0 < gauge.whole[key] <= batch.CACHE_BYTE_BUDGET

    # Doubling the run did not move the peaks (extreme values of a
    # stationary load creep; growth per operation would double them).
    for key, peak in gauge.whole.items():
        assert peak <= 1.25 * gauge.first_half[key], key
