"""The codec caches are sized by what the traffic asks again for.

An encoding is wanted from the first dispersal server's encode to the
``(f + 1)``-th; a reconstruction within a few reads or not at all.  The
bounds in ``erasure/batch.py`` (a handful of decoder entries, 2 MiB per
cache, no pre-encoding of values the kernel takes one at a time) must
therefore cost nothing a run can see: the bounded decoder scores the hits
of an unbounded one, and every written value still goes through the kernel
exactly once — no second encode because an entry was dropped before its
``(f + 1)``-th use.  No RSS is read; memory shows in the accounted bytes.

The driver holds no value its cluster will not pre-encode: a value the
kernel takes one at a time is drawn when its writer asks for it, so at
most one is ever drawn but not yet written, while small values are still
drawn and warmed a refill at a time.  Run as a script, this file prints
that peak, in values and in bytes, for the three sizes below::

    PYTHONPATH=src python tests/runtime/test_codec_memory.py
"""

from collections import Counter

import pytest

from repro.baselines.registry import make_cluster
from repro.consistency.stream import StreamObserver
from repro.erasure import batch
from repro.runtime import driver
from repro.workloads.arrivals import parse_arrival


def _closed_loop(cluster, value_size=96):
    return cluster.run_streamed(
        operations=400, value_size=value_size, mean_gap=0.25, seed=12
    )


def _open_loop(cluster):
    return cluster.run_open_loop(
        operations=400,
        arrival=parse_arrival("poisson:4"),
        read_fraction=0.5,
        policy="drop",
        queue_per_server=4,
        value_size=96,
        seed=12,
    )


def _crash_two(cluster):
    cluster.crash_server(0, 30.0)
    cluster.crash_server(2, 60.0)


#: protocol, n, cluster kwargs, (writers, readers), faults to arm, driver.
TRAFFIC = {
    "soda-closed": ("SODA", 6, {}, (2, 2), None, _closed_loop),
    "sodaerr-crashes-closed": (
        "SODAerr",
        8,
        dict(e=1, error_probability=1.0, error_prone_servers=(1,)),
        (2, 2),
        _crash_two,
        _closed_loop,
    ),
    "casgc-closed": ("CASGC", 6, dict(delta=4), (2, 2), None, _closed_loop),
    "soda-open-8+8": ("SODA", 6, {}, (8, 8), None, _open_loop),
}


def _run(traffic, *, unbounded):
    protocol, n, kwargs, clients, arm_faults, drive = TRAFFIC[traffic]
    writers, readers = clients
    cluster = make_cluster(
        protocol, n, 2, num_writers=writers, num_readers=readers, seed=11, **kwargs
    )
    if unbounded:
        cluster.decoder.capacity = 1 << 30
    if arm_faults is not None:
        arm_faults(cluster)
    stats = drive(cluster)
    assert stats.completed >= 300 and not stats.truncated
    return stats, cluster.codec_stats()


@pytest.mark.parametrize("traffic", TRAFFIC)
def test_the_bounded_decoder_scores_the_hits_of_an_unbounded_one(traffic, monkeypatch):
    stats, bounded = _run(traffic, unbounded=False)
    monkeypatch.setattr(batch, "CACHE_BYTE_BUDGET", 1 << 40)
    unbounded_stats, unbounded = _run(traffic, unbounded=True)

    # Same execution either way: the caches are not observable from inside.
    assert (stats.completed, stats.events, stats.end_time) == (
        unbounded_stats.completed,
        unbounded_stats.events,
        unbounded_stats.end_time,
    )
    # The bound is what binds ...
    assert bounded["decoder_entries"] == batch.DECODER_CAPACITY
    assert unbounded["decoder_entries"] == unbounded["decoder_misses"] > 100
    # ... at no cost in hits: everything it dropped was never asked for again.
    assert bounded["decoder_hits"] == unbounded["decoder_hits"] > 0
    assert bounded["decoder_misses"] == unbounded["decoder_misses"]


def _count_kernel_encodes(code):
    """How often each value went through ``code``'s encode kernel."""
    counts = Counter()
    encode, encode_many = code.encode, code.encode_many

    def counting_encode(value):
        counts[value] += 1
        return encode(value)

    def counting_encode_many(values):
        counts.update(values)
        return encode_many(values)

    code.encode, code.encode_many = counting_encode, counting_encode_many
    return counts


@pytest.mark.parametrize("value_size", (32, 4096, 65536))
def test_every_written_value_is_encoded_by_the_kernel_once(value_size):
    cluster = make_cluster("SODA", 6, 2, num_writers=2, num_readers=2, seed=11)
    kernel_encodes = _count_kernel_encodes(cluster.code)
    stats = _closed_loop(cluster, value_size)
    written = [op.value for op in cluster.history.writes()]
    assert len(written) == stats.writes >= 180
    assert {kernel_encodes[value] for value in written} == {1}

    codec = cluster.codec_stats()
    warmed = cluster.code.batch_step(cluster.code.element_size(value_size)) > 1
    if warmed:
        # Pre-encoded a driver batch at a time: all f + 1 dispersal servers hit.
        assert codec["encoder_hits"] == 3 * stats.writes
    else:
        # Encoded by the first dispersal server, served to the other f; the
        # cache holds the writes in flight, not a batch of 64 encodings.
        assert codec["encoder_hits"] == 2 * stats.writes
        assert codec["encoder_misses"] == stats.writes + 1  # and the initial value
    for front in ("encoder", "decoder"):
        assert 0 < codec[f"{front}_bytes"] <= batch.CACHE_BYTE_BUDGET


#: Encoder counters of ``_closed_loop`` on a SODA [6,4] cluster with 2
#: writers and 2 readers, as the driver that drew every refill ahead of its
#: writes left them.  Drawing a value when it is written must not change
#: what is encoded, or when.
PINNED_ENCODER = {
    32: dict(encoder_hits=615, encoder_misses=1, encoder_entries=257, encoder_bytes=22022),
    4096: dict(
        encoder_hits=606, encoder_misses=1, encoder_entries=204, encoder_bytes=2090184
    ),
    65536: dict(
        encoder_hits=404, encoder_misses=203, encoder_entries=12, encoder_bytes=1966152
    ),
}


def values_held(value_size):
    """Drive ``_closed_loop`` on a SODA [6,4] 2+2 cluster and return the
    peak number of values drawn but not yet written, their bytes at that
    peak, the sizes of the refills handed to ``warm_encode`` and the codec
    counters.  A value is drawn when the driver's ``_refill`` yields it and
    written when its write is invoked."""
    held = {"values": 0, "bytes": 0}
    peak = {"values": 0, "bytes": 0}
    refill = driver._refill

    def counting_refill(*args):
        for value in refill(*args):
            held["values"] += 1
            held["bytes"] += len(value)
            if held["values"] > peak["values"]:
                peak.update(held)
            yield value

    class Writes(StreamObserver):
        def on_invoke(self, record):
            if record.kind == "write":
                held["values"] -= 1
                held["bytes"] -= len(record.value)

    cluster = make_cluster("SODA", 6, 2, num_writers=2, num_readers=2, seed=11)
    cluster.history.subscribe(Writes())
    warmed = []
    warm_encode = cluster.warm_encode

    def recording_warm_encode(values):
        warmed.append(len(values))
        return warm_encode(values)

    cluster.warm_encode = recording_warm_encode
    driver._refill = counting_refill
    try:
        stats = _closed_loop(cluster, value_size)
    finally:
        driver._refill = refill
    assert stats.completed == 400 and not stats.truncated
    return peak["values"], peak["bytes"], warmed, cluster.codec_stats()


@pytest.mark.parametrize("value_size", sorted(PINNED_ENCODER))
def test_values_are_held_ahead_of_their_writes_only_to_be_pre_encoded(value_size):
    peak, peak_bytes, warmed, codec = values_held(value_size)
    if value_size == 65536:
        # Drawn when written: never more than the one being handed over.
        assert peak <= 1 and peak_bytes <= value_size
        assert warmed == []
    else:
        # Drawn and warmed a whole refill of 64 at a time, as before.
        assert peak == 64 and peak_bytes == 64 * value_size
        assert warmed and set(warmed) == {64}
    assert {key: codec[key] for key in PINNED_ENCODER[value_size]} == (
        PINNED_ENCODER[value_size]
    )


if __name__ == "__main__":
    print("values drawn but not yet written, SODA [6,4] 2+2 closed loop, 400 ops:")
    for size in sorted(PINNED_ENCODER):
        peak, peak_bytes, _, _ = values_held(size)
        print(f"  value_size {size:>6} B: peak {peak:>2} values, {peak_bytes:>7} B")
