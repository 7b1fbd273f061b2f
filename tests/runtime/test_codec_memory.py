"""The codec caches are sized by what the traffic asks again for.

An encoding is wanted from the first dispersal server's encode to the
``(f + 1)``-th; a reconstruction within a few reads or not at all.  The
bounds in ``erasure/batch.py`` (a handful of decoder entries, 2 MiB per
cache, no pre-encoding of values the kernel takes one at a time) must
therefore cost nothing a run can see: the bounded decoder scores the hits
of an unbounded one, and every written value still goes through the kernel
exactly once — no second encode because an entry was dropped before its
``(f + 1)``-th use.  No RSS is read; memory shows in the accounted bytes.
"""

from collections import Counter

import pytest

from repro.baselines.registry import make_cluster
from repro.erasure import batch
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
