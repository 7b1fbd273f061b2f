"""Memory regression fence for the codec caches, without reading RSS.

SODA [6,4] driven through ``run_streamed`` with unique 64 KiB values is
the case the caches' byte budget exists for: bounded by entries alone they
keep ~160 KiB per write ever made.  The run below makes ~300 such writes —
more than the budget holds — and must (a) keep both caches' accounted bytes
under ``CACHE_BYTE_BUDGET`` and (b) serve exactly the hits of the same run
with the budget lifted, i.e. the budget only ever drops entries nothing
asks for again.
"""

import pytest

from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
from repro.erasure import batch

OPERATIONS = 600  # 2 writers + 2 readers: about half of them writes
VALUE_SIZE = 65536


def _run():
    recorder = StreamingRecorder(window=32)
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    cluster = make_cluster(
        "SODA", 6, 2, num_writers=2, num_readers=2, seed=11, recorder=recorder
    )
    stats = cluster.run_streamed(
        operations=OPERATIONS, value_size=VALUE_SIZE, mean_gap=0.25, seed=12
    )
    assert checker.ok, checker.violations
    assert stats.completed == OPERATIONS and not stats.truncated
    return stats, cluster.codec_stats()


def test_unique_64k_values_stay_under_the_byte_budget_without_losing_hits(monkeypatch):
    limit = batch.CACHE_BYTE_BUDGET
    stats, budgeted = _run()
    monkeypatch.setattr(batch, "CACHE_BYTE_BUDGET", 1 << 40)
    unbounded_stats, unbounded = _run()

    # Same execution either way: the caches are not observable from inside.
    assert (stats.writes, stats.reads, stats.events, stats.end_time) == (
        unbounded_stats.writes,
        unbounded_stats.reads,
        unbounded_stats.events,
        unbounded_stats.end_time,
    )
    assert stats.writes >= 280

    # (a) bounded by bytes, and the bound is what binds here ...
    for prefix in ("encoder", "decoder"):
        assert 0 < budgeted[f"{prefix}_bytes"] <= limit
        assert budgeted[f"{prefix}_entries"] < unbounded[f"{prefix}_entries"]
        assert unbounded[f"{prefix}_bytes"] > limit
    # ... (b) at no cost in hits: every eviction was of a dead entry.
    for key in ("encoder_hits", "encoder_misses", "decoder_hits", "decoder_misses"):
        assert budgeted[key] == unbounded[key], key
    # Every one of the f + 1 dispersal servers of every write was served
    # from the cache: nothing warmed was evicted before its write.
    assert budgeted["encoder_hits"] == 3 * stats.writes


@pytest.mark.parametrize("value_size", (32, 4096))
def test_small_values_never_reach_the_budget(value_size):
    """Entry capacity stays the binding bound for small values, as before."""
    cluster = make_cluster("SODA", 6, 2, num_writers=2, num_readers=2, seed=3)
    cluster.run_streamed(operations=200, value_size=value_size, seed=4)
    stats = cluster.codec_stats()
    assert stats["encoder_bytes"] < batch.CACHE_BYTE_BUDGET // 8
    assert stats["encoder_entries"] >= 64
