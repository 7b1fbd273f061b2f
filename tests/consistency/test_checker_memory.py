"""Bytes the incremental checker retains per cluster, as a gate.

A long run grows the checker by one cluster per completed write, so what a
cluster costs is what a run's memory grows by.  A fixed 20 000-operation
``checker-stream``-shaped history (16 clients, seed 0) is streamed through
``StreamingRecorder(window=256)`` into the checker, under each executor
(the ``twin`` fixture); the recorder is dropped and ``tracemalloc``'s
current bytes after the stream, minus those before it, divided by
``result().clusters``, is the number gated.  Under the compiled core a
cluster's numbers live unboxed in typed columns, its op ids as UTF-8 in
name columns and its digest in a C key table; the Python checker keeps
boxed floats, ints, strs and bytes in lists and a dict.  docs/perf.md ("A
cluster's numbers, unboxed" and "A cluster's key and op ids, off the Python
heap") breaks the bytes down.

The shard merge keeps every shard's ``cluster_summaries()`` rows, so a
row's bytes, retained once the checker is gone, are gated too: under the
compiled core a row boxes its key, op ids and numbers anew, and must cost
no more than a Python row, which keeps the checker's own objects.

Print both:  PYTHONPATH=src python tests/consistency/test_checker_memory.py
"""

import gc
import tracemalloc

import pytest

from repro.consistency import checker_core
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
from repro.workloads.generator import StreamSpec, stream_operations

#: The ``twin`` fixture's tests run under both executors of the checker.
TWINS = ("checker core",)

#: Measured 171 B: 8 B per number and 1 B per flag (106 B, ~119 B with the
#: columns' room to grow), the 16-byte key and ~6.6 B of slot index (~25 B),
#: an 8-byte item and the UTF-8 of each op id (~30 B; the first read's only
#: once read).  It was 324 B with the digest, its boxed cid and their dict
#: entry (~110 B) and two op-id lists and their strings (~103 B).
COMPILED_BYTES_PER_CLUSTER = 180
#: Measured 438 B (a list slot per number, ~3 boxed floats and a boxed
#: ``_pos`` int per cluster), plus 3 %: float free-lists hide a few
#: allocations.
PYTHON_BYTES_PER_CLUSTER = 438 * 1.03
#: Measured 351 B under either executor: the row's tuple, its key, its two
#: op ids, one float per distinct number (the infinities the module's).
#: Before a row boxed each number once, a compiled row cost 399 B.
SUMMARY_BYTES_PER_ROW = 360


def _unavailable():
    raise RuntimeError("no C toolchain")


def _stream(operations):
    recorder = StreamingRecorder(window=256)
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    stream_operations(StreamSpec(operations=operations, clients=16, seed=0), recorder)
    return checker


def bytes_per_cluster(operations=20_000):
    """(retained bytes per cluster, clusters) of one streamed history."""
    _stream(1_000)  # imports and first-use caches stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checker = _stream(operations)  # the recorder goes with the call
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    clusters = checker.result().clusters
    assert checker.ok and clusters > operations // 3
    return retained / clusters, clusters


def bytes_per_summary_row(operations=20_000):
    """(bytes per ``cluster_summaries()`` row retained once the checker is
    dropped, rows) of the same history."""
    _stream(1_000).cluster_summaries()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = _stream(operations).cluster_summaries()  # the checker goes with the call
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(rows), len(rows)


def test_a_cluster_costs_no_more_than_its_budget(twin):
    per_cluster, clusters = bytes_per_cluster()
    budget = COMPILED_BYTES_PER_CLUSTER if twin == "native" else PYTHON_BYTES_PER_CLUSTER
    assert per_cluster <= budget, (
        f"{twin}: {per_cluster:.0f} B per cluster over {clusters} clusters, "
        f"budget {budget:.0f}"
    )


def test_a_summary_row_costs_no_more_than_its_budget(twin):
    per_row, rows = bytes_per_summary_row()
    assert per_row <= SUMMARY_BYTES_PER_ROW, (
        f"{twin}: {per_row:.0f} B per summary row over {rows} rows, "
        f"budget {SUMMARY_BYTES_PER_ROW}"
    )


@pytest.mark.skipif(
    checker_core.CORE.availability_error() is not None, reason="no compiled checker core"
)
def test_a_compiled_summary_row_costs_no_more_than_a_python_row(monkeypatch):
    compiled = bytes_per_summary_row()[0]
    monkeypatch.setattr(checker_core.CORE, "load", _unavailable)
    python = bytes_per_summary_row()[0]
    assert compiled <= python, f"{compiled:.1f} B per compiled row, {python:.1f} B per Python row"


def _report():
    cluster, row = bytes_per_cluster()[0], bytes_per_summary_row()[0]
    return f"{cluster:.0f} B per cluster, {row:.1f} B per summary row"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checker_core.CORE, "load", _unavailable)
        print(f"python executor: {_report()}")
    print(f"checker core ({checker_core.CORE.describe()}): ", end="")
    if checker_core.CORE.availability_error() is None:
        print(_report())
    else:
        print("not measured")
