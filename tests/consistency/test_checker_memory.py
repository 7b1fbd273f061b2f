"""Bytes the incremental checker retains per cluster, as a gate.

A long run grows the checker by one cluster per completed write, so what a
cluster costs is what a run's memory grows by.  A fixed 20 000-operation
``checker-stream``-shaped history (16 clients, seed 0) is streamed through
``StreamingRecorder(window=256)`` into the checker, under each executor
(the ``twin`` fixture); the recorder is dropped and ``tracemalloc``'s
current bytes after the stream, minus those before it, divided by
``result().clusters``, is the number gated.  Under the compiled core a
cluster's numbers live unboxed in typed columns; the Python checker keeps
them in lists of boxed floats and ints.  docs/perf.md ("A cluster's
numbers, unboxed") breaks the bytes down.

Print both rows:  PYTHONPATH=src python tests/consistency/test_checker_memory.py
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

#: Measured 324 B: the digest, its cid and their dict entry (~110 B), the
#: two op-id lists and their strings (~103 B), 8 B per number and 1 B per
#: flag (106 B), and the columns' room to grow.
COMPILED_BYTES_PER_CLUSTER = 330
#: Measured 438 B (a list slot per number, ~3 boxed floats and a boxed
#: ``_pos`` int per cluster), plus 3 %: float free-lists hide a few
#: allocations.
PYTHON_BYTES_PER_CLUSTER = 438 * 1.03


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


def test_a_cluster_costs_no_more_than_its_budget(twin):
    per_cluster, clusters = bytes_per_cluster()
    budget = COMPILED_BYTES_PER_CLUSTER if twin == "native" else PYTHON_BYTES_PER_CLUSTER
    assert per_cluster <= budget, (
        f"{twin}: {per_cluster:.0f} B per cluster over {clusters} clusters, "
        f"budget {budget:.0f}"
    )


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checker_core.CORE, "load", _unavailable)
        print(f"python executor: {bytes_per_cluster()[0]:.0f} B per cluster")
    print(f"checker core ({checker_core.CORE.describe()}): ", end="")
    if checker_core.CORE.availability_error() is None:
        print(f"{bytes_per_cluster()[0]:.0f} B per cluster")
    else:
        print("not measured")
