"""The workloads that schedule operations on a live cluster.

These are the workloads behind the paper sweeps and Table I:

* :func:`run_workload` — a randomized mix of concurrent reads and writes
  described by a :class:`WorkloadSpec`, optionally racing server crashes
  (bounded by the cluster's ``f``): the atomicity, latency, crash-burst and
  slow-disk sweeps and Table I (E5/E7);
* :func:`sequential_scenario` — strictly sequential writes and reads
  (``delta_w = 0``), used for the uncontended cost rows and the
  storage-cost sweep (E2/E3);
* :func:`concurrent_read_scenario` — a single read that overlaps a
  controlled number of writes, used for the read-cost-vs-``delta_w`` curve
  of Theorem 5.6 (E4);
* :func:`skewed_scenario` — a randomized mix with a configurable read
  fraction, used by the skew sweep (read-heavy caches vs write-heavy
  ingest shapes).

Each runs the simulation to quiescence and returns a
:class:`ScenarioResult`.  The two randomized ones share one scheduling
step, :func:`_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.consistency.history import OperationRecord
from repro.runtime.cluster import RegisterCluster
from repro.sim.failures import CrashSchedule
from repro.workloads.generator import unique_value


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a randomized concurrent workload.

    Attributes
    ----------
    writes_per_writer / reads_per_reader:
        Number of operations each client issues.
    window:
        Operations are invoked at times drawn uniformly from ``[0, window]``
        (subject to the one-at-a-time well-formedness of each client), and
        so are the server crashes.
    value_size:
        Size in bytes of each written value (a unique header plus filler).
    server_crashes:
        Number of servers to crash at random times (must not exceed the
        cluster's ``f``).
    seed:
        Seed for the workload's own randomness (independent from the
        cluster's delay randomness).
    """

    writes_per_writer: int = 3
    reads_per_reader: int = 3
    window: float = 10.0
    value_size: int = 64
    server_crashes: int = 0
    seed: int = 0


@dataclass
class ScenarioResult:
    """Operations of interest produced by a workload.

    ``writes`` and ``reads`` hold the
    :class:`~repro.consistency.history.OperationRecord` of each operation
    the workload invoked (in scheduling order), so downstream cost analyses
    read one uniform shape whichever workload produced it.
    """

    writes: List[OperationRecord]
    reads: List[OperationRecord]

    @property
    def read(self) -> OperationRecord:
        """The workload's (first) read — for single-read scenarios."""
        if not self.reads:
            raise ValueError("scenario produced no reads")
        return self.reads[0]

    def write_costs(self, cluster: RegisterCluster) -> List[float]:
        return [cluster.operation_cost(op.op_id) for op in self.writes]

    def read_costs(self, cluster: RegisterCluster) -> List[float]:
        return [cluster.operation_cost(op.op_id) for op in self.reads]


def _schedule(
    cluster: RegisterCluster,
    rng: np.random.Generator,
    writes: Sequence[Tuple[int, bytes]],
    readers: Sequence[int],
    window: float,
) -> ScenarioResult:
    """Pre-encode the ``(writer, value)`` writes, schedule each at a time
    drawn uniformly from ``[0, window]`` in list order, then each read of
    ``readers`` likewise, and run the cluster to quiescence.

    An operation whose client crashed before it could start has no record.
    """
    # One batched encode up front; the per-write dispersal encodes hit the
    # cluster's shared encoder cache.
    cluster.warm_encode([value for _, value in writes])
    write_handles = [
        cluster.schedule_write(float(rng.uniform(0.0, window)), value, writer=writer)
        for writer, value in writes
    ]
    read_handles = [
        cluster.schedule_read(float(rng.uniform(0.0, window)), reader=reader)
        for reader in readers
    ]
    cluster.run()
    history = cluster.history
    return ScenarioResult(
        writes=[history.get(h.op_id) for h in write_handles if h.op_id],
        reads=[history.get(h.op_id) for h in read_handles if h.op_id],
    )


def run_workload(cluster: RegisterCluster, spec: WorkloadSpec) -> ScenarioResult:
    """Schedule ``spec`` on ``cluster`` and run it to quiescence.

    The crash schedule (if any) is drawn first, then each writer's writes
    (writer by writer) and each reader's reads.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.server_crashes:
        if spec.server_crashes > cluster.f:
            raise ValueError(
                f"workload crashes {spec.server_crashes} servers but the cluster "
                f"only tolerates f={cluster.f}"
            )
        cluster.apply_crash_schedule(
            CrashSchedule.random(
                cluster.server_ids,
                spec.server_crashes,
                rng,
                time_range=(0.0, spec.window),
                exact=True,
            )
        )
    writers = [
        w for w in range(cluster.num_writers) for _ in range(spec.writes_per_writer)
    ]
    return _schedule(
        cluster,
        rng,
        [(w, unique_value(w, seq, spec.value_size)) for seq, w in enumerate(writers)],
        [r for r in range(cluster.num_readers) for _ in range(spec.reads_per_reader)],
        spec.window,
    )


def sequential_scenario(
    cluster: RegisterCluster,
    *,
    num_writes: int = 3,
    num_reads: int = 3,
    value_size: int = 64,
) -> ScenarioResult:
    """Blocking writes followed by blocking reads — zero concurrency."""
    values = [unique_value(0, i, value_size) for i in range(num_writes)]
    # One batched matmul up front; the per-write dispersal encodes hit the
    # cluster's shared encoder cache.
    cluster.warm_encode(values)
    writes = [cluster.write(value) for value in values]
    reads = [cluster.read() for _ in range(num_reads)]
    cluster.run()
    return ScenarioResult(writes=writes, reads=reads)


def concurrent_read_scenario(
    cluster: RegisterCluster,
    *,
    concurrent_writes: int,
    value_size: int = 64,
) -> ScenarioResult:
    """One read overlapping ``concurrent_writes`` writes.

    The read is started first; the writes are invoked in quick succession
    immediately afterwards (0.4 time units apart, over the read's
    registration window), so every write is concurrent with the read in the
    sense of the paper's ``delta_w``.  Requires a cluster with at least one
    reader and enough writers to keep each client well-formed (writes are
    distributed round-robin over the available writers and retried if a
    writer is busy).

    The result's ``reads`` hold exactly the one overlapped read (the
    ``.read`` shorthand); ``writes`` hold the baseline write followed by
    the concurrent writes.
    """
    # Establish a baseline version so the read has something to return even
    # if every concurrent write lands after it decodes.
    baseline = unique_value(0, 10_000, value_size)
    concurrent_values = [
        unique_value(i % cluster.num_writers, i, value_size)
        for i in range(concurrent_writes)
    ]
    cluster.warm_encode([baseline, *concurrent_values])
    writes = [cluster.write(baseline)]
    start = cluster.sim.now + 1.0
    read_handle = cluster.schedule_read(start, reader=0)
    write_handles = []
    for i, value in enumerate(concurrent_values):
        writer = i % cluster.num_writers
        at = start + 0.05 + i * 0.4
        write_handles.append(cluster.schedule_write(at, value, writer=writer))
    cluster.run()
    assert read_handle.op_id is not None
    writes.extend(cluster.history.get(h.op_id) for h in write_handles if h.op_id)
    return ScenarioResult(
        writes=writes, reads=[cluster.history.get(read_handle.op_id)]
    )


def skewed_scenario(
    cluster: RegisterCluster,
    *,
    read_fraction: float = 0.5,
    total_ops: int = 12,
    value_size: int = 64,
    seed: int = 0,
) -> ScenarioResult:
    """A randomized mix with ``read_fraction`` of the operations being reads.

    Operations are spread uniformly over ``[0, 10]`` and distributed
    round-robin over the cluster's readers/writers; at the extremes this
    reproduces a read-mostly cache (``read_fraction`` near 1) or a
    write-heavy ingest workload (near 0).
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    num_reads = int(round(total_ops * read_fraction))
    writers = [i % cluster.num_writers for i in range(total_ops - num_reads)]
    return _schedule(
        cluster,
        np.random.default_rng(seed),
        [(w, unique_value(w, i, value_size)) for i, w in enumerate(writers)],
        [i % cluster.num_readers for i in range(num_reads)],
        10.0,
    )
