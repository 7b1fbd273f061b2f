"""Hand-crafted scenarios that isolate one experimental variable.

These are the workloads behind the cost experiments:

* :func:`sequential_scenario` — strictly sequential writes and reads
  (``delta_w = 0``), used for the uncontended cost rows of Table I and the
  storage-cost sweep (E1/E2).
* :func:`concurrent_read_scenario` — a single read that overlaps a
  controlled number of writes, used for the read-cost-vs-``delta_w`` curve
  of Theorem 5.6 (E4).
* :func:`skewed_scenario` — a randomized mix with a configurable read
  fraction, used by the skew sweep (read-heavy caches vs write-heavy
  ingest shapes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.consistency.history import OperationRecord
from repro.runtime.cluster import RegisterCluster
from repro.workloads.generator import unique_value


@dataclass
class ScenarioResult:
    """Operations of interest produced by a scenario.

    Every scenario builder returns one of these — ``writes`` and ``reads``
    hold the :class:`~repro.consistency.history.OperationRecord` of each
    operation the scenario invoked (in invocation order), so downstream
    cost analyses read one uniform shape regardless of which scenario
    produced it.
    """

    writes: List[OperationRecord]
    reads: List[OperationRecord]

    @property
    def read(self) -> OperationRecord:
        """The scenario's (first) read — for single-read scenarios."""
        if not self.reads:
            raise ValueError("scenario produced no reads")
        return self.reads[0]

    @property
    def write(self) -> OperationRecord:
        """The scenario's (first) write — for single-write scenarios."""
        if not self.writes:
            raise ValueError("scenario produced no writes")
        return self.writes[0]

    def write_costs(self, cluster: RegisterCluster) -> List[float]:
        return [cluster.operation_cost(op.op_id) for op in self.writes]

    def read_costs(self, cluster: RegisterCluster) -> List[float]:
        return [cluster.operation_cost(op.op_id) for op in self.reads]


def sequential_scenario(
    cluster: RegisterCluster,
    *,
    num_writes: int = 3,
    num_reads: int = 3,
    value_size: int = 64,
    seed: int = 0,
) -> ScenarioResult:
    """Blocking writes followed by blocking reads — zero concurrency."""
    rng = np.random.default_rng(seed)
    values = [unique_value(0, i, value_size, rng) for i in range(num_writes)]
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
    write_spacing: float = 0.4,
    seed: int = 0,
) -> ScenarioResult:
    """One read overlapping ``concurrent_writes`` writes.

    The read is started first; the writes are invoked in quick succession
    immediately afterwards (spread over the read's registration window), so
    every write is concurrent with the read in the sense of the paper's
    ``delta_w``.  Requires a cluster with at least one reader and enough
    writers to keep each client well-formed (writes are distributed
    round-robin over the available writers and retried if a writer is
    busy).

    The result's ``reads`` hold exactly the one overlapped read (the
    ``.read`` shorthand); ``writes`` hold the baseline write followed by
    the concurrent writes.
    """
    rng = np.random.default_rng(seed)
    # Establish a baseline version so the read has something to return even
    # if every concurrent write lands after it decodes.
    baseline = unique_value(0, 10_000, value_size, rng)
    concurrent_values = [
        unique_value(i % cluster.num_writers, i, value_size, rng)
        for i in range(concurrent_writes)
    ]
    cluster.warm_encode([baseline, *concurrent_values])
    writes = [cluster.write(baseline)]
    start = cluster.sim.now + 1.0
    read_handle = cluster.schedule_read(start, reader=0)
    write_handles = []
    for i, value in enumerate(concurrent_values):
        writer = i % cluster.num_writers
        at = start + 0.05 + i * write_spacing
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
    window: float = 10.0,
    value_size: int = 64,
    seed: int = 0,
) -> ScenarioResult:
    """A randomized mix with ``read_fraction`` of the operations being reads.

    Operations are spread uniformly over ``[0, window]`` and distributed
    round-robin over the cluster's readers/writers; at the extremes this
    reproduces a read-mostly cache (``read_fraction`` near 1) or a
    write-heavy ingest workload (near 0).
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    num_reads = int(round(total_ops * read_fraction))
    num_writes = total_ops - num_reads
    write_handles = []
    read_handles = []
    values = [unique_value(i % cluster.num_writers, i, value_size, rng) for i in range(num_writes)]
    cluster.warm_encode(values)
    for i, value in enumerate(values):
        at = float(rng.uniform(0.0, window))
        write_handles.append(
            cluster.schedule_write(at, value, writer=i % cluster.num_writers)
        )
    for i in range(num_reads):
        at = float(rng.uniform(0.0, window))
        read_handles.append(
            cluster.schedule_read(at, reader=i % cluster.num_readers)
        )
    cluster.run()
    return ScenarioResult(
        writes=[cluster.history.get(h.op_id) for h in write_handles if h.op_id],
        reads=[cluster.history.get(h.op_id) for h in read_handles if h.op_id],
    )
