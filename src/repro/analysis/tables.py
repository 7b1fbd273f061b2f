"""Regeneration of Table I (performance comparison of ABD, CASGC and SODA).

The paper's Table I compares worst-case write cost, read cost and total
storage cost of the three algorithms at the maximum tolerable failure level
``f = f_max = n/2 - 1`` (``n`` even).  :func:`generate_table1` re-derives
those numbers two ways:

* *predicted* — the closed-form expressions of
  :mod:`repro.analysis.theoretical`;
* *measured* — worst-case values observed while actually running each
  protocol on the simulated asynchronous network with a concurrent
  workload (the same workload for every protocol).

The measured numbers are expected to sit at or below the predicted
worst-case bounds while preserving the ordering the paper reports: ABD pays
``n`` everywhere, CASGC pays ``~n/2`` communication but ``(delta+1) * n/2``
storage, SODA pays ``O(f^2)`` on writes but only ``~2`` units of storage
and an elastic ``~2 (delta_w + 1)`` read cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis import theoretical
from repro.baselines.registry import make_cluster
from repro.workloads.scenarios import WorkloadSpec, run_workload


@dataclass
class Table1Entry:
    """One protocol's row: measured vs. predicted."""

    algorithm: str
    n: int
    f: int
    measured_write_cost: float
    measured_read_cost: float
    measured_storage_cost: float
    predicted_write_cost: float
    predicted_read_cost: float
    predicted_storage_cost: float
    notes: str = ""


def generate_table1(
    n: int = 6,
    *,
    delta: int = 2,
    writes_per_writer: int = 2,
    reads_per_reader: int = 2,
    num_writers: int = 2,
    num_readers: int = 2,
    value_size: int = 64,
    seed: int = 0,
) -> List[Table1Entry]:
    """Measure Table I at ``f = f_max`` for the given (even) ``n``.

    ``delta`` is the garbage-collection depth given to CASGC; SODA needs no
    such parameter (its read cost adapts to the concurrency actually
    experienced — the "elastic" property the paper emphasises).
    """
    if n % 2 != 0:
        raise ValueError("Table I assumes an even number of servers")
    f = theoretical.f_max(n)
    spec = WorkloadSpec(
        writes_per_writer=writes_per_writer,
        reads_per_reader=reads_per_reader,
        window=8.0,
        value_size=value_size,
        seed=seed,
    )
    # name -> (extra cluster arguments, notes)
    protocols = {
        "ABD": ({}, "read cost includes the write-back phase"),
        "CASGC": ({"delta": delta}, f"garbage collection keeps delta+1={delta + 1} versions"),
        "SODA": ({}, "read cost grows with the measured concurrency delta_w"),
    }
    measured = {}
    worst_delta_w = 0
    for name, (extra, _) in protocols.items():
        cluster = make_cluster(
            name,
            n,
            f,
            num_writers=num_writers,
            num_readers=num_readers,
            seed=seed,
            **extra,
        )
        result = run_workload(cluster, spec)
        measured[name] = (
            max(result.write_costs(cluster), default=0.0),
            max(result.read_costs(cluster), default=0.0),
            cluster.storage_peak(),
        )
        if name == "SODA":
            # SODA's predicted read cost uses the worst measured delta_w so
            # the bound is evaluated on the same executions it is compared to.
            worst_delta_w = max(
                (
                    cluster.measured_delta_w(op.op_id)
                    for op in result.reads
                    if op.is_complete
                ),
                default=0,
            )
    entries = []
    for row in theoretical.table1_rows(n, delta, worst_delta_w):
        notes = protocols[row.algorithm][1]
        if row.algorithm == "SODA":
            notes += f" (worst measured delta_w = {worst_delta_w})"
        write, read, storage = measured[row.algorithm]
        entries.append(
            Table1Entry(
                algorithm=row.algorithm,
                n=n,
                f=f,
                measured_write_cost=write,
                measured_read_cost=read,
                measured_storage_cost=storage,
                predicted_write_cost=row.write_cost,
                predicted_read_cost=row.read_cost,
                predicted_storage_cost=row.storage_cost,
                notes=notes,
            )
        )
    return entries


def format_table(entries: List[Table1Entry]) -> str:
    """Render entries as a fixed-width text table (the paper's Table I layout,
    with measured and predicted columns side by side)."""
    header = (
        f"{'Algorithm':<10} {'n':>3} {'f':>3} "
        f"{'write (meas/pred)':>20} {'read (meas/pred)':>20} {'storage (meas/pred)':>22}"
    )
    lines = [header, "-" * len(header)]
    for e in entries:
        lines.append(
            f"{e.algorithm:<10} {e.n:>3} {e.f:>3} "
            f"{e.measured_write_cost:>9.2f}/{e.predicted_write_cost:<9.2f} "
            f"{e.measured_read_cost:>9.2f}/{e.predicted_read_cost:<9.2f} "
            f"{e.measured_storage_cost:>10.2f}/{e.predicted_storage_cost:<10.2f}"
        )
    return "\n".join(lines)
