"""The paper's experiments: ten point functions and one table that runs them.

Every claim of the paper's evaluation is a *sweep* — a cost or latency as
one parameter varies — and every point of a sweep is an independent seeded
simulation.  Each point is a module-level *point function* returning a row
that pairs the *measured* value with the paper's *predicted* one;
:data:`SWEEPS` names, per sweep, the claim, the point function, the keyword
it varies with its default values, and the defaults of the keywords it
holds fixed; :func:`run_sweep` is the one way to run a row:

========  =============  ==============================================
artefact  sweep          paper claim
========  =============  ==============================================
E2        storage        Theorem 5.3 (storage cost n/(n-f))
E3        write-cost     Theorem 5.4 (write cost <= 5 f^2)
E4        read-cost      Theorem 5.6 (read cost vs delta_w)
E5        latency        Theorem 5.7 (5*delta / 6*delta bounds)
E6        sodaerr        Theorem 6.3 (error-tolerant costs)
E7        atomicity      Theorems 5.1/5.2, 6.1/6.2 (liveness+atomicity)
E8        tradeoff       Section I-B (SODA vs CASGC provisioning)
--        skew           scenario: skewed read/write mixes
--        crash-burst    scenario: correlated crash bursts
--        slow-disk      scenario: slow-disk latency injection
========  =============  ==============================================

Point ``i`` of a sweep runs on ``derive_seed(seed, <seed text>, i)``, so a
row at a given seed is the same number wherever and whenever it runs.  The
points run one after another in this process: a point is 2-7 ms and a
sweep 1-5 points (docs/sweeps.md has the table and the measurement that
retired the sweep pool).  ``python -m repro.cli experiment <sweep>`` prints
the rows; ``tests/golden/paper_sweeps_seed0.json`` pins every row at the
table defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis import theoretical
from repro.baselines.casgc import CasGcCluster
from repro.baselines.registry import default_kwargs, make_cluster
from repro.consistency.history import OperationRecord
from repro.consistency.incremental import check_history_incrementally
from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.wgl import check_linearizability
from repro.core.soda.cluster import SodaCluster
from repro.core.sodaerr.cluster import SodaErrCluster
from repro.core.tags import TAG_ZERO
from repro.sim.network import FixedDelay, UniformDelay
from repro.sim.simulation import derive_seed
from repro.workloads.faults import CrashLeg, FaultPlan, SlowLeg
from repro.workloads.scenarios import (
    WorkloadSpec,
    concurrent_read_scenario,
    run_workload,
    sequential_scenario,
    skewed_scenario,
)


# ----------------------------------------------------------------------
# E2: storage cost vs f (Theorem 5.3)
# ----------------------------------------------------------------------
@dataclass
class StoragePoint:
    n: int
    f: int
    measured: float
    predicted: float
    casgc_predicted: float


def storage_point(*, n: int, f: int, writes: int, seed: int) -> StoragePoint:
    """One point of E2: worst-case total storage for a single (n, f)."""
    cluster = SodaCluster(n=n, f=f, seed=seed)
    sequential_scenario(cluster, num_writes=writes, num_reads=1)
    return StoragePoint(
        n=n,
        f=f,
        measured=cluster.storage_peak(),
        predicted=theoretical.soda_storage_cost(n, f),
        casgc_predicted=theoretical.casgc_storage_cost(n, f, delta=0)
        if n - 2 * f >= 1
        else float("nan"),
    )


# ----------------------------------------------------------------------
# E3: write cost vs f (Theorem 5.4)
# ----------------------------------------------------------------------
@dataclass
class WriteCostPoint:
    n: int
    f: int
    measured: float
    bound: float


def write_cost_point(
    *, f: int, n: Optional[int], value_size: int, seed: int
) -> WriteCostPoint:
    """One point of E3: per-write communication cost for one ``f``."""
    system_n = n if n is not None else 2 * f + 1
    cluster = SodaCluster(n=system_n, f=f, seed=seed)
    result = sequential_scenario(
        cluster, num_writes=3, num_reads=0, value_size=value_size
    )
    costs = [cluster.operation_cost(w.op_id) for w in result.writes]
    return WriteCostPoint(
        n=system_n,
        f=f,
        measured=max(costs),
        bound=theoretical.soda_write_cost_bound(system_n, f),
    )


# ----------------------------------------------------------------------
# E4: read cost vs concurrency (Theorem 5.6)
# ----------------------------------------------------------------------
@dataclass
class ReadCostPoint:
    n: int
    f: int
    concurrent_writes: int
    measured_delta_w: int
    measured_cost: float
    bound: float


def read_cost_point(*, n: int, f: int, level: int, seed: int) -> ReadCostPoint:
    """One point of E4: one read overlapping ``level`` concurrent writes."""
    cluster = SodaCluster(
        n=n, f=f, num_writers=max(1, min(level, 4)), num_readers=1, seed=seed
    )
    read_op = concurrent_read_scenario(cluster, concurrent_writes=level).read
    delta_w = cluster.measured_delta_w(read_op.op_id)
    return ReadCostPoint(
        n=n,
        f=f,
        concurrent_writes=level,
        measured_delta_w=delta_w,
        measured_cost=cluster.operation_cost(read_op.op_id),
        bound=theoretical.soda_read_cost(n, f, delta_w),
    )


# ----------------------------------------------------------------------
# E5: latency (Theorem 5.7)
# ----------------------------------------------------------------------
@dataclass
class LatencyResult:
    delta: float
    max_write_latency: float
    max_read_latency: float
    write_bound: float
    read_bound: float
    operations: int


def _longest(ops: Sequence[OperationRecord]) -> float:
    """The longest duration of the complete operations of ``ops``; NaN when
    none completed, so an empty set never reads as zero latency."""
    return max((op.duration for op in ops if op.is_complete), default=math.nan)


def latency_point(*, n: int, f: int, delta: float, rounds: int, seed: int) -> LatencyResult:
    """One point of E5: operation durations under a fixed message delay."""
    cluster = SodaCluster(
        n=n, f=f, num_writers=2, num_readers=2, seed=seed, delay_model=FixedDelay(delta)
    )
    spec = WorkloadSpec(
        writes_per_writer=rounds,
        reads_per_reader=rounds,
        window=rounds * 8 * delta,
        seed=seed,
    )
    result = run_workload(cluster, spec)
    return LatencyResult(
        delta=delta,
        max_write_latency=_longest(result.writes),
        max_read_latency=_longest(result.reads),
        write_bound=theoretical.soda_write_latency_bound(delta),
        read_bound=theoretical.soda_read_latency_bound(delta),
        operations=cluster.history.completed_count,
    )


# ----------------------------------------------------------------------
# E6: SODAerr (Theorem 6.3)
# ----------------------------------------------------------------------
@dataclass
class SodaErrPoint:
    n: int
    f: int
    e: int
    errors_injected: int
    reads_correct: bool
    measured_storage: float
    predicted_storage: float
    measured_read_cost: float
    predicted_read_cost: float
    measured_write_cost: float
    write_bound: float


def sodaerr_point(*, n: int, f: int, e: int, reads: int, seed: int) -> SodaErrPoint:
    """One point of E6: inject up to ``e`` disk-read errors per read."""
    cluster = SodaErrCluster(
        n=n,
        f=f,
        e=e,
        error_probability=1.0 if e > 0 else 0.0,
        error_prone_servers=list(range(e)),
        seed=seed,
    )
    expected_value = b"sodaerr experiment payload"
    write_rec = cluster.write(expected_value)
    read_costs = []
    correct = True
    for _ in range(reads):
        rec = cluster.read()
        read_costs.append(cluster.operation_cost(rec.op_id))
        correct = correct and rec.value == expected_value
    cluster.run()
    return SodaErrPoint(
        n=n,
        f=f,
        e=e,
        errors_injected=cluster.disk_error_model.errors_injected,
        reads_correct=correct,
        measured_storage=cluster.storage_peak(),
        predicted_storage=theoretical.sodaerr_storage_cost(n, f, e),
        measured_read_cost=max(read_costs),
        predicted_read_cost=theoretical.sodaerr_read_cost(n, f, e, 0),
        measured_write_cost=cluster.operation_cost(write_rec.op_id),
        write_bound=theoretical.sodaerr_write_cost_bound(n, f, e),
    )


# ----------------------------------------------------------------------
# E7: liveness & atomicity (Theorems 5.1/5.2, 6.1/6.2)
# ----------------------------------------------------------------------
@dataclass
class AtomicityResult:
    protocol: str
    executions: int
    operations: int
    incomplete_operations: int
    linearizable_executions: int
    lemma_violations: int
    incremental_agreements: int = 0


def atomicity_point(
    *,
    protocol: str,
    n: int,
    f: int,
    crashes: int,
    cluster_kwargs: Mapping[str, object],
    seed: int,
) -> Dict[str, int]:
    """One point of E7: a single randomized execution, fully checked.

    Every execution is verified three ways: the exhaustive WGL search, the
    tag-based Lemma 2.1 properties, and the online incremental checker
    (replayed over the recorded history), whose verdict must agree with
    WGL — the cheap checker cross-validated against the exponential one on
    every execution the experiment runs.
    """
    extra = {**default_kwargs(protocol), **cluster_kwargs}
    cluster = make_cluster(
        protocol, n, f, num_writers=2, num_readers=2, seed=seed, **extra
    )
    spec = WorkloadSpec(
        writes_per_writer=3,
        reads_per_reader=3,
        window=10.0,
        server_crashes=crashes,
        seed=seed + 1,
    )
    run_workload(cluster, spec)
    ops = cluster.history.operations()
    wgl_ok = bool(check_linearizability(cluster.history, initial_value=b""))
    incremental_ok = bool(
        check_history_incrementally(cluster.history, initial_value=b"")
    )
    return {
        "operations": len(ops),
        "incomplete": len(cluster.history.incomplete_operations()),
        "linearizable": int(wgl_ok),
        "lemma_violations": len(
            check_lemma_properties(
                cluster.history, initial_tag=TAG_ZERO, initial_value=b""
            )
        ),
        "incremental_agreement": int(wgl_ok == incremental_ok),
    }


def atomicity_summary(
    rows: Sequence[Mapping[str, int]], params: Mapping[str, Any]
) -> List[AtomicityResult]:
    """E7's one row: the executions of :func:`atomicity_point`, summed."""
    return [
        AtomicityResult(
            protocol=params["protocol"],
            executions=len(rows),
            operations=sum(r["operations"] for r in rows),
            incomplete_operations=sum(r["incomplete"] for r in rows),
            linearizable_executions=sum(r["linearizable"] for r in rows),
            lemma_violations=sum(r["lemma_violations"] for r in rows),
            incremental_agreements=sum(r["incremental_agreement"] for r in rows),
        )
    ]


# ----------------------------------------------------------------------
# E8: storage/communication trade-off ablation (Section I-B discussion)
# ----------------------------------------------------------------------
@dataclass
class TradeoffPoint:
    delta: int
    casgc_storage: float
    casgc_read_cost: float
    soda_storage: float
    soda_read_cost: float


def tradeoff_point(*, n: int, f: int, delta: int, seed: int) -> TradeoffPoint:
    """One point of E8: CASGC vs SODA at one concurrency bound ``delta``."""
    casgc = CasGcCluster(
        n=n, f=f, delta=delta, num_writers=max(1, min(delta, 3)), seed=seed
    )
    casgc_read = concurrent_read_scenario(casgc, concurrent_writes=delta).read
    soda = SodaCluster(n=n, f=f, num_writers=max(1, min(delta, 3)), seed=seed)
    soda_read = concurrent_read_scenario(soda, concurrent_writes=delta).read
    return TradeoffPoint(
        delta=delta,
        casgc_storage=casgc.storage_peak(),
        casgc_read_cost=casgc.operation_cost(casgc_read.op_id),
        soda_storage=soda.storage_peak(),
        soda_read_cost=soda.operation_cost(soda_read.op_id),
    )


# ----------------------------------------------------------------------
# Scenario sweeps (ROADMAP "More scenarios")
# ----------------------------------------------------------------------
@dataclass
class SkewPoint:
    protocol: str
    read_fraction: float
    operations: int
    completed: int
    max_read_cost: float
    max_write_cost: float
    linearizable: bool


def skew_point(
    *, protocol: str, n: int, f: int, read_fraction: float, total_ops: int, seed: int
) -> SkewPoint:
    """One point of the skewed-mix scenario: a read/write mix at one skew."""
    cluster = make_cluster(
        protocol,
        n,
        f,
        num_writers=2,
        num_readers=2,
        seed=seed,
        **default_kwargs(protocol),
    )
    result = skewed_scenario(
        cluster, read_fraction=read_fraction, total_ops=total_ops, seed=seed
    )
    read_costs = result.read_costs(cluster)
    write_costs = result.write_costs(cluster)
    return SkewPoint(
        protocol=protocol,
        read_fraction=read_fraction,
        operations=len(cluster.history),
        completed=cluster.history.completed_count,
        max_read_cost=max(read_costs, default=0.0),
        max_write_cost=max(write_costs, default=0.0),
        linearizable=bool(check_linearizability(cluster.history, initial_value=b"")),
    )


@dataclass
class CrashBurstPoint:
    n: int
    f: int
    burst_width: float
    crashed_servers: int
    operations: int
    completed: int
    linearizable: bool


def crash_burst_point(*, n: int, f: int, burst_width: float, seed: int) -> CrashBurstPoint:
    """One point of the crash-burst scenario: ``f`` servers die nearly at
    once (correlated failure), operations race the burst."""
    cluster = make_cluster("SODA", n, f, num_writers=2, num_readers=2, seed=seed)
    applied = cluster.apply_fault_plan(
        FaultPlan(
            crash=CrashLeg(count=f, start_lo=1.0, start_hi=4.0, width=burst_width)
        ),
        seed=seed,
    )
    spec = WorkloadSpec(
        writes_per_writer=3, reads_per_reader=3, window=8.0, seed=seed + 1
    )
    run_workload(cluster, spec)
    return CrashBurstPoint(
        n=n,
        f=f,
        burst_width=burst_width,
        crashed_servers=len(applied.objects[0].crashed),
        operations=len(cluster.history),
        completed=cluster.history.completed_count,
        linearizable=bool(check_linearizability(cluster.history, initial_value=b"")),
    )


@dataclass
class SlowDiskPoint:
    n: int
    f: int
    extra_delay: float
    slow_servers: int
    max_read_latency: float
    max_write_latency: float
    completed: int


def slow_disk_point(
    *, n: int, f: int, extra_delay: float, slow_servers: int, seed: int
) -> SlowDiskPoint:
    """One point of the slow-disk scenario: responses from ``slow_servers``
    straggling servers take ``extra_delay`` longer (slow local disks)."""
    cluster = make_cluster(
        "SODA",
        n,
        f,
        num_writers=2,
        num_readers=2,
        seed=seed,
        delay_model=UniformDelay(0.1, 1.0),
    )
    cluster.apply_fault_plan(
        FaultPlan(slow=SlowLeg(count=slow_servers, extra=extra_delay)), seed=seed
    )
    spec = WorkloadSpec(
        writes_per_writer=2, reads_per_reader=2, window=10.0, seed=seed + 1
    )
    result = run_workload(cluster, spec)
    return SlowDiskPoint(
        n=n,
        f=f,
        extra_delay=extra_delay,
        slow_servers=slow_servers,
        max_read_latency=_longest(result.reads),
        max_write_latency=_longest(result.writes),
        completed=cluster.history.completed_count,
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sweep:
    """One row of :data:`SWEEPS`.

    ``point`` is called once per value as ``point(**fixed, <swept>=value,
    seed=...)``.  ``values`` is the default value list, or a function of the
    fixed keywords where the list depends on them (E2's and E3's ``f`` ranges
    follow ``n``).  A row with no ``swept`` keyword repeats one configuration on
    fresh seeds, ``values`` counting the repetitions.  ``seed_text``, where
    the text is not the sweep's name, and ``fold``, where the points are
    summed into one row, are both E7's.
    """

    claim: str
    point: Callable[..., Any]
    swept: Optional[str]
    values: Union[Sequence[Any], Callable[..., Sequence[Any]]]
    fixed: Mapping[str, Any]
    seed_text: Optional[Callable[[Mapping[str, Any]], str]] = None
    fold: Optional[Callable[[List[Any], Mapping[str, Any]], List[Any]]] = None


SWEEPS: Dict[str, Sweep] = {
    "storage": Sweep(
        "E2: storage cost vs f (Theorem 5.3)",
        storage_point,
        "f",
        lambda n, **_: range(1, (n - 1) // 2 + 1),
        {"n": 10, "writes": 3},
    ),
    # n=None follows n = 2f + 1, the maximum-tolerance configuration; a
    # given n stops the range at the largest f it tolerates.
    "write-cost": Sweep(
        "E3: write cost vs f (Theorem 5.4)",
        write_cost_point,
        "f",
        lambda n, **_: range(1, 6 if n is None else min(5, (n - 1) // 2) + 1),
        {"n": None, "value_size": 256},
    ),
    "read-cost": Sweep(
        "E4: read cost vs concurrency (Theorem 5.6)",
        read_cost_point,
        "level",
        (0, 1, 2, 4, 6),
        {"n": 6, "f": 2},
    ),
    "latency": Sweep(
        "E5: latency vs message delay (Theorem 5.7)",
        latency_point,
        "delta",
        (0.5, 1.0, 2.0),
        {"n": 6, "f": 2, "rounds": 4},
    ),
    "sodaerr": Sweep(
        "E6: SODAerr error-tolerance sweep (Theorem 6.3)",
        sodaerr_point,
        "e",
        (0, 1, 2),
        {"n": 10, "f": 2, "reads": 3},
    ),
    "atomicity": Sweep(
        "E7: liveness & atomicity (Theorems 5.1/5.2, 6.1/6.2)",
        atomicity_point,
        None,
        range(5),
        {"protocol": "SODA", "n": 5, "f": 2, "crashes": 0, "cluster_kwargs": {}},
        seed_text=lambda params: f"atomicity-{params['protocol'].upper()}",
        fold=atomicity_summary,
    ),
    # CASGC provisions storage for delta up front; SODA's storage is flat
    # and its read cost grows only when reads actually meet concurrency.
    "tradeoff": Sweep(
        "E8: SODA vs CASGC provisioning trade-off (Section I-B)",
        tradeoff_point,
        "delta",
        (0, 1, 2, 4),
        {"n": 6, "f": 2},
    ),
    "skew": Sweep(
        "scenario: skewed read/write mix vs read fraction",
        skew_point,
        "read_fraction",
        (0.1, 0.5, 0.9),
        {"protocol": "SODA", "n": 5, "f": 2, "total_ops": 16},
    ),
    "crash-burst": Sweep(
        "scenario: correlated crash bursts of width w",
        crash_burst_point,
        "burst_width",
        (0.0, 0.2, 1.0),
        {"n": 5, "f": 2},
    ),
    "slow-disk": Sweep(
        "scenario: slow-disk latency injection",
        slow_disk_point,
        "extra_delay",
        (0.0, 1.0, 4.0),
        {"n": 5, "f": 2, "slow_servers": 1},
    ),
}


def run_sweep(
    name: str, *, seed: int = 0, values: Optional[Sequence[Any]] = None, **fixed: Any
) -> List[Any]:
    """Run sweep ``name`` of :data:`SWEEPS`; returns its rows in value order.

    ``values`` replaces the row's default values of its swept keyword and
    ``fixed`` overrides the row's fixed keywords; a keyword the row does not
    hold fixed is a :class:`ValueError`, as is a configuration the cluster
    constructors refuse.
    """
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; available: {', '.join(SWEEPS)}")
    sweep = SWEEPS[name]
    unknown = sorted(set(fixed) - set(sweep.fixed))
    if unknown:
        raise ValueError(
            f"sweep {name!r} holds no keyword {', '.join(unknown)} fixed "
            f"(it takes {', '.join(sweep.fixed)})"
        )
    params = {**sweep.fixed, **fixed}
    if values is None:
        values = sweep.values(**params) if callable(sweep.values) else sweep.values
    text = sweep.seed_text(params) if sweep.seed_text else name
    rows = [
        sweep.point(
            **params,
            **({sweep.swept: value} if sweep.swept else {}),
            seed=derive_seed(seed, text, index),
        )
        for index, value in enumerate(values)
    ]
    return sweep.fold(rows, params) if sweep.fold else rows
