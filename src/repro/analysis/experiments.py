"""Experiment runners: one function per artefact of docs/sweeps.md's index.

Each runner declares its sweep as a grid of per-point parameters over a
module-level *point function* (picklable, so the sharded sweep engine in
:mod:`repro.analysis.sweep` can fan points out across processes) and
returns a structured result that pairs the *measured* value with the
paper's *predicted* value.  Every runner takes a ``jobs`` keyword: ``1``
runs in-process, ``N`` shards the points over a spawn pool with identical
results (per-point derived seeds make the output independent of
scheduling).

The mapping from the paper's claims to sweeps:

========  =======================  ===========================================
artefact  runner                   paper claim
========  =======================  ===========================================
E2        storage_cost_vs_f        Theorem 5.3 (storage cost n/(n-f))
E3        write_cost_vs_f          Theorem 5.4 (write cost <= 5 f^2)
E4        read_cost_vs_concurrency Theorem 5.6 (read cost vs delta_w)
E5        latency_experiment       Theorem 5.7 (5*delta / 6*delta bounds)
E6        sodaerr_experiment       Theorem 6.3 (error-tolerant costs)
E7        atomicity_experiment     Theorems 5.1/5.2, 6.1/6.2 (liveness+atomicity)
E8        tradeoff_experiment      Section I-B (SODA vs CASGC provisioning)
--        skew_experiment          scenario: skewed read/write mixes
--        crash_burst_experiment   scenario: correlated crash bursts
--        slow_disk_experiment     scenario: slow-disk latency injection
========  =======================  ===========================================

The benchmark modules under ``benchmarks/`` time these runners with
pytest-benchmark and print the resulting rows; docs/sweeps.md ("E2–E8 →
sweep definitions") carries the same table keyed by CLI sweep name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis import theoretical
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.baselines.casgc import CasGcCluster
from repro.baselines.registry import make_cluster
from repro.consistency import (
    check_history_incrementally,
    check_lemma_properties,
    check_linearizability,
)
from repro.core.soda.cluster import SodaCluster
from repro.core.sodaerr.cluster import SodaErrCluster
from repro.core.tags import TAG_ZERO
from repro.sim.network import FixedDelay, UniformDelay
from repro.workloads.faults import CrashLeg, FaultPlan, SlowLeg
from repro.workloads.generator import WorkloadSpec, run_workload
from repro.workloads.scenarios import (
    concurrent_read_scenario,
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
    sequential_scenario(cluster, num_writes=writes, num_reads=1, seed=seed)
    return StoragePoint(
        n=n,
        f=f,
        measured=cluster.storage_peak(),
        predicted=theoretical.soda_storage_cost(n, f),
        casgc_predicted=theoretical.casgc_storage_cost(n, f, delta=0)
        if n - 2 * f >= 1
        else float("nan"),
    )


def storage_cost_vs_f(
    n: int = 10,
    f_values: Optional[Sequence[int]] = None,
    *,
    writes: int = 3,
    seed: int = 0,
    jobs: int = 1,
) -> List[StoragePoint]:
    """Measure SODA's worst-case total storage for a sweep of ``f``."""
    if f_values is None:
        f_values = range(1, (n - 1) // 2 + 1)
    spec = SweepSpec(
        name="storage",
        fn=storage_point,
        grid=tuple({"n": n, "f": f, "writes": writes} for f in f_values),
        base_seed=seed,
        description="E2: storage cost vs f (Theorem 5.3)",
    )
    return run_sweep(spec, jobs=jobs)


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
        cluster, num_writes=3, num_reads=0, value_size=value_size, seed=seed
    )
    costs = [cluster.operation_cost(w.op_id) for w in result.writes]
    return WriteCostPoint(
        n=system_n,
        f=f,
        measured=max(costs),
        bound=theoretical.soda_write_cost_bound(system_n, f),
    )


def write_cost_vs_f(
    f_values: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    n: Optional[int] = None,
    value_size: int = 256,
    seed: int = 0,
    jobs: int = 1,
) -> List[WriteCostPoint]:
    """Measure the per-write communication cost for a sweep of ``f``.

    By default the system size follows ``n = 2f + 1`` (the maximum
    tolerance configuration); pass ``n`` to fix the system size instead.
    """
    spec = SweepSpec(
        name="write-cost",
        fn=write_cost_point,
        grid=tuple({"f": f, "n": n, "value_size": value_size} for f in f_values),
        base_seed=seed,
        description="E3: write cost vs f (Theorem 5.4)",
    )
    return run_sweep(spec, jobs=jobs)


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
    read_op = concurrent_read_scenario(
        cluster, concurrent_writes=level, seed=seed
    ).read
    delta_w = cluster.measured_delta_w(read_op.op_id)
    return ReadCostPoint(
        n=n,
        f=f,
        concurrent_writes=level,
        measured_delta_w=delta_w,
        measured_cost=cluster.operation_cost(read_op.op_id),
        bound=theoretical.soda_read_cost(n, f, delta_w),
    )


def read_cost_vs_concurrency(
    n: int = 6,
    f: int = 2,
    concurrency_levels: Sequence[int] = (0, 1, 2, 4, 6),
    *,
    seed: int = 0,
    jobs: int = 1,
) -> List[ReadCostPoint]:
    """Measure a read's communication cost as concurrent writes increase."""
    spec = SweepSpec(
        name="read-cost",
        fn=read_cost_point,
        grid=tuple({"n": n, "f": f, "level": level} for level in concurrency_levels),
        base_seed=seed,
        description="E4: read cost vs concurrency (Theorem 5.6)",
    )
    return run_sweep(spec, jobs=jobs)


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
    run_workload(cluster, spec)
    tracker = cluster.latency_tracker()
    writes = tracker.stats("write")
    reads = tracker.stats("read")
    return LatencyResult(
        delta=delta,
        max_write_latency=writes.max,
        max_read_latency=reads.max,
        write_bound=theoretical.soda_write_latency_bound(delta),
        read_bound=theoretical.soda_read_latency_bound(delta),
        operations=writes.count + reads.count,
    )


def latency_experiment(
    n: int = 6,
    f: int = 2,
    *,
    delta: float = 1.0,
    rounds: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> LatencyResult:
    """Run writes and reads over a network with message delay exactly
    ``delta`` and compare operation durations against 5*delta / 6*delta."""
    return latency_sweep(n=n, f=f, delta_values=(delta,), rounds=rounds, seed=seed, jobs=jobs)[0]


def latency_sweep(
    n: int = 6,
    f: int = 2,
    delta_values: Sequence[float] = (0.5, 1.0, 2.0),
    *,
    rounds: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> List[LatencyResult]:
    """E5 as a sweep over the message-delay bound Δ."""
    spec = SweepSpec(
        name="latency",
        fn=latency_point,
        grid=tuple(
            {"n": n, "f": f, "delta": delta, "rounds": rounds} for delta in delta_values
        ),
        base_seed=seed,
        description="E5: latency vs message delay (Theorem 5.7)",
    )
    return run_sweep(spec, jobs=jobs)


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


def sodaerr_experiment(
    n: int = 10,
    f: int = 2,
    e_values: Sequence[int] = (0, 1, 2),
    *,
    reads: int = 3,
    seed: int = 0,
    jobs: int = 1,
) -> List[SodaErrPoint]:
    """Sweep the error tolerance ``e``, injecting up to ``e`` disk-read
    errors per read through a single flaky server, and verify correctness
    plus the Theorem 6.3 cost expressions."""
    spec = SweepSpec(
        name="sodaerr",
        fn=sodaerr_point,
        grid=tuple({"n": n, "f": f, "e": e, "reads": reads} for e in e_values),
        base_seed=seed,
        description="E6: SODAerr error-tolerance sweep (Theorem 6.3)",
    )
    return run_sweep(spec, jobs=jobs)


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
    extra = dict(cluster_kwargs)
    if protocol.upper() == "CASGC":
        extra.setdefault("delta", 4)
    if protocol.upper() == "SODAERR":
        extra.setdefault("e", 1)
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


def atomicity_experiment(
    protocol: str = "SODA",
    *,
    n: int = 5,
    f: int = 2,
    executions: int = 5,
    crashes: int = 0,
    seed: int = 0,
    jobs: int = 1,
    **cluster_kwargs,
) -> AtomicityResult:
    """Run randomized concurrent workloads and check every execution for
    liveness (all operations by non-crashed clients complete) and atomicity
    (black-box linearizability + the Lemma 2.1 tag argument + the online
    incremental checker)."""
    spec = SweepSpec(
        name=f"atomicity-{protocol.upper()}",
        fn=atomicity_point,
        grid=tuple(
            {
                "protocol": protocol,
                "n": n,
                "f": f,
                "crashes": crashes,
                "cluster_kwargs": dict(cluster_kwargs),
            }
            for _ in range(executions)
        ),
        base_seed=seed,
        description="E7: liveness & atomicity (Theorems 5.1/5.2, 6.1/6.2)",
    )
    rows = run_sweep(spec, jobs=jobs)
    return AtomicityResult(
        protocol=protocol,
        executions=executions,
        operations=sum(r["operations"] for r in rows),
        incomplete_operations=sum(r["incomplete"] for r in rows),
        linearizable_executions=sum(r["linearizable"] for r in rows),
        lemma_violations=sum(r["lemma_violations"] for r in rows),
        incremental_agreements=sum(r["incremental_agreement"] for r in rows),
    )


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
    casgc_read = concurrent_read_scenario(
        casgc, concurrent_writes=delta, seed=seed
    ).read
    soda = SodaCluster(n=n, f=f, num_writers=max(1, min(delta, 3)), seed=seed)
    soda_read = concurrent_read_scenario(
        soda, concurrent_writes=delta, seed=seed
    ).read
    return TradeoffPoint(
        delta=delta,
        casgc_storage=casgc.storage_peak(),
        casgc_read_cost=casgc.operation_cost(casgc_read.op_id),
        soda_storage=soda.storage_peak(),
        soda_read_cost=soda.operation_cost(soda_read.op_id),
    )


def tradeoff_experiment(
    n: int = 6,
    f: int = 2,
    delta_values: Sequence[int] = (0, 1, 2, 4),
    *,
    seed: int = 0,
    jobs: int = 1,
) -> List[TradeoffPoint]:
    """CASGC vs SODA as the concurrency bound grows.

    CASGC's storage is provisioned for ``delta`` up front; SODA's storage is
    flat and only its read cost grows when reads actually experience
    concurrency.  Both systems are measured under a workload with roughly
    ``delta`` writes overlapping each read.
    """
    spec = SweepSpec(
        name="tradeoff",
        fn=tradeoff_point,
        grid=tuple({"n": n, "f": f, "delta": delta} for delta in delta_values),
        base_seed=seed,
        description="E8: SODA vs CASGC provisioning trade-off (Section I-B)",
    )
    return run_sweep(spec, jobs=jobs)


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
        **({"delta": 4} if protocol.upper() == "CASGC" else {}),
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


def skew_experiment(
    protocol: str = "SODA",
    n: int = 5,
    f: int = 2,
    read_fractions: Sequence[float] = (0.1, 0.5, 0.9),
    *,
    total_ops: int = 16,
    seed: int = 0,
    jobs: int = 1,
) -> List[SkewPoint]:
    """Sweep the read fraction of a randomized mix (skewed workloads)."""
    spec = SweepSpec(
        name="skew",
        fn=skew_point,
        grid=tuple(
            {
                "protocol": protocol,
                "n": n,
                "f": f,
                "read_fraction": fraction,
                "total_ops": total_ops,
            }
            for fraction in read_fractions
        ),
        base_seed=seed,
        description="scenario: skewed read/write mix vs read fraction",
    )
    return run_sweep(spec, jobs=jobs)


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


def crash_burst_experiment(
    n: int = 5,
    f: int = 2,
    burst_widths: Sequence[float] = (0.0, 0.2, 1.0),
    *,
    seed: int = 0,
    jobs: int = 1,
) -> List[CrashBurstPoint]:
    """Sweep the width of a correlated crash burst (0 = simultaneous)."""
    spec = SweepSpec(
        name="crash-burst",
        fn=crash_burst_point,
        grid=tuple({"n": n, "f": f, "burst_width": width} for width in burst_widths),
        base_seed=seed,
        description="scenario: correlated crash bursts of width w",
    )
    return run_sweep(spec, jobs=jobs)


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
    run_workload(cluster, spec)
    tracker = cluster.latency_tracker()
    reads = tracker.stats("read")
    writes = tracker.stats("write")
    return SlowDiskPoint(
        n=n,
        f=f,
        extra_delay=extra_delay,
        slow_servers=slow_servers,
        max_read_latency=reads.max,
        max_write_latency=writes.max,
        completed=cluster.history.completed_count,
    )


def slow_disk_experiment(
    n: int = 5,
    f: int = 2,
    extra_delays: Sequence[float] = (0.0, 1.0, 4.0),
    *,
    slow_servers: int = 1,
    seed: int = 0,
    jobs: int = 1,
) -> List[SlowDiskPoint]:
    """Sweep the latency injected on a subset of straggling servers."""
    spec = SweepSpec(
        name="slow-disk",
        fn=slow_disk_point,
        grid=tuple(
            {"n": n, "f": f, "extra_delay": d, "slow_servers": slow_servers}
            for d in extra_delays
        ),
        base_seed=seed,
        description="scenario: slow-disk latency injection",
    )
    return run_sweep(spec, jobs=jobs)
