"""The epoch engine: every long-run experiment, one grid, one fold.

The paper's registers are independent objects checked for atomicity under
a fixed cost model, so every long experiment here has one shape: a
deterministic grid of seeded **epochs**, each simulated on a fresh
cluster and streamed through the online checker, folded in epoch order
into one deterministic artefact.  This module is that shape, once.

**Grid.**  Epoch ``k`` of a run owns the seed ``derive_seed(seed,
"<seed_name>-<protocol>", k)``, a unique marker initial value and
epoch-tagged write values, so epochs are value-disjoint and — placed at
deterministic offsets on a global timeline — time-disjoint.  Each epoch
is split into **cells** (the unit a pool worker simulates) and each cell
into **groups** (objects sharing one simulation clock):

* a *shared* grouping is one cell holding one group of all objects — the
  namespace interleaves on one event queue, seeded by the epoch seed (a
  single-object group of a ``bare`` kind runs on a plain register
  cluster without the pid namespace);
* a *private* grouping (fleet mode) is ``fleet`` cells per epoch, LPT
  partitions of the namespace, each object a group of its own on a fresh
  simulation seeded ``derive_seed("fleet", epoch_seed, "object", gid)`` —
  so which cell hosts an object is a scheduling choice only.

**Cell runner.**  :func:`run_cell` is the one picklable worker entry.  A
group is driven closed-loop (``run_streamed``), open-loop
(``run_open_loop``) or closed-loop with a fault plan, an availability
audit pool and a stall tap (``audited``); closed-loop drivers record
through per-object bounded recorders with incremental checkers attached
(:class:`~repro.consistency.multiplex.ObjectCheckerMux`).  A truncated
group (event budget exhausted) raises instead of polluting the fold.

**Fold.**  Cells stream out of the spawn pool in completion order and
are folded in grid order (:func:`repro.analysis.pool.in_order`): shard
verdicts are rebased to per-object global offsets and merged by
:mod:`repro.consistency.shardmerge`, latency histograms merge
group-by-group, and rows are built from each kind's declarative column
schema — the same schema generates the per-object rows, the per-epoch
aggregates, the run totals and the CSV header.  Everything in
:meth:`Report.to_jsonable` is a pure function of the parameters, so both
artefacts are **byte-identical for any** ``jobs`` / ``fleet``;
wall-clock, CPU and RSS accounting ride beside it.

**Rates.**  Every wall/CPU rate is over *completed* operations.  Each
cell measures its own CPU seconds; an epoch's critical path is its
slowest cell and ``cpu_s`` sums the critical paths, so
``ops_per_cpu_s`` is the sustained rate with one core per cell —
host-core-count independent, and for a one-cell-per-epoch run simply
completed operations per CPU-second.

The seven artefact kinds are rows of :data:`KINDS`; :func:`run_experiment`
runs any of them and :func:`write_artefacts` writes any report.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.analysis.pool import WorkerDied, in_order, iter_unordered, max_rss_kb
from repro.baselines.registry import default_kwargs, make_cluster
from repro.consistency.history import History
from repro.consistency.incremental import ClusterSummary, Violation
from repro.consistency.multiplex import ObjectCheckerMux
from repro.consistency.shardmerge import (
    ShardVerdict,
    merge_namespace_verdicts,
    shift_summary,
)
from repro.consistency.stream import OperationRecord, StreamObserver
from repro.metrics.latency import LatencyHistogram
from repro.runtime.audit import AuditConfig, AuditPool
from repro.runtime.namespace import MultiRegisterCluster, object_namespace
from repro.sim.simulation import derive_seed
from repro.workloads.arrivals import parse_arrival
from repro.workloads.faults import as_fault_plan
from repro.workloads.keyed import parse_key_dist, partition_objects

#: Artefact schema version (bump on breaking changes to the JSON layout).
SCHEMA_VERSION = 1

#: Simulated-time gap between consecutive epochs on the merged timeline.
#: The epoch marker write is placed inside this gap, after everything of
#: the previous epoch and before everything of its own epoch.
EPOCH_GAP = 1.0

#: The canonical adversarial plan: one element withheld beyond the MDS
#: slack on every object for 30 time units (``k - 1`` survivors — must be
#: flagged) and, earlier, ``f`` servers isolated along a seeded cut for 12
#: (exactly ``k`` reachable — must *not* be flagged).
ADVERSARIAL_PLAN = "withhold:1:40:30;partition:2:10:12"


# ----------------------------------------------------------------------
# the kind table
# ----------------------------------------------------------------------
def _columns(spec: str) -> Tuple[str, ...]:
    """A whitespace-separated column list as a tuple of names."""
    return tuple(spec.split())


_CLOSED = _columns("issued completed failed writes reads")
_OPEN = _columns(
    "arrived admitted issued completed failed rejected shed_reads timed_out "
    "writes reads queued_at_end stall_time"
)
_NAMESPACE_TOTALS = _columns("issued completed failed events stream_max_resident")
_OPEN_TOTALS = _columns(
    "arrived admitted issued completed failed rejected shed_reads timed_out "
    "writes reads events sim_time sim_ops_per_s"
)
_OPEN_EPOCH = _columns(
    "index seed ops arrived admitted issued completed failed rejected "
    "shed_reads timed_out writes reads queued_at_end stall_time end_time events"
)
_FLEET_EPOCH = _columns(
    "index seed ops issued completed failed end_time events max_resident "
    "checker_ok"
)

#: Columns that fold over rows with something other than ``sum``.
_FOLDS = {
    "max_resident": max,
    "end_time": max,
    "checker_ok": all,
    "detected_before_stall": all,
}
#: Aggregate-only columns: name -> (source column, fold).
_DERIVED = {
    "below_k_objects": ("below_k", sum),
    "flagged_objects": ("flagged", sum),
    "false_flags": ("false_flag", sum),
    "stream_max_resident": ("max_resident", max),
    "sim_time": ("end_time", sum),
}


def _fold(column: str, rows) -> object:
    """Aggregate ``column`` over rows: objects into their epoch row, epoch
    rows into the run totals."""
    source, fold = _DERIVED.get(column, (column, _FOLDS.get(column, sum)))
    return fold(row[source] for row in rows)


@dataclass(frozen=True)
class Kind:
    """One artefact kind: how its epochs run and what its rows carry.

    ``driver`` is ``closed`` | ``open`` | ``audited``; ``private`` selects
    the fleet grouping (one private-clock group per object, ``fleet``
    cells per epoch) over the shared-clock one; ``bare`` kinds run a
    single-object shared group on a plain register cluster (the
    pre-namespace byte layout); ``namespace`` kinds carry
    ``objects``/``key_dist`` and a per-object verdict.  ``seed_name``
    names the epoch-seed stream and ``stem`` the artefact files.

    ``epoch_columns`` / ``object_columns`` / ``totals`` are the row
    schema.  ``index seed ops offset events`` (epoch rows) and ``epoch
    object seed offset end_time events`` (object rows) come from the
    fold; every other column is measured per object and aggregated by
    :func:`_fold` — objects into the epoch row, epoch rows into the
    totals.  The CSV is the object rows where the kind has them, the
    epoch rows otherwise, under exactly these headers.
    """

    name: str
    driver: str
    seed_name: str
    stem: str
    epoch_columns: Tuple[str, ...]
    object_columns: Tuple[str, ...] = ()
    totals: Tuple[str, ...] = _NAMESPACE_TOTALS
    private: bool = False
    bare: bool = False
    namespace: bool = True
    defaults: Mapping[str, object] = field(default_factory=dict)

    @property
    def csv_columns(self) -> Tuple[str, ...]:
        return self.object_columns or self.epoch_columns


_OPEN_DEFAULTS = {"num_writers": 8, "num_readers": 8}
_AUDIT_DEFAULTS = {"faults": ADVERSARIAL_PLAN}

_KINDS = (
    Kind(
        name="longrun",
        driver="closed",
        seed_name="longrun",
        stem="longrun_{protocol}_{ops}",
        epoch_columns=_columns(
            "index seed ops issued completed failed writes reads distinct_writes "
            "end_time offset events max_resident evicted checker_ok"
        ),
        totals=_columns(
            "issued completed failed writes reads events distinct_writes "
            "stream_max_resident"
        ),
        bare=True,
        namespace=False,
        defaults={
            "ops": 1_000_000,
            "objects": 1,
            "num_writers": 2,
            "num_readers": 2,
            "window": 256,
        },
    ),
    Kind(
        name="multiobj-longrun",
        driver="closed",
        seed_name="multiobj",
        stem="multiobj_{protocol}_{objects}x{ops}",
        epoch_columns=_columns(
            "index seed ops issued completed failed end_time offset events "
            "max_resident checker_ok"
        ),
        object_columns=_columns(
            "epoch object seed allocated issued completed failed writes reads "
            "distinct_writes offset max_resident evicted checker_ok"
        ),
    ),
    Kind(
        name="openloop",
        driver="open",
        seed_name="openloop",
        stem="openloop_{protocol}_{arrival}_{objects}x{ops}",
        epoch_columns=_OPEN_EPOCH,
        totals=_OPEN_TOTALS,
        bare=True,
        defaults={"objects": 1, **_OPEN_DEFAULTS},
    ),
    Kind(
        name="adversary-longrun",
        driver="audited",
        seed_name="adversary",
        stem="adversary_{protocol}_{objects}x{ops}",
        epoch_columns=_columns(
            "index seed ops issued completed failed end_time offset events "
            "max_resident checker_ok below_k_objects flagged_objects "
            "detected_before_stall false_flags"
        ),
        object_columns=_columns(
            "epoch object seed allocated issued completed failed writes reads "
            "checker_ok withheld surviving_elements below_k isolated crashed "
            "min_estimate flagged first_flagged_at first_stall_at stalled_reads "
            "detected_before_stall false_flag offset"
        ),
        defaults=_AUDIT_DEFAULTS,
    ),
    Kind(
        name="fleet-longrun",
        driver="closed",
        seed_name="multiobj",
        stem="fleet_{protocol}_{objects}x{ops}",
        epoch_columns=_FLEET_EPOCH,
        object_columns=_columns(
            "epoch object seed allocated issued completed failed writes reads "
            "distinct_writes end_time offset events max_resident evicted "
            "checker_ok"
        ),
        private=True,
    ),
    Kind(
        name="fleet-openloop",
        driver="open",
        seed_name="openloop",
        stem="fleet_openloop_{protocol}_{arrival}_{objects}x{ops}",
        epoch_columns=_OPEN_EPOCH,
        object_columns=_columns(
            "epoch object seed allocated arrived admitted issued completed "
            "failed rejected shed_reads timed_out writes reads queued_at_end "
            "stall_time end_time events"
        ),
        totals=_OPEN_TOTALS,
        private=True,
        defaults=_OPEN_DEFAULTS,
    ),
    Kind(
        name="fleet-adversary",
        driver="audited",
        seed_name="adversary",
        stem="fleet_adversary_{protocol}_{objects}x{ops}",
        epoch_columns=_FLEET_EPOCH,
        object_columns=_columns(
            "epoch object seed allocated issued completed failed writes reads "
            "checker_ok withheld surviving_elements below_k isolated crashed "
            "min_estimate flagged first_flagged_at first_stall_at stalled_reads "
            "detected_before_stall false_flag end_time offset"
        ),
        private=True,
        defaults=_AUDIT_DEFAULTS,
    ),
)
#: The seven artefact kinds, by their ``kind`` string.
KINDS: Dict[str, Kind] = {kind.name: kind for kind in _KINDS}

#: Every ``run_experiment`` parameter with its default; a kind's
#: ``defaults`` override these.
DEFAULTS: Dict[str, object] = {
    "ops": 100_000,
    "epoch_ops": 25_000,
    "jobs": 1,
    "fleet": 1,
    "objects": 8,
    "key_dist": "uniform",
    "n": 6,
    "f": 2,
    "num_writers": 1,
    "num_readers": 1,
    "value_size": 32,
    "seed": 0,
    "faults": "none",
    "protocol_kwargs": None,
    # closed-loop and audited drivers
    "mean_gap": 0.25,
    "window": 128,
    "frontier_limit": 256,
    "keep_records": False,
    # open-loop driver
    "arrival": "poisson:4",
    "read_fraction": 0.5,
    "policy": "drop",
    "queue_per_server": 4,
    "op_timeout": None,
    "slo": 10.0,
    "keep_samples": False,
    # audited driver
    "stall_threshold": 25.0,
    "audit_sample": 4,
    "audit_interval": 2.5,
    "audit_confirm": 2,
    "audit_rounds": 80,
    "audit_start": 1.0,
}
#: The driver knobs each artefact's ``params`` block records.
_CLOSED_PARAMS = _columns("mean_gap window frontier_limit")
_OPEN_PARAMS = _columns("read_fraction policy queue_per_server op_timeout")
_AUDIT_PARAMS = _columns(
    "stall_threshold audit_sample audit_interval audit_confirm audit_rounds "
    "audit_start"
)


def _epoch_marker(epoch_index: int) -> bytes:
    """The unique initial value of epoch ``epoch_index``'s registers."""
    return f"<longrun-epoch-{epoch_index}>".encode()


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------
class Grid(NamedTuple):
    """The deterministic cell grid of one run (epoch-major)."""

    kind: Kind
    params: Dict[str, object]  # resolved: defaults applied, specs canonical
    epochs: int
    width: int  # cells per epoch
    cells: List[Dict[str, object]]


def _resolve(kind: Kind, protocol: str, params: Mapping[str, object]) -> dict:
    """Defaults, validation and canonical spec strings — fail fast, before
    any epoch simulates."""
    unknown = sorted(set(params) - set(DEFAULTS))
    if unknown:
        raise TypeError(f"unknown experiment parameter(s): {', '.join(unknown)}")
    p = {**DEFAULTS, **kind.defaults, **params}
    for name in ("ops", "epoch_ops", "objects", "fleet"):
        if p[name] < 1:
            raise ValueError(f"{name} must be positive")
    if not kind.namespace and p["objects"] != 1:
        raise ValueError(
            f"{kind.name!r} runs a single register; objects must be 1"
        )
    if not kind.private and p["fleet"] != 1:
        raise ValueError(
            f"{kind.name!r} does not partition its namespace; fleet must be 1"
        )
    if not p["slo"] > 0:
        raise ValueError("slo must be positive")
    if not p["stall_threshold"] > 0:
        raise ValueError("stall_threshold must be positive")
    p["key_dist"] = parse_key_dist(p["key_dist"]).spec()
    p["arrival"] = parse_arrival(p["arrival"]).spec()
    p["faults"] = as_fault_plan(p["faults"]).spec()
    if kind.driver == "audited" and p["faults"] == "none":
        raise ValueError(
            f"{kind.name!r} audits a fault plan; faults must not be 'none'"
        )
    p["protocol_kwargs"] = (
        dict(p["protocol_kwargs"])
        if p["protocol_kwargs"] is not None
        else default_kwargs(protocol)
    )
    return p


def build_grid(kind: str, protocol: str = "SODA", **params) -> Grid:
    """The ``epochs × cells`` grid of one run — a pure function of the
    parameters (``jobs`` never enters; ``fleet`` only decides which cell
    hosts which object)."""
    spec = KINDS[kind]
    p = _resolve(spec, protocol, params)
    objects = p["objects"]
    if spec.private:
        partitions = partition_objects(
            parse_key_dist(p["key_dist"]), objects, p["fleet"]
        )
        cell_groups = [tuple((gid,) for gid in owned) for owned in partitions]
        clock = "private"
    else:
        cell_groups = [(tuple(range(objects)),)]
        clock = "bare" if spec.bare and objects == 1 else "shared"
    epochs = math.ceil(p["ops"] / p["epoch_ops"])
    width = len(cell_groups)
    cells = [
        {
            "kind": kind,
            "protocol": protocol,
            "index": k * width + c,
            "epoch": k,
            "seed": derive_seed(p["seed"], f"{spec.seed_name}-{protocol.lower()}", k),
            "ops": min(p["epoch_ops"], p["ops"] - k * p["epoch_ops"]),
            "groups": groups,
            "clock": clock,
            "max_events": None,
            "params": p,
        }
        for k in range(epochs)
        for c, groups in enumerate(cell_groups)
    ]
    return Grid(spec, p, epochs, width, cells)


def cell_names(grid: Grid, indices) -> Tuple[str, ...]:
    """``<kind> epoch E cell C`` for each grid position in ``indices`` — how
    a run that loses cells (a dead worker, a raising cell) names them."""
    kind, width = grid.kind.name, grid.width
    return tuple(f"{kind} epoch {i // width} cell {i % width}" for i in indices)


# ----------------------------------------------------------------------
# cell runner
# ----------------------------------------------------------------------
class _RecordTap(StreamObserver):
    """Optional per-object capture of every operation (small runs only).

    The engine never materialises histories; this tap exists so tests can
    rebuild the merged global history of a *small* run and cross-validate
    the sharded verdict against the monolithic checkers.
    """

    def __init__(self) -> None:
        self.records: Dict[str, list] = {}

    def on_invoke(self, record: OperationRecord) -> None:
        self.records[record.op_id] = [
            record.op_id,
            record.kind,
            record.client,
            record.invoked_at,
            None,
            record.value,
            False,
        ]

    def on_complete(self, record: OperationRecord) -> None:
        row = self.records[record.op_id]
        row[4] = record.responded_at
        row[5] = record.value

    def on_failed(self, record: OperationRecord) -> None:
        self.records[record.op_id][6] = True


class _StallTap(StreamObserver):
    """Per-object foreground stall detector.

    A read *stalls* at ``invoked_at + threshold``: either it completed
    with a latency above the threshold, or the epoch ended with it still
    pending at least ``threshold`` after invocation (a parked read whose
    client never came back).  ``first_stall_at`` is the earliest such
    instant — the moment a latency monitor would have paged — so the
    audit's ``first_flagged_at`` can be compared against it directly on
    the shared clock.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self.first_stall_at: Optional[float] = None
        self.stalled_reads = 0
        self._pending: Dict[str, float] = {}

    def _stall(self, at: float) -> None:
        self.stalled_reads += 1
        if self.first_stall_at is None or at < self.first_stall_at:
            self.first_stall_at = at

    def on_invoke(self, record: OperationRecord) -> None:
        if record.kind == "read":
            self._pending[record.op_id] = record.invoked_at

    def _settle(self, record: OperationRecord) -> None:
        invoked = self._pending.pop(record.op_id, None)
        if invoked is None or record.responded_at is None:
            return
        if record.responded_at - invoked > self.threshold:
            self._stall(invoked + self.threshold)

    on_complete = on_failed = _settle

    def finish(self, end_time: float) -> None:
        """Count reads still parked at epoch end as stalled."""
        for invoked in self._pending.values():
            if invoked + self.threshold <= end_time:
                self._stall(invoked + self.threshold)
        self._pending = {}


def _require_complete(stats, context: str) -> None:
    """Refuse to aggregate a truncated run.

    A run whose event budget was exhausted mid-flight describes a *prefix*
    of the requested workload; folding it into a merged report would
    silently understate every counter and verdict.  The cell runner calls
    this right after the driver returns, so a truncated group aborts the
    whole analysis instead of polluting it.
    """
    if stats.truncated:
        raise RuntimeError(
            f"{context} was truncated by its event budget "
            f"({stats.completed} operations completed); rerun with a larger "
            f"max_events instead of aggregating a partial epoch"
        )


def _run_group(cell: Mapping[str, object], gids: Tuple[int, ...]) -> dict:
    """Simulate one group — the objects ``gids`` on one fresh simulation —
    and measure every object of it."""
    p = cell["params"]
    kind = KINDS[cell["kind"]]
    k, seed, clock = cell["epoch"], cell["seed"], cell["clock"]
    closed, audited = kind.driver != "open", kind.driver == "audited"
    marker = _epoch_marker(k)

    mux = taps = stall_taps = None
    if closed:
        mux = ObjectCheckerMux(
            len(gids),
            window=p["window"],
            frontier_limit=p["frontier_limit"],
            initial_value=marker,
        )
        if p["keep_records"]:
            taps = [r.subscribe(_RecordTap()) for r in mux.recorders]
        if audited:
            stall_taps = [
                r.subscribe(_StallTap(p["stall_threshold"])) for r in mux.recorders
            ]
    shape = dict(
        num_writers=p["num_writers"],
        num_readers=p["num_readers"],
        initial_value=marker,
    )
    if clock == "bare":
        cluster = make_cluster(
            cell["protocol"],
            p["n"],
            p["f"],
            seed=seed,
            recorder=mux.recorder(0) if mux else None,
            **shape,
            **p["protocol_kwargs"],
        )
    else:
        cluster = MultiRegisterCluster(
            cell["protocol"],
            p["n"],
            p["f"],
            objects=len(gids),
            seed=(
                derive_seed("fleet", seed, "object", gids[0])
                if clock == "private"
                else seed
            ),
            recorder_factory=mux.recorder if mux else None,
            protocol_kwargs=p["protocol_kwargs"],
            object_ids=gids,
            namespace_size=p["objects"],
            **shape,
        )
    # Faults derive from the *epoch* seed and each object's global index:
    # every epoch re-draws its victims, whichever cell hosts the object.
    applied = None
    if audited or p["faults"] != "none":
        applied = cluster.apply_fault_plan(p["faults"], seed=seed)
    if audited:
        pool = AuditPool(
            cluster.sim,
            [
                (gid, object_namespace(gid), obj.server_ids)
                for gid, obj in zip(gids, cluster.objects)
            ],
            k=cluster.objects[0].code.k,
            config=AuditConfig(
                sample=p["audit_sample"],
                interval=p["audit_interval"],
                timeout=min(2.0, p["audit_interval"]),
                confirm=p["audit_confirm"],
                rounds=p["audit_rounds"],
                start=p["audit_start"],
            ),
            seeds=[derive_seed("faults", seed, "audit", gid) for gid in gids],
        )
        pool.start()

    run = dict(
        operations=cell["ops"],
        value_size=p["value_size"],
        seed=seed + 1,
        value_prefix=f"e{k}|",
        max_events=cell["max_events"],
    )
    if clock != "bare":
        run["key_dist"] = parse_key_dist(p["key_dist"])
    if closed:
        stats = cluster.run_streamed(mean_gap=p["mean_gap"], **run)
    else:
        stats = cluster.run_open_loop(
            arrival=parse_arrival(p["arrival"]),
            keep_samples=p["keep_samples"],
            **{name: p[name] for name in _OPEN_PARAMS},
            **run,
        )
    _require_complete(
        stats, f"{kind.name} epoch {k} objects {gids[0]}..{gids[-1]}"
    )
    per_object, allocation = (
        ([stats], [cell["ops"]])
        if clock == "bare"
        else (stats.per_object, stats.allocation)
    )

    objects = []
    counters = _CLOSED if closed else _OPEN
    for j, (gid, own) in enumerate(zip(gids, per_object)):
        measured = {"object": gid, "allocated": allocation[j]}
        measured.update((name, getattr(own, name)) for name in counters)
        if closed:
            verdict = mux.shard_verdict(k, j)
            measured.update(
                distinct_writes=sum(
                    1 for s in verdict.summaries if s.has_write and not s.initial
                ),
                max_resident=mux.recorders[j].max_resident,
                evicted=mux.recorders[j].evicted_count,
                checker_ok=mux.object_ok(j),
                verdict=verdict,
                records=tuple(taps[j].records.values()) if taps else None,
            )
        if audited:
            stall_taps[j].finish(stats.end_time)
            ground = applied.objects[j]
            audit = pool.clients[j].report()
            first_stall = stall_taps[j].first_stall_at
            if ground.below_k:
                detected_before_stall = audit.flagged and (
                    first_stall is None or audit.first_flagged_at <= first_stall
                )
                false_flag = False
            else:
                detected_before_stall = True  # nothing to detect
                false_flag = audit.flagged
            measured.update(
                faults=ground.to_jsonable(),
                withheld=len(ground.withheld),
                surviving_elements=ground.surviving_elements,
                below_k=ground.below_k,
                isolated=len(ground.isolated),
                crashed=len(ground.crashed),
                min_estimate=audit.min_estimate,
                flagged=audit.flagged,
                first_flagged_at=audit.first_flagged_at,
                first_stall_at=first_stall,
                stalled_reads=stall_taps[j].stalled_reads,
                detected_before_stall=detected_before_stall,
                false_flag=false_flag,
            )
        objects.append(measured)
    group = {
        "end_time": stats.end_time,
        "events": stats.events,
        "objects": objects,
        "max_retired_bytes": mux.max_retired_bytes if mux else 0,
    }
    if not closed:
        # Merged over the group's objects in object order; the fold then
        # merges group histograms in grid order (the float ``total`` makes
        # the merge order part of the bytes).
        group.update(
            read_latency=stats.read_latency,
            write_latency=stats.write_latency,
            samples=stats.samples,
        )
    return group


def run_cell(cell: Mapping[str, object]) -> Tuple[int, Dict[str, object]]:
    """Worker entry for one cell (module-level, spawn-picklable).

    Runs the cell's groups sequentially, each on its own fresh simulation,
    and returns their measurements plus the cell's own CPU-seconds (the
    critical-path input of the capacity rates) and peak RSS.  The index is
    the cell's grid position, consumed by the order-restoring cursor.
    """
    cpu0 = time.process_time()
    groups = [_run_group(cell, gids) for gids in cell["groups"]]
    return cell["index"], {
        "epoch": cell["epoch"],
        "seed": cell["seed"],
        "ops": cell["ops"],
        "groups": groups,
        "cpu_s": time.process_time() - cpu0,
        "max_rss_kb": max_rss_kb(),
    }


# ----------------------------------------------------------------------
# rebasing shard verdicts onto the global timeline
# ----------------------------------------------------------------------
def _qualify(op_id: Optional[str], epoch_index: int) -> Optional[str]:
    """Prefix an epoch-local operation id for the global timeline."""
    return None if op_id is None else f"e{epoch_index}:{op_id}"


def _rebase_summary(
    summary: ClusterSummary, epoch_index: int, offset: float
) -> ClusterSummary:
    """Place one epoch summary on the global timeline.

    Ordinary clusters shift by the epoch offset and get epoch-qualified
    operation ids.  The epoch's *initial-value* cluster becomes an explicit
    marker-write cluster invoked (and responded) inside the inter-epoch
    gap: the epoch's register really did hold the marker before its first
    write, and modelling that as a write lets the merge treat the whole
    run as a single register history with no distinguished initial value.
    """
    shifted = shift_summary(summary, offset)
    if not summary.initial:
        return shifted._replace(
            write_id=_qualify(summary.write_id, epoch_index),
            first_read_id=_qualify(summary.first_read_id, epoch_index),
        )
    marker_invoked = offset - 0.75 * EPOCH_GAP
    marker_responded = offset - 0.5 * EPOCH_GAP
    return shifted._replace(
        write_id=f"<epoch{epoch_index}-initial>",
        has_write=True,
        write_invoked=marker_invoked,
        max_inv=max(shifted.max_inv, marker_invoked),
        min_resp=min(marker_responded, shifted.min_read_resp),
        first_read_id=_qualify(summary.first_read_id, epoch_index),
        initial=False,
    )


def rebase_verdict(verdict: ShardVerdict, epoch_index: int, offset: float):
    """One object's epoch verdict, placed at ``offset`` on its global
    timeline with epoch-qualified operation ids."""
    return ShardVerdict(
        index=epoch_index,
        ops_seen=verdict.ops_seen,
        reads_checked=verdict.reads_checked,
        summaries=tuple(
            _rebase_summary(s, epoch_index, offset) for s in verdict.summaries
        ),
        duplicate_claims=tuple(
            (key, _qualify(op_id, epoch_index) or "?", invoked + offset)
            for key, op_id, invoked in verdict.duplicate_claims
        ),
        violations=tuple(
            Violation(
                kind=v.kind,
                description=f"epoch {epoch_index}: {v.description}",
                op_ids=tuple(_qualify(op, epoch_index) or "?" for op in v.op_ids),
            )
            for v in verdict.violations
        ),
    )


def _replay(history: History, records, epoch_index: int, offset: float) -> None:
    """Append one object's captured epoch to its global replay history:
    the marker write inside the gap, then every record at the offset."""
    marker_id = f"<epoch{epoch_index}-initial>"
    history.record(
        OperationRecord(
            op_id=marker_id,
            kind="write",
            client=marker_id,
            invoked_at=offset - 0.75 * EPOCH_GAP,
            responded_at=offset - 0.5 * EPOCH_GAP,
            value=_epoch_marker(epoch_index),
        )
    )
    for op_id, kind, client, inv, resp, value, failed in records:
        history.record(
            OperationRecord(
                op_id=_qualify(op_id, epoch_index) or "?",
                kind=kind,
                client=f"e{epoch_index}:{client}",
                invoked_at=inv + offset,
                responded_at=None if resp is None else resp + offset,
                value=value,
                failed=failed,
            )
        )


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class Row(dict):
    """One artefact row: an ordered ``column -> value`` mapping (the JSON
    and CSV shape) whose columns also read as attributes."""

    def __getattr__(self, name: str):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def _jsonable_float(value: float) -> Optional[float]:
    """JSON-safe float: the nan/inf sentinels become ``null``."""
    return None if math.isnan(value) or math.isinf(value) else value


def _latency_block(hist: LatencyHistogram, slo: float) -> Dict[str, object]:
    return {
        "summary": {
            key: (value if key == "count" else _jsonable_float(value))
            for key, value in hist.summary().items()
        },
        "slo_attainment": _jsonable_float(hist.attainment(slo)),
        "histogram": hist.to_jsonable(),
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else float("inf")


@dataclass
class Report:
    """Outcome of one run of any kind.

    Everything in :meth:`to_jsonable` is a deterministic function of the
    run parameters; ``jobs``, ``fleet``, wall-clock, CPU and RSS are
    deliberately outside it, so artefacts of the same run diff clean
    across every scheduling choice.  Every total and every parameter the
    artefact carries also reads as an attribute (``report.issued``,
    ``report.stream_max_resident``, ``report.objects`` …).
    """

    kind: Kind
    protocol: str
    params: Dict[str, object]
    epochs: List[Row]
    object_rows: List[Row]
    totals: Dict[str, object]
    #: Merged checker verdict: a ``NamespaceCheckResult``, the single
    #: ``MergedCheckResult`` for the one-register kind, None for open loop.
    verdict: object = None
    #: Online (per-epoch) violations, tagged with their object index.
    local_violations: Tuple[Tuple[int, Violation], ...] = ()
    object_faults: List[Dict[str, object]] = field(default_factory=list)
    read_latency: Optional[LatencyHistogram] = None
    write_latency: Optional[LatencyHistogram] = None
    samples: Optional[Dict[str, List[float]]] = None
    replay_histories: Optional[List[History]] = field(default=None, repr=False)
    wall_s: float = 0.0
    #: Sum over epochs of the slowest cell's CPU seconds (critical path).
    cpu_s: float = 0.0
    jobs: int = 1
    fleet: int = 1
    #: Peak resident-set size (KB) over the cell workers — OS-level memory
    #: ground truth per process, beside the deterministic record gauge.
    worker_max_rss_kb: int = 0
    #: Peak value bytes one recorder's retired window referenced (a gauge
    #: beside ``stream_max_resident``, outside the artefacts like the RSS).
    stream_max_value_bytes: int = 0

    def __getattr__(self, name: str):
        for source in ("totals", "params"):
            values = self.__dict__.get(source, {})
            if name in values:
                return values[name]
        raise AttributeError(name)

    # -- verdicts -----------------------------------------------------------
    @property
    def checker_ok(self) -> bool:
        return self.verdict is None or (
            self.verdict.ok and all(row.checker_ok for row in self.epochs)
        )

    @property
    def detection_ok(self) -> bool:
        """Every below-``k`` register flagged before any foreground stall
        (vacuously true for runs without an audit)."""
        return all(
            row.detected_before_stall
            for row in self.object_rows
            if row.get("below_k")
        )

    @property
    def ok(self) -> bool:
        return self.checker_ok and self.detection_ok

    def detection_summary(self) -> Dict[str, object]:
        """The run-level detection verdict, one row of booleans/counts."""
        below = [row for row in self.object_rows if row.below_k]
        sound = [row for row in self.object_rows if not row.below_k]
        return {
            "below_k_rows": len(below),
            "detected": sum(1 for row in below if row.flagged),
            "detected_before_stall": sum(
                1 for row in below if row.detected_before_stall
            ),
            "missed": sum(1 for row in below if not row.flagged),
            "false_flags": sum(1 for row in sound if row.false_flag),
            "stalled_reads": sum(row.stalled_reads for row in self.object_rows),
            "all_detected_before_stall": self.detection_ok,
        }

    def object_totals(self) -> List[Dict[str, int]]:
        """Per-object totals across every epoch (hot keys show up here)."""
        totals = [dict.fromkeys(_CLOSED, 0) for _ in range(self.objects)]
        for row in self.object_rows:
            for column in _CLOSED:
                totals[row.object][column] += row[column]
        return totals

    # -- latency ------------------------------------------------------------
    def latency(self) -> LatencyHistogram:
        """Reads and writes merged (a fresh copy)."""
        return self.read_latency.copy().merge(self.write_latency)

    @property
    def p50(self) -> float:
        return self.latency().percentile(50.0)

    @property
    def p99(self) -> float:
        return self.latency().percentile(99.0)

    @property
    def p999(self) -> float:
        return self.latency().percentile(99.9)

    def slo_attainment(self) -> float:
        return self.latency().attainment(self.slo_ms)

    # -- rates (all over completed operations) ------------------------------
    @property
    def ops_per_s(self) -> float:
        """Wall-clock throughput of this host."""
        return _rate(self.completed, self.wall_s)

    @property
    def ops_per_cpu_s(self) -> float:
        """Sustained capacity with one core per cell (critical path)."""
        return _rate(self.completed, self.cpu_s)

    @property
    def events_per_cpu_s(self) -> float:
        return _rate(self.events, self.cpu_s)

    # -- serialisation ------------------------------------------------------
    def to_jsonable(self) -> Dict[str, object]:
        kind = self.kind
        out: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind.name,
            "protocol": self.protocol,
            "params": dict(self.params),
            "totals": dict(self.totals),
            "epochs": [dict(row) for row in self.epochs],
        }
        if kind.object_columns:
            out["object_rows"] = [dict(row) for row in self.object_rows]
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_jsonable()
            out["local_violations"] = [
                {
                    **({"object": obj} if kind.namespace else {}),
                    "kind": v.kind,
                    "description": v.description,
                    "op_ids": list(v.op_ids),
                }
                for obj, v in self.local_violations
            ]
        if kind.driver == "closed" and kind.object_columns:
            out["object_totals"] = self.object_totals()
        if kind.driver == "audited":
            out["detection"] = self.detection_summary()
            out["object_faults"] = list(self.object_faults)
        if kind.driver == "open":
            slo = self.slo_ms
            out["latency"] = {
                "read": _latency_block(self.read_latency, slo),
                "write": _latency_block(self.write_latency, slo),
                "all": _latency_block(self.latency(), slo),
            }
            out["slo_ms"] = slo
        return out


def _artefact_params(grid: Grid) -> Dict[str, object]:
    """The self-describing ``params`` block: everything the bytes depend
    on, nothing they do not (``jobs``, ``fleet``)."""
    kind, p = grid.kind, grid.params
    names = list(
        _columns("ops epoch_ops n f num_writers num_readers value_size seed")
    )
    if kind.namespace:
        names += ["objects", "key_dist"]
    names += _OPEN_PARAMS + ("arrival",) if kind.driver == "open" else _CLOSED_PARAMS
    if kind.driver == "audited":
        names += _AUDIT_PARAMS
    # Only fault-injected runs carry the spec, so benign artefacts keep
    # their pre-FaultPlan byte layout.
    if kind.driver == "audited" or p["faults"] != "none":
        names.append("faults")
    params = {name: p[name] for name in names}
    params["epochs"] = grid.epochs
    if kind.driver == "open":
        params["slo_ms"] = p["slo"]
    # Protocol-specific construction arguments (e.g. CASGC's delta,
    # SODAerr's e), so the artefact reproduces from its own params.
    params.update(
        (f"protocol_{key}", value)
        for key, value in sorted(p["protocol_kwargs"].items())
    )
    return params


# ----------------------------------------------------------------------
# the fold
# ----------------------------------------------------------------------
def epoch_cells(results: Iterable[Dict[str, object]], width: int):
    """Grid-ordered cell results, one epoch's ``width`` cells at a time
    (the grid is epoch-major)."""
    cells: List[Dict[str, object]] = []
    for result in results:
        cells.append(result)
        if len(cells) == width:
            yield cells
            cells = []


def run_experiment(kind: str, protocol: str = "SODA", **params) -> Report:
    """Run one experiment of ``kind`` (a key of :data:`KINDS`).

    ``params`` are the keys of :data:`DEFAULTS` (overridden per kind by
    ``Kind.defaults``): the workload (``ops``, ``epoch_ops``, ``objects``,
    ``key_dist``, ``seed``, ``faults`` …), the cluster shape (``n``, ``f``,
    ``num_writers``, ``num_readers``, ``protocol_kwargs``), the driver's
    knobs, and the scheduling axes ``jobs`` (epochs in flight) and ``fleet``
    (cells per epoch, private kinds only) — up to ``jobs × fleet`` cell
    processes, none of which moves an artefact byte.
    ``keep_records`` / ``keep_samples`` capture whole histories / raw
    latency samples of *small* runs for cross-validation.  A run that loses
    cells — a dead worker, a cell that raises — names them (:func:`cell_names`)
    in the error's message and its ``cells``.
    """
    grid = build_grid(kind, protocol, **params)
    spec, p = grid.kind, grid.params
    objects = p["objects"]
    closed = spec.driver != "open"

    epoch_rows: List[Row] = []
    object_rows: List[Row] = []
    object_faults: List[Dict[str, object]] = []
    shards_by_object: List[List[ShardVerdict]] = [[] for _ in range(objects)]
    local_violations: List[Tuple[int, Violation]] = []
    replays = [History() for _ in range(objects)] if p["keep_records"] else None
    read_latency, write_latency = LatencyHistogram(), LatencyHistogram()
    samples = {"read": [], "write": []} if p["keep_samples"] else None
    offsets = [EPOCH_GAP] * objects
    cpu_s = 0.0
    worker_rss = stream_bytes = 0

    def fold_epoch(cells: List[Dict[str, object]]) -> None:
        """Fold one epoch's cells, objects in global order — hence
        independent of which cell hosted which object."""
        nonlocal cpu_s, worker_rss, stream_bytes
        k, seed = cells[0]["epoch"], cells[0]["seed"]
        groups = sorted(
            (group for cell in cells for group in cell["groups"]),
            key=lambda group: group["objects"][0]["object"],
        )
        measured = []
        for group in groups:
            end_time = group["end_time"]
            for m in group["objects"]:
                gid = m["object"]
                offset = offsets[gid]
                m.update(
                    epoch=k,
                    seed=seed,
                    offset=offset,
                    end_time=end_time,
                    events=group["events"],
                )
                measured.append(m)
                if spec.object_columns:
                    object_rows.append(Row((c, m[c]) for c in spec.object_columns))
                if closed:
                    rebased = rebase_verdict(m["verdict"], k, offset)
                    shards_by_object[gid].append(rebased)
                    local_violations.extend((gid, v) for v in rebased.violations)
                    if replays is not None:
                        _replay(replays[gid], m["records"], k, offset)
                if "faults" in m:
                    object_faults.append({"epoch": k, **m["faults"]})
                # The two groupings associate the sum differently; both
                # orders are kept because both are committed bytes.
                offsets[gid] = (
                    offset + end_time + EPOCH_GAP
                    if spec.private
                    else offset + (end_time + EPOCH_GAP)
                )
            if not closed:
                read_latency.merge(group["read_latency"])
                write_latency.merge(group["write_latency"])
                if samples is not None and group["samples"] is not None:
                    samples["read"].extend(group["samples"]["read"])
                    samples["write"].extend(group["samples"]["write"])
        context = {
            "index": k,
            "seed": seed,
            "ops": cells[0]["ops"],
            "offset": measured[0]["offset"],
            "events": sum(group["events"] for group in groups),
        }
        epoch_rows.append(
            Row(
                (c, context[c] if c in context else _fold(c, measured))
                for c in spec.epoch_columns
            )
        )
        cpu_s += max(cell["cpu_s"] for cell in cells)
        worker_rss = max(worker_rss, *(cell["max_rss_kb"] for cell in cells))
        stream_bytes = max(stream_bytes, *(g["max_retired_bytes"] for g in groups))

    # Pipelined fold: the pool fans the whole grid out at once (up to
    # jobs × width cells in flight, imap_unordered — no barrier on the
    # slowest worker); the in_order cursor restores grid order, and since
    # the grid is epoch-major the next ``width`` results are always one
    # complete epoch.  The folded state — hence the merged verdict and
    # every artefact byte — is identical for any jobs/fleet count.
    start = time.perf_counter()
    try:
        # Closed on the way out, whatever ends the loop (^C during a fold
        # too): the pool then terminates the workers still running.
        with closing(
            iter_unordered(run_cell, grid.cells, jobs=p["jobs"] * grid.width)
        ) as results:
            for cells in epoch_cells(in_order(results), grid.width):
                fold_epoch(cells)
    except WorkerDied as died:
        raise WorkerDied(died.indices, cell_names(grid, died.indices)) from died
    except Exception as error:
        if not hasattr(error, "payload_index"):
            raise
        error.cells = cell_names(grid, [error.payload_index])
        error.args = (f"{error.cells[0]}: {error}",)
        raise
    verdict = None
    if closed:
        verdict = merge_namespace_verdicts(shards_by_object, initial_value=None)
        if not spec.namespace:
            verdict = verdict.per_object[0]
    wall_s = time.perf_counter() - start

    totals = {
        name: _fold(name, epoch_rows) for name in spec.totals if name != "sim_ops_per_s"
    }
    if "sim_ops_per_s" in spec.totals:
        # Sustained simulated throughput: completed ops per simulated
        # second, one simulated time unit read as 1 ms.
        totals["sim_ops_per_s"] = _jsonable_float(
            _rate(totals["completed"], totals["sim_time"] / 1_000.0)
        )
    return Report(
        kind=spec,
        protocol=protocol,
        params=_artefact_params(grid),
        epochs=epoch_rows,
        object_rows=object_rows,
        totals=totals,
        verdict=verdict,
        local_violations=tuple(local_violations),
        object_faults=object_faults,
        read_latency=None if closed else read_latency,
        write_latency=None if closed else write_latency,
        samples=samples,
        replay_histories=replays,
        wall_s=wall_s,
        cpu_s=cpu_s,
        jobs=p["jobs"],
        fleet=p["fleet"],
        worker_max_rss_kb=worker_rss,
        stream_max_value_bytes=stream_bytes,
    )


# ----------------------------------------------------------------------
# committed artefacts
# ----------------------------------------------------------------------
def artefact_paths(report: Report, directory: Path) -> Tuple[Path, Path]:
    """``(json_path, csv_path)`` of ``report`` under ``directory``."""
    stem = report.kind.stem.format(
        **{
            **report.params,
            "protocol": report.protocol.lower(),
            "arrival": str(report.params.get("arrival")).split(":", 1)[0],
        }
    )
    directory = Path(directory)
    return directory / f"{stem}.json", directory / f"{stem}.csv"


def write_artefacts(report: Report, directory: Path) -> Tuple[Path, Path]:
    """Write the deterministic JSON report and its CSV rows under
    ``directory`` (typically ``results/``); returns the two paths.

    Both files are byte-identical for any ``jobs`` / ``fleet``.  The pair
    is written atomically: both are rendered into ``<name>.tmp`` siblings
    and renamed into place only once both are complete, so an interrupted
    run leaves either the previous pair or nothing — never a half-written
    file or a JSON without its CSV.
    """
    json_path, csv_path = artefact_paths(report, directory)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    staged = [path.with_name(path.name + ".tmp") for path in (json_path, csv_path)]
    try:
        staged[0].write_text(
            json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"
        )
        _write_csv(report, staged[1])
        for tmp, final in zip(staged, (json_path, csv_path)):
            os.replace(tmp, final)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
    return json_path, csv_path


def _write_csv(report: Report, path: Path) -> None:
    """The CSV artefact: the kind's object rows (epoch rows for kinds
    without them) under the schema's header."""
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=report.kind.csv_columns)
        writer.writeheader()
        writer.writerows(report.object_rows or report.epochs)
