"""The benchmark's seven workloads.

Each workload drives the program through public entry points only
(``make_cluster``, ``RegisterCluster.run_streamed`` / ``run_open_loop`` /
``crash_server`` / ``codec_stats`` / ``storage_peak`` / ``costs``, the
streaming recorder and incremental checker, ``stream_operations``,
``repro.cli.main``) and returns, per repetition, how many operations were
attempted and completed, any correctness problem found, and a dictionary of
*deterministic* counters — the same seed must reproduce them exactly, which
the worker checks across repetitions.

Names and shapes are fixed: later issues refer to them.  Sizes are chosen
so one repetition costs about one CPU-second on the 2-core build host,
so a 25-second run holds 15 to 25 of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.cli
import repro.workloads.generator as generator
from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import (
    CheckerBatcher,
    OperationRecord,
    StreamingRecorder,
    StreamObserver,
)
from repro.workloads.arrivals import parse_arrival

from metrics import LADDER_RATES

#: Scratch space for artefacts the CLI workload writes (inside the
#: checkout, git-ignored, removed after every repetition).
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Latency limit (simulated ms, p99 of all operations) behind ``slo_rate_max``.
SLO_P99_MS = 5.0

RECORDER_WINDOW = 256


def derive_seed(seed: int, workload: str) -> int:
    """The workload's own 32-bit seed, a pure function of ``--seed``."""
    digest = hashlib.sha256(f"bench:{seed}:{workload}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile(values: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile (no interpolation, no histogram)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class Repetition:
    """What one repetition of a workload did."""

    attempted: int
    completed: int
    #: Deterministic per seed; must be equal across repetitions.
    counters: Dict[str, float]
    #: Correctness failures (empty = the outputs were checked and are right).
    problems: List[str] = field(default_factory=list)


class _OperationTap(StreamObserver):
    """Benchmark-owned observer: exact durations and ids per operation kind."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = {"read": [], "write": []}
        self.op_ids: Dict[str, List[str]] = {"read": [], "write": []}

    def on_complete(self, record: OperationRecord) -> None:
        self.durations[record.kind].append(record.responded_at - record.invoked_at)
        self.op_ids[record.kind].append(record.op_id)


# ----------------------------------------------------------------------
# cluster workloads (closed and open loop)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterWorkload:
    """A register cluster driven through ``run_streamed`` / ``run_open_loop``."""

    name: str
    why: str
    ops: int
    protocol: str
    n: int
    f: int
    value_size: int
    clients: Tuple[int, int] = (2, 2)  # writers, readers
    protocol_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: ``(server index, simulated ms)`` crashes scheduled before the run.
    crashes: Tuple[Tuple[int, float], ...] = ()
    #: Poisson arrival rate per simulated ms; ``None`` = closed loop.
    open_loop_rate: Optional[int] = None

    def build(self, seed: int, ops: int) -> dict:
        recorder = StreamingRecorder(window=RECORDER_WINDOW)
        checker = IncrementalAtomicityChecker(initial_value=b"")
        # Subscribed before the cluster exists so make_cluster binds the
        # batcher to the simulation (one crossing test per drain).
        batcher = recorder.subscribe(CheckerBatcher(checker))
        tap = recorder.subscribe(_OperationTap())
        cluster = make_cluster(
            self.protocol,
            self.n,
            self.f,
            num_writers=self.clients[0],
            num_readers=self.clients[1],
            seed=seed,
            recorder=recorder,
            **dict(self.protocol_kwargs),
        )
        for server, at_time in self.crashes:
            cluster.crash_server(server, at_time)
        cluster.warm_encode([b"#warm|".ljust(self.value_size, b"\0")])
        return {
            "cluster": cluster,
            "recorder": recorder,
            "checker": checker,
            "batcher": batcher,
            "tap": tap,
            "seed": seed,
            "ops": ops,
        }

    def run(self, ctx: dict, rate: Optional[int] = None) -> Repetition:
        cluster, tap, ops = ctx["cluster"], ctx["tap"], ctx["ops"]
        rate = rate if rate is not None else self.open_loop_rate
        if rate is None:
            stats = cluster.run_streamed(
                operations=ops,
                value_size=self.value_size,
                mean_gap=0.25,
                seed=ctx["seed"] + 1,
            )
            latencies = tap.durations
        else:
            stats = cluster.run_open_loop(
                operations=ops,
                arrival=parse_arrival(f"poisson:{rate}"),
                read_fraction=0.5,
                policy="drop",
                queue_per_server=4,
                value_size=self.value_size,
                keep_samples=True,
                seed=ctx["seed"] + 1,
            )
            # Completion minus *arrival*: queue wait is part of the latency.
            latencies = stats.samples
        ctx["batcher"].flush()
        checker = ctx["checker"]

        problems = []
        if not checker.ok:
            problems.append(f"non-atomic history: {checker.violations[0]}")
        if stats.truncated:
            problems.append("run truncated by the event budget")

        costs = cluster.costs
        counters: Dict[str, float] = {
            "completed": stats.completed,
            "writes": stats.writes,
            "reads": stats.reads,
            "events": stats.events,
            "end_time": stats.end_time,
            "storage_peak": cluster.storage_peak(),
            "storage_theory": cluster.theoretical_storage_cost(),
            "checker_clusters": checker.result().clusters,
            "max_resident": ctx["recorder"].max_resident,
        }
        for kind in ("read", "write"):
            samples = latencies[kind]
            counters[f"{kind}_samples"] = len(samples)
            if samples:
                counters[f"{kind}_p50"] = percentile(samples, 50)
                counters[f"{kind}_p99"] = percentile(samples, 99)
            ids = tap.op_ids[kind]
            if ids:
                counters[f"{kind}_cost_mean"] = sum(map(costs.cost_of, ids)) / len(ids)
        for key, value in cluster.codec_stats().items():
            counters[f"codec_{key}"] = value
        if rate is not None:
            both = latencies["read"] + latencies["write"]
            counters["all_p99"] = percentile(both, 99) if both else math.inf
            counters["max_queue_depth"] = stats.max_queue_depth
            counters["rejected"] = stats.rejected
            counters["queued_at_end"] = stats.queued_at_end
        return Repetition(ops, stats.completed, counters, problems)

    def ladder(self, seed: int, ops: int, timed: Repetition) -> Dict[int, Dict[str, float]]:
        """Counters at every ladder rate (the timed rate is not run again)."""
        rows = {}
        for rate in LADDER_RATES:
            rep = timed if rate == self.open_loop_rate else self.run(self.build(seed, ops), rate)
            rows[rate] = dict(rep.counters, attempted=rep.attempted)
        return rows


def slo_rate_max(ladder: Dict[int, Dict[str, float]]) -> float:
    """Highest ladder rate meeting the latency limit with nothing refused,
    failed or still queued at the end (0 when none does)."""
    passing = [
        rate
        for rate, row in ladder.items()
        if row["all_p99"] <= SLO_P99_MS
        and row["completed"] == row["attempted"]
        and row["queued_at_end"] == 0
    ]
    return float(max(passing, default=0))


# ----------------------------------------------------------------------
# namespace-zipf: the CLI -> analysis -> runtime.namespace path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NamespaceWorkload:
    name: str
    why: str
    ops: int
    objects: int = 8
    epochs: int = 2
    #: The per-object stack, for the codec calibration.
    protocol: str = "SODA"
    n: int = 6
    f: int = 2
    value_size: int = 32
    protocol_kwargs: Tuple[Tuple[str, object], ...] = ()

    def build(self, seed: int, ops: int) -> dict:
        results_dir = WORK_DIR / f"{self.name}-{os.getpid()}"
        argv = [
            "experiment", "longrun",
            "--protocol", self.protocol,
            "--objects", str(self.objects),
            "--key-dist", "zipf:1.1",
            "--ops", str(ops),
            "--epoch-ops", str(ops // self.epochs),
            "--jobs", "1",
            "--seed", str(seed),
            "--results-dir", str(results_dir),
        ]  # fmt: skip
        repro.cli.build_parser().parse_args(argv)
        return {"argv": argv, "results_dir": results_dir, "ops": ops}

    def run(self, ctx: dict) -> Repetition:
        results_dir: Path = ctx["results_dir"]
        ops = ctx["ops"]
        shutil.rmtree(results_dir, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = repro.cli.main(ctx["argv"])
            artefacts = sorted(results_dir.iterdir())
            blobs = [path.read_bytes() for path in artefacts]
        finally:
            shutil.rmtree(results_dir, ignore_errors=True)
        report = json.loads(
            next(b for p, b in zip(artefacts, blobs) if p.suffix == ".json")
        )
        verdict, totals = report["verdict"], report["totals"]
        problems = []
        if status != 0:
            problems.append(f"cli exit status {status}")
        if not verdict["ok"]:
            problems.append(f"non-atomic namespace: objects {verdict['flagged_objects']}")
        if verdict["ops_seen"] != totals["completed"]:
            problems.append("checker saw fewer operations than completed")
        digest = hashlib.sha256()
        for blob in blobs:
            digest.update(blob)
        counters = {
            "completed": totals["completed"],
            "events": totals["events"],
            "end_time": sum(epoch["end_time"] for epoch in report["epochs"]),
            "writes": sum(row["writes"] for row in report["object_totals"]),
            "reads": sum(row["reads"] for row in report["object_totals"]),
            "max_resident": totals["stream_max_resident"],
            "checker_clusters": verdict["clusters"],
            "merge_crossings": verdict["crossings_tested"],
            "artefact_bytes": sum(map(len, blobs)),
            # Byte-identical artefacts across repetitions, as a counter.
            "artefact_sha256": digest.hexdigest(),
        }
        return Repetition(ops, totals["completed"], counters, problems)


# ----------------------------------------------------------------------
# checker-stream: the consistency layer alone
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckerWorkload:
    name: str
    why: str
    ops: int
    clients: int = 16
    probe_ops: int = 20_000

    def build(self, seed: int, ops: int, inject: Optional[str] = None) -> dict:
        recorder = StreamingRecorder(window=RECORDER_WINDOW)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        spec = generator.StreamSpec(
            operations=ops, clients=self.clients, inject=inject, seed=seed
        )
        return {"recorder": recorder, "checker": checker, "spec": spec}

    def run(self, ctx: dict) -> Repetition:
        spec, checker = ctx["spec"], ctx["checker"]
        stats = generator.stream_operations(spec, ctx["recorder"])
        problems = []
        if not checker.ok:
            problems.append(f"non-atomic history: {checker.violations[0]}")
        if checker.ops_seen != stats.invoked:
            problems.append("checker saw fewer operations than were streamed")
        counters = {
            "completed": stats.completed,
            "writes": stats.writes,
            "reads": stats.reads,
            "end_time": stats.end_time,
            "checker_clusters": checker.result().clusters,
            "reads_checked": checker.reads_checked,
            "max_resident": ctx["recorder"].max_resident,
        }
        return Repetition(spec.operations, stats.completed, counters, problems)

    def probes_flagged(self, seed: int, quick: bool) -> int:
        """How many of the two seeded violations the checker flags."""
        ops = self.probe_ops // 4 if quick else self.probe_ops
        flagged = 0
        for inject in ("stale", "phantom"):
            ctx = self.build(seed, ops, inject)
            generator.stream_operations(ctx["spec"], ctx["recorder"])
            flagged += not ctx["checker"].ok
        return flagged


SODA_6_2 = dict(protocol="SODA", n=6, f=2)

WORKLOADS = {
    w.name: w
    for w in (
        ClusterWorkload(
            name="soda-small",
            why="SODA [6,4], 32 B values, 2+2 closed-loop clients: ~109 events/op "
            "and <7% codec, so sim and core do the work; send-path and MD-META "
            "changes show here first",
            ops=2400,
            value_size=32,
            **SODA_6_2,
        ),
        ClusterWorkload(
            name="soda-64k",
            why="same cluster and event count with 64 KiB values: erasure encode/"
            "decode and value hashing take ~half the CPU; codec, cache and copy "
            "changes show here and not on soda-small; where peak_rss_mb moves",
            ops=1000,
            value_size=65536,
            **SODA_6_2,
        ),
        ClusterWorkload(
            name="casgc-small",
            why="the paper's comparator CASGC(delta=4): same sim send/deliver path "
            "as three-phase quorum broadcasts with no MD relay; a SODA-relay "
            "change predicts no change here, a generic sim change must help",
            ops=4800,
            protocol="CASGC",
            n=6,
            f=2,
            value_size=32,
            protocol_kwargs=(("delta", 4),),
        ),
        ClusterWorkload(
            name="soda-openloop",
            why="open loop, Poisson 4 arrivals/sim-ms over 8+8 clients with a "
            "bounded drop queue: the only workload with queueing, where "
            "concurrency raises relays per read and simulated latency lives",
            ops=1600,
            value_size=32,
            clients=(8, 8),
            open_loop_rate=4,
            **SODA_6_2,
        ),
        NamespaceWorkload(
            name="namespace-zipf",
            why="repro.cli.main longrun over 8 Zipf(1.1)-keyed SODA objects in 2 "
            "epochs: the only path through cli, analysis, runtime.namespace and "
            "the shard merge, with artefacts; engine refactors must not move it",
            ops=2400,
        ),
        ClusterWorkload(
            name="sodaerr-faults",
            why="SODAerr [8,4] at its full fault budget (2 server crashes plus 1 "
            "always-corrupting server), 4 KiB values: errors-and-erasures decode "
            "on reads, relays routing around dead servers; liveness under faults",
            ops=1400,
            protocol="SODAerr",
            n=8,
            f=2,
            value_size=4096,
            protocol_kwargs=(
                ("e", 1),
                ("error_probability", 1.0),
                ("error_prone_servers", (1,)),
            ),
            crashes=((0, 100.0), (2, 200.0)),
        ),
        CheckerWorkload(
            name="checker-stream",
            why="a synthetic 16-client history streamed straight into the bounded "
            "recorder and incremental checker, no cluster: consistency does all "
            "the work, so checker changes show here and nowhere else",
            ops=80_000,
        ),
    )
}
