"""The open-loop traffic driver.

The closed-loop driver (:meth:`repro.runtime.cluster.RegisterCluster.run_streamed`)
keeps one pending operation per client, so offered load self-limits and
latency tails are invisible.  This module drives a cluster *open-loop*: an
arrival process from :mod:`repro.workloads.arrivals` fixes the invocation
schedule up front, and the cluster either keeps up or visibly degrades.

Mechanics
---------
* **Virtual clients.**  Arrivals are multiplexed over the cluster's writer
  and reader process pools on the shared clock.  An idle client is pulled
  from a free list at dispatch and returned on completion, so thousands of
  queued requests need no per-request process.
* **Bounded admission queue.**  When no client of the right kind is idle,
  the arrival waits in a FIFO admission queue bounded at
  ``queue_per_server * n`` entries (the replica group's aggregate backlog).
  A full queue applies the configured policy:

  - ``drop`` — reject the incoming arrival (counted ``rejected``);
  - ``shed-reads`` — reject incoming reads; an incoming write instead
    evicts the oldest queued read (counted ``shed_reads``) and is
    admitted, so writes survive read storms;
  - ``backpressure`` — pause the arrival stream until the queue drains
    below capacity, shifting the remaining schedule by the stall time
    (counted ``stall_time``) — the closed-loop-style "slow the client
    down" degradation.

  Either way the event queue stays bounded by
  ``clients + queue capacity + 1`` instead of growing with the arrival
  backlog — saturation degrades gracefully.
* **Timeout-as-failure.**  With ``op_timeout`` set, a queued arrival whose
  wait exceeds the timeout is expired at dispatch time and counted
  ``timed_out`` — explicitly a failure, never silently retried.
* **Latency.**  Completion latency is measured from *arrival* (not
  dispatch), so queueing delay is part of the number — that is the tail
  the paper's ``5δ``/``6δ`` bounds are about.  Latencies stream into the
  bounded-memory :class:`~repro.metrics.latency.LatencyHistogram`, one per
  operation kind, mergeable across epochs and shards.

Everything derives from the driver ``seed``; one run is reproducible
event-for-event, and per-epoch derived seeds shard deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.consistency.history import OperationRecord
from repro.consistency.stream import StreamObserver
from repro.metrics.latency import LatencyHistogram
from repro.runtime.config import RunConfig
from repro.runtime.driver import value_source
from repro.sim.process import Process

__all__ = ["OpenLoopStats", "begin_open_loop"]


@dataclass
class OpenLoopStats:
    """Outcome of one open-loop run.

    ``requested`` arrivals flow through admission: each is either
    dispatched/queued (``admitted``), rejected at a full queue
    (``rejected``), or — for queued writes under ``shed-reads`` — admitted
    by evicting a queued read (the victim counts in ``shed_reads``).
    Admitted arrivals are ``issued`` unless their queue wait exceeded the
    timeout (``timed_out``) or the run ended first (``queued_at_end``).
    Issued operations end up ``completed`` or ``failed``.
    """

    requested: int
    policy: str
    queue_capacity: int
    arrived: int = 0
    admitted: int = 0
    issued: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    shed_reads: int = 0
    timed_out: int = 0
    writes: int = 0
    reads: int = 0
    max_queue_depth: int = 0
    queued_at_end: int = 0
    stall_time: float = 0.0
    end_time: float = 0.0
    events: int = 0
    truncated: bool = False
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Raw per-kind latency samples, kept only when ``keep_samples`` is
    #: set (for cross-validating histogram percentiles against exact
    #: ``numpy.percentile`` on small runs).
    samples: Optional[Dict[str, List[float]]] = None

    def latency(self) -> LatencyHistogram:
        """Reads and writes merged into one histogram (a fresh copy)."""
        return self.read_latency.copy().merge(self.write_latency)


def begin_open_loop(
    cluster, cfg: RunConfig, *, operations: int, arrival, seed: int, value_prefix: str
) -> Tuple[OpenLoopStats, Callable[[], None]]:
    """Arm one open-loop run on ``cluster`` without running the simulation.

    Pre-generates the arrival schedule and operation kinds from ``seed``
    (O(8 bytes) per operation — no values, no events), schedules the first
    arrival, and subscribes the completion driver.  Returns
    ``(stats, finalize)`` exactly like
    :meth:`~repro.runtime.cluster.RegisterCluster._begin_streamed`, so the
    namespace layer can arm one driver per register object on a shared
    simulation.  ``cfg`` is the validated knob record of the public call.
    """
    if operations < 0:
        raise ValueError("operations cannot be negative")

    sim = cluster.sim
    rng = np.random.default_rng(seed)
    schedule = arrival.generate(rng, operations)
    is_read = rng.random(operations) < cfg.read_fraction
    capacity = cfg.queue_per_server * cluster.n
    stats = OpenLoopStats(
        requested=operations,
        policy=cfg.policy,
        queue_capacity=capacity,
        samples={"read": [], "write": []} if cfg.keep_samples else None,
    )

    # Free lists, reversed so .pop() hands out the lowest-numbered idle
    # client first (deterministic assignment order).
    idle: Dict[str, List[Process]] = {
        "write": [cluster.writers[pid] for pid in reversed(cluster.writer_ids)],
        "read": [cluster.readers[pid] for pid in reversed(cluster.reader_ids)],
    }
    queues: Dict[str, Deque[float]] = {"write": deque(), "read": deque()}
    #: op_id -> (arrival_time, kind) for operations this run issued.
    outstanding: Dict[str, Tuple[float, str]] = {}
    state = {
        "next": 0,
        "stalled": False,
        "stall_started": 0.0,
        "shift": 0.0,
        "active": True,
    }
    next_value = value_source(cluster, rng, cfg, value_prefix)

    def queue_depth() -> int:
        return len(queues["write"]) + len(queues["read"])

    def dispatch(kind: str, arrival_time: float) -> bool:
        """Issue one ``kind`` operation on an idle client, if any."""
        pool = idle[kind]
        while pool and pool[-1].is_crashed:
            pool.pop()  # crashed clients leave the rotation for good
        if not pool:
            return False
        client = pool.pop()
        if kind == "write":
            op_id = client.start_write(next_value())
            stats.writes += 1
        else:
            op_id = client.start_read()
            stats.reads += 1
        outstanding[op_id] = (arrival_time, kind)
        stats.issued += 1
        return True

    def schedule_next_arrival() -> None:
        index = state["next"]
        if not state["active"] or state["stalled"] or index >= operations:
            return
        due = schedule[index] + state["shift"]
        sim.schedule_at(max(due, sim.now), on_arrival, label="open-loop arrival")

    def on_arrival() -> None:
        if not state["active"]:
            return
        index = state["next"]
        kind = "read" if is_read[index] else "write"
        now = sim.now
        depth = queue_depth()
        if depth >= capacity and cfg.policy == "backpressure":
            # Stall the arrival stream: this arrival (and everything
            # behind it) waits until the queue drains below capacity.
            state["stalled"] = True
            state["stall_started"] = now
            return
        state["next"] = index + 1
        stats.arrived += 1
        if not queues[kind] and dispatch(kind, now):
            stats.admitted += 1
        elif depth < capacity:
            queues[kind].append(now)
            stats.admitted += 1
            stats.max_queue_depth = max(stats.max_queue_depth, depth + 1)
        elif cfg.policy == "shed-reads" and kind == "write" and queues["read"]:
            queues["read"].popleft()
            stats.shed_reads += 1
            queues[kind].append(now)
            stats.admitted += 1
        else:
            stats.rejected += 1
        schedule_next_arrival()

    def pump(kind: str) -> None:
        """Drain queued ``kind`` arrivals onto newly idle clients."""
        queue = queues[kind]
        now = sim.now
        while queue:
            arrival_time = queue[0]
            if cfg.op_timeout is not None and now - arrival_time > cfg.op_timeout:
                queue.popleft()
                stats.timed_out += 1
                continue
            if not dispatch(kind, arrival_time):
                return
            queue.popleft()

    def resume_arrivals() -> None:
        if state["stalled"] and queue_depth() < capacity:
            stats.stall_time += sim.now - state["stall_started"]
            state["stalled"] = False
            schedule_next_arrival()

    class _OpenLoopDriver(StreamObserver):
        def _advance(self, record: OperationRecord, failed: bool) -> None:
            if not state["active"]:
                return
            entry = outstanding.pop(record.op_id, None)
            if entry is None:
                return  # not one of this run's operations
            arrival_time, kind = entry
            finished_at = (
                record.responded_at if record.responded_at is not None else sim.now
            )
            stats.end_time = max(stats.end_time, finished_at)
            if failed:
                stats.failed += 1
            else:
                stats.completed += 1
                latency = finished_at - arrival_time
                hist = stats.write_latency if kind == "write" else stats.read_latency
                hist.record(latency)
                if stats.samples is not None:
                    stats.samples[kind].append(latency)
            client = (
                cluster.writers.get(record.client)
                if kind == "write"
                else cluster.readers.get(record.client)
            )
            if client is not None and not client.is_crashed:
                idle[kind].append(client)
            pump(kind)
            resume_arrivals()

        def on_complete(self, record: OperationRecord) -> None:
            self._advance(record, failed=False)

        def on_failed(self, record: OperationRecord) -> None:
            self._advance(record, failed=True)

    driver = cluster.history.subscribe(_OpenLoopDriver())
    schedule_next_arrival()

    def finalize() -> None:
        state["active"] = False
        cluster.history.unsubscribe(driver)
        if state["stalled"]:
            stats.stall_time += sim.now - state["stall_started"]
            state["stalled"] = False
        stats.queued_at_end = queue_depth()
        stats.end_time = max(stats.end_time, sim.now)

    return stats, finalize
