"""Randomized concurrent workloads, batch and streaming.

A :class:`WorkloadSpec` describes a mix of writes and reads issued by a set
of clients over a window of simulated time, optionally together with server
crashes (bounded by the cluster's ``f``).  :func:`run_workload` schedules
the operations on any :class:`~repro.runtime.cluster.RegisterCluster`, runs
the simulation to quiescence and returns the recorded history together with
per-operation costs — everything the atomicity and cost experiments need.

For histories too long to materialise (the ROADMAP's million-operation
target), :func:`stream_operations` is the *streaming mode*: it synthesises
a well-formed concurrent register execution client by client and feeds the
invoke/respond events straight into any
:class:`~repro.consistency.stream.HistorySink` — typically a bounded
:class:`~repro.consistency.stream.StreamingRecorder` with the incremental
atomicity checker subscribed — without ever holding more than the in-flight
operations in memory.  Generated executions are linearizable by
construction (each operation takes effect at a sampled linearization
point); the ``inject`` modes deliberately corrupt reads so checker tests
have seeded violations.

Write values are generated to be globally unique (they embed the writer id
and a sequence number), which the black-box linearizability checker
requires.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.consistency.history import History
from repro.consistency.stream import READ, WRITE, HistorySink
from repro.runtime.cluster import RegisterCluster, ScheduledOperation
from repro.sim.failures import CrashSchedule


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a randomized concurrent workload.

    Attributes
    ----------
    writes_per_writer / reads_per_reader:
        Number of operations each client issues.
    window:
        Operations are invoked at times drawn uniformly from ``[0, window]``
        (subject to the one-at-a-time well-formedness of each client).
    value_size:
        Size in bytes of each written value (the payload is random bytes
        plus a unique header).
    server_crashes:
        Number of servers to crash at random times (must not exceed the
        cluster's ``f``).
    crash_window:
        Crash times are drawn uniformly from ``[0, crash_window]``
        (defaults to ``window``).
    seed:
        Seed for the workload's own randomness (independent from the
        cluster's delay randomness).
    """

    writes_per_writer: int = 3
    reads_per_reader: int = 3
    window: float = 10.0
    value_size: int = 64
    server_crashes: int = 0
    crash_window: Optional[float] = None
    seed: int = 0


@dataclass
class WorkloadResult:
    """Outcome of one workload execution."""

    history: History
    write_handles: List[ScheduledOperation] = field(default_factory=list)
    read_handles: List[ScheduledOperation] = field(default_factory=list)
    crash_schedule: Optional[CrashSchedule] = None

    def write_costs(self, cluster: RegisterCluster) -> List[float]:
        return [
            cluster.operation_cost(h.op_id) for h in self.write_handles if h.op_id
        ]

    def read_costs(self, cluster: RegisterCluster) -> List[float]:
        return [
            cluster.operation_cost(h.op_id) for h in self.read_handles if h.op_id
        ]

    @property
    def completed_operations(self) -> int:
        return self.history.completed_count


def unique_value(writer_index: int, sequence: int, size: int, rng: np.random.Generator) -> bytes:
    """A write value that is globally unique and has the requested size.

    Uniqueness is carried entirely by the header; the filler only pads the
    value to ``size``, so it is derived by hashing the header rather than
    drawn from ``rng`` — one digest is ~8x cheaper than materialising a
    fresh ndarray of random bytes, which used to dominate streamed ingest.
    (``rng`` stays in the signature for call-site stability; not drawing
    from it means streams sample different — equally valid — schedules per
    seed than earlier revisions did.)
    """
    header = f"w{writer_index}#{sequence}|".encode()
    fill = size - len(header)
    if fill <= 0:
        return header
    filler = hashlib.blake2b(header, digest_size=min(fill, 64)).digest()
    if fill > 64:
        filler = (filler * (fill // 64 + 1))[:fill]
    return header + filler


def run_workload(cluster: RegisterCluster, spec: WorkloadSpec) -> WorkloadResult:
    """Schedule the workload on ``cluster``, run to quiescence, return results."""
    rng = np.random.default_rng(spec.seed)
    result = WorkloadResult(history=cluster.history)

    if spec.server_crashes:
        if spec.server_crashes > cluster.f:
            raise ValueError(
                f"workload crashes {spec.server_crashes} servers but the cluster "
                f"only tolerates f={cluster.f}"
            )
        schedule = CrashSchedule.random(
            cluster.server_ids,
            spec.server_crashes,
            rng,
            time_range=(0.0, spec.crash_window or spec.window),
            exact=True,
        )
        cluster.apply_crash_schedule(schedule)
        result.crash_schedule = schedule

    # Generate every write value up front so the whole batch can be
    # pre-encoded with one batched call before the simulation starts.
    sequence = 0
    planned: List[tuple] = []  # (writer index, start time, value)
    for w_index in range(cluster.num_writers):
        for _ in range(spec.writes_per_writer):
            at = float(rng.uniform(0.0, spec.window))
            value = unique_value(w_index, sequence, spec.value_size, rng)
            sequence += 1
            planned.append((w_index, at, value))
    cluster.warm_encode([value for _, _, value in planned])
    for w_index, at, value in planned:
        result.write_handles.append(cluster.schedule_write(at, value, writer=w_index))
    for r_index in range(cluster.num_readers):
        for _ in range(spec.reads_per_reader):
            at = float(rng.uniform(0.0, spec.window))
            result.read_handles.append(cluster.schedule_read(at, reader=r_index))

    cluster.run()
    return result


# ----------------------------------------------------------------------
# streaming mode
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamSpec:
    """Parameters of a synthetic streamed register execution.

    Attributes
    ----------
    operations:
        Total number of operations to emit (across all clients).
    clients:
        Concurrent well-formed clients (one operation in flight each).
    read_fraction:
        Probability that a given operation is a read.
    mean_gap / mean_duration:
        Exponential think time between a client's operations and the mean
        operation duration, in simulated time units.
    value_size:
        Bytes per written value (a unique header plus filler).
    incomplete_fraction:
        Probability that an operation never responds (its client stops —
        a crashed client, matching the paper's failure model).  A fresh
        client replaces each crashed one, so concurrency and throughput
        stay constant however long the stream runs.
    inject:
        ``None`` for a linearizable-by-construction stream; ``"stale"``
        makes one late read return an overwritten value; ``"phantom"``
        makes one read return a never-written value.  Both are guaranteed
        atomicity violations, for checker tests.
    seed:
        Seed for all of the stream's randomness.
    """

    operations: int
    clients: int = 8
    read_fraction: float = 0.5
    mean_gap: float = 0.3
    mean_duration: float = 1.0
    value_size: int = 32
    incomplete_fraction: float = 0.0
    inject: Optional[str] = None
    seed: int = 0


@dataclass
class StreamStats:
    """What :func:`stream_operations` emitted."""

    invoked: int = 0
    completed: int = 0
    writes: int = 0
    reads: int = 0
    end_time: float = 0.0
    injected_violation: Optional[str] = None


def stream_operations(spec: StreamSpec, sink: HistorySink) -> StreamStats:
    """Stream a synthetic concurrent register execution into ``sink``.

    The generator maintains one in-flight operation per client and a heap
    of pending events, so resident memory is O(clients) regardless of
    ``spec.operations``.  Every operation takes effect atomically at a
    linearization point sampled inside its interval; reads return the
    register value at that point, which makes the emitted history
    linearizable by construction (the linearization points are a witness).
    """
    if spec.inject not in (None, "stale", "phantom"):
        raise ValueError(f"unknown injection mode {spec.inject!r}")
    rng = np.random.default_rng(spec.seed)
    stats = StreamStats()

    INVOKE, APPLY, RESPOND, FAIL = 0, 1, 2, 3
    heap: List[tuple] = []  # (time, phase, sequence, payload)
    heappush = heapq.heappush
    heappop = heapq.heappop
    sequence = 0

    # Scalar Generator draws cost microseconds each; at four draws per
    # operation they dominate the loop, so draw in batches and hand out
    # plain Python floats from pools.  (Pooling reorders the underlying
    # bit stream relative to one-at-a-time draws, so a given seed samples
    # a different — equally valid — schedule than earlier revisions.)
    _POOL = 8192
    _u_pool = rng.random(_POOL).tolist()
    _u_i = 0
    _e_pool = rng.standard_exponential(_POOL).tolist()
    _e_i = 0

    def _uniform() -> float:
        nonlocal _u_pool, _u_i
        if _u_i == _POOL:
            _u_pool = rng.random(_POOL).tolist()
            _u_i = 0
        value = _u_pool[_u_i]
        _u_i += 1
        return value

    def _exponential() -> float:
        nonlocal _e_pool, _e_i
        if _e_i == _POOL:
            _e_pool = rng.standard_exponential(_POOL).tolist()
            _e_i = 0
        value = _e_pool[_e_i]
        _e_i += 1
        return value

    planned = [0]

    def plan_op(client: int, not_before: float) -> None:
        """Plan one client operation: its invoke drives the rest."""
        nonlocal sequence
        if planned[0] >= spec.operations:
            return
        planned[0] += 1
        inv = not_before + _exponential() * spec.mean_gap
        heappush(heap, (inv, INVOKE, sequence, {"client": client}))
        sequence += 1

    register = {"value": b""}
    write_sequence = [0]
    # Completed writes whose value was overwritten by a later, real-time
    # ordered, completed write: reading one after quiescence is a guaranteed
    # stale read.  Bounded to a handful — we only need one.
    stale_candidates: List[bytes] = []

    for client in range(spec.clients):
        plan_op(client, 0.0)
    client_counter = [spec.clients]

    op_counter = 0
    completed_writes: Dict[bytes, float] = {}  # value -> responded_at
    last_applied_write: List[Optional[bytes]] = [None]

    sink_invoke = sink.invoke
    sink_respond = sink.respond
    read_fraction = spec.read_fraction
    mean_duration = spec.mean_duration
    incomplete_fraction = spec.incomplete_fraction
    value_size = spec.value_size

    while heap:
        time, phase, _, payload = heappop(heap)
        # pops come out in nondecreasing time order, so the running max is
        # just the last popped time
        stats.end_time = time
        if phase == INVOKE:
            client = payload["client"]
            op_counter += 1
            op_id = f"c{client}#{op_counter}"
            is_read = _uniform() < read_fraction
            duration = _exponential() * mean_duration + 1e-6
            resp = time + duration
            lin = time + _uniform() * duration
            incomplete = _uniform() < incomplete_fraction
            if is_read:
                sink_invoke(op_id, READ, f"c{client}", time)
                stats.reads += 1
                op = {"op_id": op_id, "kind": READ, "inv": time, "resp": resp}
            else:
                value = unique_value(client, write_sequence[0], value_size, rng)
                write_sequence[0] += 1
                sink_invoke(op_id, WRITE, f"c{client}", time, value=value)
                stats.writes += 1
                op = {
                    "op_id": op_id,
                    "kind": WRITE,
                    "inv": time,
                    "resp": resp,
                    "value": value,
                }
            stats.invoked += 1
            heappush(heap, (lin, APPLY, sequence, {"op": op}))
            sequence += 1
            if not incomplete:
                heappush(heap, (resp, RESPOND, sequence, {"op": op}))
                sequence += 1
                plan_op(client, resp)
            else:
                # The crashed client issues nothing more (well-formedness);
                # marking the abandoned operation failed at its crash time
                # lets windowed sinks retire the record, and a fresh client
                # takes its place to keep the concurrency level.
                heappush(heap, (resp, FAIL, sequence, {"op": op}))
                sequence += 1
                replacement = client_counter[0]
                client_counter[0] += 1
                plan_op(replacement, time + _exponential() * mean_duration)
        elif phase == APPLY:
            op = payload["op"]
            if op["kind"] == WRITE:
                previous = last_applied_write[0]
                if (
                    previous is not None
                    and previous in completed_writes
                    and completed_writes[previous] < op["inv"]
                ):
                    # ``previous``'s write completed before this write was
                    # even invoked, and this write overwrote it.
                    op["overwrote"] = previous
                register["value"] = op["value"]
                last_applied_write[0] = op["value"]
            else:
                op["result"] = register["value"]
        elif phase == FAIL:
            sink.mark_failed(payload["op"]["op_id"])
        else:  # RESPOND
            op = payload["op"]
            if op["kind"] == WRITE:
                sink_respond(op["op_id"], op["resp"])
                completed_writes[op["value"]] = op["resp"]
                if len(completed_writes) > 64:
                    completed_writes.pop(next(iter(completed_writes)))
                overwrote = op.get("overwrote")
                if overwrote is not None:
                    stale_candidates.append(overwrote)
                    del stale_candidates[:-4]
            else:
                sink_respond(op["op_id"], op["resp"], value=op.get("result", b""))
            stats.completed += 1

    # Seeded violations: one extra read invoked after quiescence.
    if spec.inject is not None:
        inv = stats.end_time + 1.0
        resp = inv + 1.0
        if spec.inject == "phantom":
            sink.invoke("inject#phantom", READ, "c0", inv)
            sink.respond("inject#phantom", resp, value=b"\xffnever-written\xff")
            stats.injected_violation = "phantom"
            stats.invoked += 1
            stats.completed += 1
        else:
            # A value that was overwritten by a later *completed* write whose
            # own write also completed: reading it after quiescence is a
            # guaranteed stale read (both its write and the overwriting write
            # precede the read in real time).
            candidate = next(
                (value for value in stale_candidates if value != register["value"]),
                None,
            )
            if candidate is None:
                raise RuntimeError(
                    "could not inject a stale read: the stream produced no "
                    "completed write overwritten by a later real-time-ordered "
                    "completed write (use more operations or a lower "
                    "read_fraction)"
                )
            sink.invoke("inject#stale", READ, "c0", inv)
            sink.respond("inject#stale", resp, value=candidate)
            stats.injected_violation = "stale"
            stats.invoked += 1
            stats.completed += 1
    return stats
