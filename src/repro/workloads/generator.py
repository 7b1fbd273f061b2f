"""Streamed synthetic register histories, and the unique write values every
workload writes.

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
have seeded violations.  Workloads on a live cluster are
:mod:`repro.workloads.scenarios`.

Write values are generated to be globally unique (they embed the writer id
and a sequence number), which the black-box linearizability checker
requires.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from hashlib import blake2b
from itertools import chain, repeat
from operator import methodcaller
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.consistency.stream import READ, WRITE, HistorySink


def unique_value(writer_index: int, sequence: int, size: int) -> bytes:
    """A write value that is globally unique and has the requested size.

    Uniqueness is carried entirely by the header; the filler only pads the
    value to ``size``, so it is derived by hashing the header rather than
    drawn from a generator — one digest is ~8x cheaper than materialising a
    fresh ndarray of random bytes, which used to dominate streamed ingest.
    """
    header = f"w{writer_index}#{sequence}|".encode()
    fill = size - len(header)
    if fill <= 0:
        return header
    if fill <= 64:
        return header + blake2b(header, digest_size=fill).digest()
    filler = blake2b(header, digest_size=64).digest()
    return header + (filler * (fill // 64 + 1))[:fill]


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

    def __post_init__(self) -> None:
        # The generator's contract: a negative gap overlaps one client's
        # operations, a negative duration responds before it invokes, and
        # without clients nothing is emitted.
        for name, low, high in (
            ("operations", 0, math.inf),
            ("clients", 1, math.inf),
            ("read_fraction", 0, 1),
            ("mean_gap", 0, math.inf),
            ("mean_duration", 0, math.inf),
            ("value_size", 0, math.inf),
            ("incomplete_fraction", 0, 1),
        ):
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(f"StreamSpec.{name}={value!r} is outside [{low}, {high}]")
        if self.inject not in (None, "stale", "phantom"):
            raise ValueError(f"unknown injection mode {self.inject!r}")


@dataclass
class StreamStats:
    """What :func:`stream_operations` emitted."""

    invoked: int = 0
    completed: int = 0
    writes: int = 0
    reads: int = 0
    end_time: float = 0.0
    injected_violation: Optional[str] = None


#: Numbers drawn per pool: scalar Generator draws cost microseconds each,
#: so the stream draws a pool at a time and hands out plain floats.
_POOL = 8192


def _pooled(draw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """``draw(_POOL)``'s numbers one float per ``next``: the first pool is
    drawn now, every later one at the first draw past the end of the last
    (which is freed by then)."""
    pools = chain((draw(_POOL),), map(draw, repeat(_POOL)))
    return chain.from_iterable(map(methodcaller("tolist"), pools))


def stream_operations(spec: StreamSpec, sink: HistorySink) -> StreamStats:
    """Stream a synthetic concurrent register execution into ``sink``.

    The generator maintains one in-flight operation per client and a heap
    of pending events, so resident memory is O(clients) regardless of
    ``spec.operations``.  Every operation takes effect atomically at a
    linearization point sampled inside its interval; reads return the
    register value at that point, which makes the emitted history
    linearizable by construction (the linearization points are a witness).

    Random numbers come from two pools, uniform and exponential, each an
    iterator of plain floats that costs one C-level call per draw.  The
    uniform pool is drawn first, then the exponential one, and each kind's
    next pool is drawn at the first draw past the end of its last, so a
    seed calls the rng in one fixed order.  (Pooling reorders the bit
    stream relative to one-at-a-time draws, so a seed samples a different
    — equally valid — schedule than the revisions before it did.)  An
    operation in flight is one list, ``[op_id, is_write, invoked_at,
    responds_at, value, overwrote]``: a read's value is filled in at its
    linearization point, a write's ``overwrote`` names the completed write
    it linearized over.  Every sink call is positional.
    """
    rng = np.random.default_rng(spec.seed)
    uniform = _pooled(rng.random).__next__
    exponential = _pooled(rng.standard_exponential).__next__

    INVOKE, APPLY, RESPOND, FAIL = 0, 1, 2, 3
    # (time, phase, sequence, client for INVOKE else the operation); the
    # sequence breaks time ties in push order
    heap: List[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    sink_invoke = sink.invoke
    sink_respond = sink.respond
    operations = spec.operations
    read_fraction = spec.read_fraction
    mean_gap = spec.mean_gap
    mean_duration = spec.mean_duration
    incomplete_fraction = spec.incomplete_fraction
    value_size = spec.value_size

    planned = sequence = min(spec.clients, operations)
    for client in range(planned):  # pushed in order: its id is its sequence
        heappush(heap, (exponential() * mean_gap, INVOKE, client, client))
    next_client = spec.clients  # the id a crashed client's replacement takes
    register = b""
    last_applied: Optional[bytes] = None
    # Completed writes whose value was overwritten by a later, real-time
    # ordered, completed write: reading one after quiescence is a guaranteed
    # stale read.  Bounded to a handful — we only need one.
    stale_candidates: List[bytes] = []
    completed_writes: Dict[bytes, float] = {}  # value -> responded_at
    op_counter = reads = writes = completed = 0
    time = 0.0

    while heap:
        time, phase, _, item = heappop(heap)
        if phase == INVOKE:
            client = f"c{item}"
            op_counter += 1
            op_id = f"{client}#{op_counter}"
            is_read = uniform() < read_fraction
            duration = exponential() * mean_duration + 1e-6
            resp = time + duration
            lin = time + uniform() * duration
            incomplete = uniform() < incomplete_fraction
            if is_read:
                sink_invoke(op_id, READ, client, time)
                reads += 1
                op = [op_id, False, time, resp, b"", None]
            else:
                value = unique_value(item, writes, value_size)
                sink_invoke(op_id, WRITE, client, time, value)
                writes += 1
                op = [op_id, True, time, resp, value, None]
            heappush(heap, (lin, APPLY, sequence, op))
            if incomplete:
                # The crashed client issues nothing more (well-formedness);
                # marking the abandoned operation failed at its crash time
                # lets windowed sinks retire the record, and a fresh client
                # takes its place to keep the concurrency level.
                heappush(heap, (resp, FAIL, sequence + 1, op))
                successor = next_client
                next_client += 1
                not_before = time + exponential() * mean_duration
            else:
                heappush(heap, (resp, RESPOND, sequence + 1, op))
                successor = item
                not_before = resp
            sequence += 2
            if planned < operations:
                planned += 1
                inv = not_before + exponential() * mean_gap
                heappush(heap, (inv, INVOKE, sequence, successor))
                sequence += 1
        elif phase == APPLY:
            if item[1]:
                responded = completed_writes.get(last_applied)
                if responded is not None and responded < item[2]:
                    # the overwritten write completed before this one was
                    # even invoked
                    item[5] = last_applied
                register = last_applied = item[4]
            else:
                item[4] = register
        elif phase == RESPOND:
            if item[1]:
                sink_respond(item[0], item[3])
                completed_writes[item[4]] = item[3]
                if len(completed_writes) > 64:
                    del completed_writes[next(iter(completed_writes))]
                if item[5] is not None:
                    stale_candidates.append(item[5])
                    del stale_candidates[:-4]
            else:
                sink_respond(item[0], item[3], item[4])
            completed += 1
        else:  # FAIL
            sink.mark_failed(item[0])
    # pops come out in nondecreasing time order: the last is the latest
    stats = StreamStats(reads + writes, completed, writes, reads, time)

    # Seeded violations: one extra read invoked after quiescence.
    if spec.inject is not None:
        inv = stats.end_time + 1.0
        resp = inv + 1.0
        if spec.inject == "phantom":
            sink.invoke("inject#phantom", READ, "c0", inv)
            sink.respond("inject#phantom", resp, b"\xffnever-written\xff")
        else:
            # A value that was overwritten by a later *completed* write whose
            # own write also completed: reading it after quiescence is a
            # guaranteed stale read (both its write and the overwriting write
            # precede the read in real time).
            candidate = next(
                (value for value in stale_candidates if value != register), None
            )
            if candidate is None:
                raise RuntimeError(
                    "could not inject a stale read: the stream produced no "
                    "completed write overwritten by a later real-time-ordered "
                    "completed write (use more operations or a lower "
                    "read_fraction)"
                )
            sink.invoke("inject#stale", READ, "c0", inv)
            sink.respond("inject#stale", resp, candidate)
        stats.injected_violation = spec.inject
        stats.invoked += 1
        stats.completed += 1
    return stats
