"""The one traffic driver under every ``run_*`` entry point.

A bare :class:`~repro.runtime.cluster.RegisterCluster` is the
one-hosted-object case of a
:class:`~repro.runtime.namespace.MultiRegisterCluster`: both put their
register objects on one :class:`~repro.sim.simulation.Simulation` and arm
one :class:`Driver` per object, so the parts of a run that only see *the
simulation and the objects on it* exist once, here:

* :class:`Driver` — one run's operations on one cluster: the outstanding
  operations, the history subscription, the issue of a write or a read,
  the completion fold into one :class:`RunStats` and ``finalize``.  Two
  arrival policies sit on it, :class:`ClosedLoop` and :class:`OpenLoop`;
* :func:`run_armed` — the run loop (event budget, truncation, finalizers);
* :func:`value_source` — the written-value generator of the driver.

The public ``run_*`` methods on the two cluster classes are "arm,
:func:`run_armed`"; a fault plan is applied before them
(:meth:`repro.workloads.faults.FaultPlan.apply`).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
)

import numpy as np

from repro.consistency.stream import StreamObserver
from repro.erasure.batch import pre_encodes
from repro.runtime.config import RunConfig
from repro.sim.simulation import EventBudgetExceeded, Simulation

if TYPE_CHECKING:
    from repro.metrics.latency import LatencyHistogram

#: Delay before a start that found its client busy is tried again (clients
#: are well-formed: one operation at a time).
BUSY_RETRY_DELAY = 0.25


@dataclass
class RunStats:
    """Outcome of one driver run on one register object, either loop.

    ``requested`` operations are ``issued`` (``writes`` + ``reads``) and
    end up ``completed`` or ``failed`` (their client crashed).  The open
    loop admits them first: each of its ``arrived`` arrivals is either
    dispatched or queued (``admitted``), rejected at a full queue
    (``rejected``), or — for a write under ``shed-reads`` — admitted by
    evicting a queued read (the victim counts in ``shed_reads``).  An
    admitted arrival is issued unless its queue wait exceeded the timeout
    (``timed_out``) or the run ended first (``queued_at_end``).  The closed
    loop has no admission: those fields stay zero, ``policy`` empty and the
    latency histograms ``None``.
    """

    requested: int
    policy: str = ""
    queue_capacity: int = 0
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
    #: The run exhausted its event budget: the stats describe a prefix
    #: (:func:`run_armed`), which aggregating consumers must refuse.
    truncated: bool = False
    #: Open loop: completion latency from arrival, per operation kind, and
    #: its raw samples when ``keep_samples`` is set.
    read_latency: Optional[LatencyHistogram] = None
    write_latency: Optional[LatencyHistogram] = None
    samples: Optional[Dict[str, List[float]]] = None

    def latency(self) -> LatencyHistogram:
        """Reads and writes merged into one histogram (a fresh copy)."""
        return self.read_latency.copy().merge(self.write_latency)


class Driver(StreamObserver):
    """One run's operations on one cluster, armed without running it.

    Keeps the operations *this* run issued (the history may also carry
    operations scheduled by others, which must not perturb the stats).
    :meth:`issue` starts a write of the next :func:`value_source` value, or
    a read; each settled operation of the run is folded into :attr:`stats`
    and handed to the policy's :meth:`_settled`.  The caller runs the
    simulation, possibly with other objects' drivers, then calls
    :meth:`finalize` to unsubscribe it.  All randomness comes from
    ``np.random.default_rng(seed)``, drawn by each policy in its own fixed
    order, so a run is reproducible event-for-event.
    """

    def __init__(
        self, cluster, cfg: RunConfig, *, operations: int, seed: int, value_prefix: str
    ) -> None:
        if operations < 0:
            raise ValueError("operations cannot be negative")
        self.cluster = cluster
        self.sim = cluster.sim
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.stats = RunStats(requested=operations)
        self.active = True
        #: op id -> the policy's token for each operation still outstanding.
        self.outstanding: Dict[str, object] = {}
        self.next_value = value_source(cluster, self.rng, cfg, value_prefix)

    def issue(self, client, kind: str, token) -> None:
        """Start a ``kind`` operation on the idle ``client``."""
        stats = self.stats
        if kind == "write":
            op_id = client.start_write(self.next_value())
            stats.writes += 1
        else:
            op_id = client.start_read()
            stats.reads += 1
        self.outstanding[op_id] = token
        stats.issued += 1

    def _settle(self, record) -> None:
        token = self.outstanding.pop(record.op_id, None)
        if token is None:
            return  # not one of this run's operations
        stats = self.stats
        finished_at = (
            record.responded_at if record.responded_at is not None else self.sim.now
        )
        stats.end_time = max(stats.end_time, finished_at)
        if record.failed:
            stats.failed += 1
        else:
            stats.completed += 1
        self._settled(record, token, finished_at)

    # One callback for both: ``record.failed`` tells them apart, and a
    # record that fails after completing has already left ``outstanding``.
    on_complete = on_failed = _settle

    def _settled(self, record, token, finished_at: float) -> None:
        """The policy's step after an operation of the run settled."""
        raise NotImplementedError

    def finalize(self) -> None:
        self.active = False
        self.cluster.history.unsubscribe(self)
        self.stats.end_time = max(self.stats.end_time, self.sim.now)


class ClosedLoop(Driver):
    """The closed loop: one pending invocation per client.

    Each client starts within ``start_window`` and, whenever its operation
    settles, issues its next one after an exponential think time of mean
    ``mean_gap`` — so offered load self-limits.  Writers write, readers
    read.  A start that finds its client busy is tried again
    :data:`BUSY_RETRY_DELAY` later.  The operation budget is consumed by
    whichever clients are alive: a crashed client's slot is handed to the
    next live client round-robin, so the budget drains fully while anyone
    survives, and a fully crashed client set winds the run down (fewer
    issued operations) instead of hanging.
    """

    def __init__(self, cluster, cfg: RunConfig, **run) -> None:
        super().__init__(cluster, cfg, **run)
        self.clients = [cluster.writers[pid] for pid in cluster.writer_ids] + [
            cluster.readers[pid] for pid in cluster.reader_ids
        ]
        cluster.history.subscribe(self)
        window = cfg.start_window
        for client in self.clients[: self.stats.requested]:
            at = float(self.rng.uniform(0.0, window)) if window else 0.0
            start = partial(self._start, client)
            self.sim.schedule(at, start, label="start streamed op")

    def _live_after(self, client):
        """The next non-crashed client after ``client``, round-robin."""
        clients = self.clients
        start = clients.index(client)
        for shift in range(1, len(clients) + 1):
            candidate = clients[(start + shift) % len(clients)]
            if not candidate.is_crashed:
                return candidate
        return None

    def _start(self, client) -> None:
        if not self.active or self.stats.issued >= self.stats.requested:
            return
        if client.is_crashed or client.busy:
            # A crashed client hands its budget slot on instead of
            # abandoning it; a busy one tries again.
            crashed = client.is_crashed
            retry = self._live_after(client) if crashed else client
            if retry is not None:
                self.sim.schedule(
                    BUSY_RETRY_DELAY,
                    partial(self._start, retry),
                    label="reassign streamed op" if crashed else "retry streamed op",
                )
            return
        kind = "write" if str(client.pid) in self.cluster.writers else "read"
        self.issue(client, kind, client)

    def _settled(self, record, client, finished_at: float) -> None:
        if self.stats.issued >= self.stats.requested:
            return
        if client.is_crashed:
            client = self._live_after(client)
            if client is None:
                return
        mean_gap = self.cfg.mean_gap
        gap = float(self.rng.exponential(mean_gap)) if mean_gap else 0.0
        self.sim.schedule(gap, partial(self._start, client), label="next streamed op")


class OpenLoop(Driver):
    """The open loop: an arrival process fixes the invocation schedule up
    front (drawn with the operation kinds before anything else, 8 bytes per
    operation), and the cluster either keeps up or visibly degrades.

    * **Virtual clients.**  Arrivals are multiplexed over the writer and
      reader pools: an idle client is taken from a free list at dispatch
      (lowest-numbered first) and returned on completion; a crashed one
      leaves the rotation for good.
    * **Bounded admission queue.**  An arrival with no idle client of its
      kind waits in a FIFO queue of ``queue_per_server * n`` entries.  A
      full queue applies the policy: ``drop`` rejects the arrival;
      ``shed-reads`` rejects a read, and admits a write by evicting the
      oldest queued read; ``backpressure`` pauses the arrival stream until
      the queue drains below capacity (``stall_time``), and the arrivals
      due meanwhile arrive then.  The event queue stays bounded by
      ``clients + queue capacity + 1`` either way.
    * **Timeout-as-failure.**  With ``op_timeout`` set, a queued arrival
      whose wait exceeds it is expired at dispatch time (``timed_out``),
      never silently retried.
    * **Latency** is measured from *arrival*, queueing included, into one
      mergeable histogram per operation kind.
    """

    def __init__(self, cluster, cfg: RunConfig, *, arrival, **run) -> None:
        from repro.metrics.latency import LatencyHistogram

        super().__init__(cluster, cfg, **run)
        operations = self.stats.requested
        self.arrival_times = arrival.generate(self.rng, operations)
        self.is_read = self.rng.random(operations) < cfg.read_fraction
        stats = self.stats
        stats.policy = cfg.policy
        stats.queue_capacity = cfg.queue_per_server * cluster.n
        stats.read_latency, stats.write_latency = LatencyHistogram(), LatencyHistogram()
        if cfg.keep_samples:
            stats.samples = {"read": [], "write": []}
        # Free lists, reversed so .pop() hands out the lowest-numbered idle
        # client first (deterministic assignment order).
        self.idle = {
            "write": [cluster.writers[pid] for pid in reversed(cluster.writer_ids)],
            "read": [cluster.readers[pid] for pid in reversed(cluster.reader_ids)],
        }
        self.queues: Dict[str, Deque[float]] = {"write": deque(), "read": deque()}
        self.stalled = False
        self.stall_started = 0.0
        cluster.history.subscribe(self)
        self._schedule_next_arrival()

    def _queue_depth(self) -> int:
        return len(self.queues["write"]) + len(self.queues["read"])

    def _dispatch(self, kind: str, arrival_time: float) -> bool:
        """Issue one ``kind`` operation on an idle client, if any."""
        pool = self.idle[kind]
        while pool and pool[-1].is_crashed:
            pool.pop()
        if not pool:
            return False
        self.issue(pool.pop(), kind, (arrival_time, kind))
        return True

    def _schedule_next_arrival(self) -> None:
        index = self.stats.arrived
        if self.stalled or index >= self.stats.requested:
            return
        self.sim.schedule_at(
            max(float(self.arrival_times[index]), self.sim.now),
            self._on_arrival,
            label="open-loop arrival",
        )

    def _on_arrival(self) -> None:
        if not self.active:
            return
        stats, queues = self.stats, self.queues
        capacity = stats.queue_capacity
        index = stats.arrived
        kind = "read" if self.is_read[index] else "write"
        now = self.sim.now
        depth = self._queue_depth()
        if depth >= capacity and self.cfg.policy == "backpressure":
            # Stall the arrival stream: this arrival (and everything
            # behind it) waits until the queue drains below capacity.
            self.stalled = True
            self.stall_started = now
            return
        stats.arrived += 1
        if not queues[kind] and self._dispatch(kind, now):
            stats.admitted += 1
        elif depth < capacity:
            queues[kind].append(now)
            stats.admitted += 1
            stats.max_queue_depth = max(stats.max_queue_depth, depth + 1)
        elif self.cfg.policy == "shed-reads" and kind == "write" and queues["read"]:
            queues["read"].popleft()
            stats.shed_reads += 1
            queues[kind].append(now)
            stats.admitted += 1
        else:
            stats.rejected += 1
        self._schedule_next_arrival()

    def _settled(self, record, token, finished_at: float) -> None:
        arrival_time, kind = token
        stats = self.stats
        if not record.failed:
            latency = finished_at - arrival_time
            hist = stats.write_latency if kind == "write" else stats.read_latency
            hist.record(latency)
            if stats.samples is not None:
                stats.samples[kind].append(latency)
        pool = self.cluster.writers if kind == "write" else self.cluster.readers
        client = pool.get(record.client)
        if client is not None and not client.is_crashed:
            self.idle[kind].append(client)
        # Drain queued arrivals of this kind onto newly idle clients.
        queue = self.queues[kind]
        now, timeout = self.sim.now, self.cfg.op_timeout
        while queue:
            arrival_time = queue[0]
            if timeout is not None and now - arrival_time > timeout:
                queue.popleft()
                stats.timed_out += 1
                continue
            if not self._dispatch(kind, arrival_time):
                break
            queue.popleft()
        if self.stalled and self._queue_depth() < stats.queue_capacity:
            stats.stall_time += now - self.stall_started
            self.stalled = False
            self._schedule_next_arrival()

    def finalize(self) -> None:
        super().finalize()
        if self.stalled:
            self.stats.stall_time += self.sim.now - self.stall_started
            self.stalled = False
        self.stats.queued_at_end = self._queue_depth()


def run_armed(
    sim: Simulation,
    drivers: Sequence[Driver],
    *,
    operations: int,
    max_events: Optional[int],
    label: str,
) -> int:
    """Run ``sim`` to quiescence under the armed ``drivers`` (one per
    hosted object); return the number of events processed.

    ``max_events=None`` takes the default budget, which scales with
    ``operations``.  A run that exhausts its budget is flagged loudly
    instead of masquerading as a completed one: every driver's
    ``stats.truncated`` is set — the stats then describe a *prefix* of the
    requested run — and a ``RuntimeWarning`` names the ``label`` of the
    entry point.  The drivers are finalized either way.
    """
    budget = max_events if max_events is not None else max(
        10_000_000, operations * 2_000
    )
    events_before = sim.events_processed
    try:
        sim.run(max_events=budget)
    except EventBudgetExceeded:
        for driver in drivers:
            driver.stats.truncated = True
        completed = sum(driver.stats.completed for driver in drivers)
        warnings.warn(
            f"{label} run truncated: event budget of {budget} exhausted "
            f"after {completed}/{operations} completed operations",
            RuntimeWarning,
            stacklevel=3,  # past this function and its run_* caller
        )
    finally:
        for driver in drivers:
            driver.finalize()
    return sim.events_processed - events_before


def value_source(
    cluster, rng: np.random.Generator, cfg: RunConfig, value_prefix: str
) -> Callable[[], bytes]:
    """The written values of one driver run, as a ``next_value()`` callable.

    Values are globally unique — ``{value_prefix}#{seq}|`` padded to
    ``cfg.value_size`` with bytes drawn from the driver's ``rng`` — and
    take their place in ``rng``'s stream ``cfg.warm_batch`` at a time (the
    draw order every committed artefact was produced with): the driver's
    later draws come after the whole refill, wherever in between its values
    are asked for.  A refill is drawn by :func:`_refill` from a private
    clone of the bit generator while ``rng`` jumps past it with
    ``PCG64.advance``, so ``rng`` must be PCG64-backed (a ``TypeError``
    otherwise).  Values the cluster pre-encodes
    (:func:`~repro.erasure.batch.pre_encodes`) are drawn a refill at a time
    and warmed into its shared encoder in one batched call; any other value
    is drawn when its writer asks for it.  Both give the same bytes and
    leave ``rng`` in the same state (docs/perf.md, "A value is drawn when
    it is written").
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise TypeError(
            "value_source jumps its generator with PCG64.advance; "
            f"got a {type(bit_generator).__name__} bit generator"
        )
    clone = np.random.PCG64(0)  # set to the driver's state at each refill
    size = cfg.value_size
    eager = pre_encodes(cluster.code, size)
    first = 0
    values: Iterator[bytes] = iter(())

    def next_value() -> bytes:
        nonlocal values, first
        value = next(values, None)
        if value is None:
            headers = [
                f"{value_prefix}#{seq}|".encode()
                for seq in range(first, first + cfg.warm_batch)
            ]
            first += cfg.warm_batch
            values = _refill(bit_generator, clone, headers, size)
            if eager:
                batch = list(values)
                cluster.warm_encode(batch)
                values = iter(batch)
            value = next(values)
        return value

    return next_value


def _refill(
    bit_generator: np.random.PCG64,
    clone: np.random.PCG64,
    headers: List[bytes],
    size: int,
) -> Iterator[bytes]:
    """Move ``bit_generator`` past one refill of values, then yield them.

    Each value is its header padded to ``size`` with the bytes
    ``Generator.bytes`` would return, leaving the state it would leave:
    ``ceil(n / 4)`` words of the uint32 stream — the pending half-word
    (``has_uint32`` / ``uinteger``) first, then each raw 64-bit output low
    half first — little-endian; for ``n >= 1`` also the bytes and state of
    ``rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()``.  A header
    that already fills the value draws nothing.

    At the first ``next`` the body counts the raw outputs the refill takes,
    sets ``clone`` to ``bit_generator``'s state and moves ``bit_generator``
    past them with ``advance(count - 1)`` and one last draw, whose high
    half is the ``uinteger`` ``Generator.bytes`` leaves; the values then
    come from ``clone``'s ``random_raw``, copied once into the value.
    ``tests/runtime/test_driver.py`` pins the bytes and the state.
    """
    state = bit_generator.state
    pending = state["has_uint32"]
    plan = []  # per value: (header, takes the pending half-word, raw outputs)
    count = 0
    for header in headers:
        words = (size - len(header) + 3) // 4 if size > len(header) else 0
        takes = bool(pending and words)
        if takes:
            pending = 0
            words -= 1
        raws = (words + 1) // 2
        if raws:
            # Like ``next_uint32``: the last output's high half stays
            # behind, pending only if it went unused.
            pending = words & 1
            count += raws
        plan.append((header, takes, raws))

    clone.state = state
    word = state["uinteger"]
    if count:
        bit_generator.advance(count - 1)
        last = bit_generator.random_raw() >> 32
        state = bit_generator.state
        state["uinteger"] = last
    state["has_uint32"] = pending
    bit_generator.state = state

    random_raw = clone.random_raw
    for header, takes, raws in plan:
        value = header
        if takes:
            value += word.to_bytes(4, "little")[: size - len(value)]
        if raws:
            raw = random_raw(raws)
            word = int(raw[-1]) >> 32
            value += raw.astype("<u8", copy=False).data.cast("B")[: size - len(value)]
        yield value
