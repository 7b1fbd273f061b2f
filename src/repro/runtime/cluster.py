"""The protocol-independent cluster façade.

Every atomic-register protocol in this repository (SODA, SODAerr, ABD, CAS,
CASGC) is exposed through a subclass of :class:`RegisterCluster`.  The
façade owns:

* the discrete-event :class:`~repro.sim.simulation.Simulation` (seeded, so
  every experiment is reproducible),
* the server, writer and reader processes,
* the :class:`~repro.consistency.history.History` of client operations,
* the communication-cost and storage-cost trackers, and
* failure injection (server/client crash schedules).

Protocol subclasses provide the erasure code and the concrete process
classes; everything else (blocking operations, scheduled concurrent
operations, metrics accessors) is shared, which keeps the comparison
experiments of Table I apples-to-apples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.consistency.history import History, OperationRecord
from repro.consistency.stream import HistorySink, StreamObserver
from repro.erasure.batch import CachedDecoder, CachedEncoder
from repro.erasure.mds import CodedElement, MDSCode
from repro.metrics.costs import CommunicationCostTracker, StorageTracker
from repro.runtime.config import RunConfig
from repro.runtime.driver import apply_fault_plan, run_armed, value_source
from repro.sim.failures import CrashSchedule, FailureInjector
from repro.sim.network import DelayModel
from repro.sim.process import Process
from repro.sim.simulation import Simulation

if TYPE_CHECKING:
    from repro.runtime.openloop import OpenLoopStats


@dataclass
class ScheduledOperation:
    """Handle for an operation scheduled to start at a future simulated time.

    ``op_id`` is filled in when the operation is actually invoked (operation
    identifiers embed per-client sequence numbers, which are only known at
    invocation time)."""

    kind: str
    client: str
    start_time: float
    op_id: Optional[str] = None


@dataclass
class StreamedRunStats:
    """Outcome of one :meth:`RegisterCluster.run_streamed` closed loop."""

    requested: int
    issued: int = 0
    completed: int = 0
    failed: int = 0
    writes: int = 0
    reads: int = 0
    end_time: float = 0.0
    events: int = 0
    #: True when the run exhausted its event budget before quiescence —
    #: the stats describe a *prefix* of the requested run, not the whole
    #: thing.  Consumers that aggregate across runs (``experiment
    #: longrun``) must treat a truncated run as an error, not a result.
    truncated: bool = False


class RegisterCluster(ABC):
    """Base façade for an n-server atomic register emulation."""

    #: Human-readable protocol name, used by the comparison tables.
    protocol_name: str = "abstract"

    #: Whether this protocol's write path reads the shared encoder cache.
    #: Protocols whose writers never consult it (e.g. ABD's full-value
    #: replication) set this False so :meth:`warm_encode` does not spend a
    #: batched encode on values nothing will look up.
    warm_encoding_effective: bool = True

    def __init__(
        self,
        n: int,
        f: int,
        *,
        num_writers: int = 1,
        num_readers: int = 1,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        initial_value: bytes = b"",
        keep_message_trace: bool = False,
        recorder: Optional[HistorySink] = None,
        sim: Optional[Simulation] = None,
        namespace: str = "",
        costs: Optional[CommunicationCostTracker] = None,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one server")
        if f < 0:
            raise ValueError("f cannot be negative")
        if num_writers < 1 or num_readers < 1:
            raise ValueError("need at least one writer and one reader")
        self.n = n
        self.f = f
        self.num_writers = num_writers
        self.num_readers = num_readers
        self.initial_value = initial_value
        #: Pid prefix isolating this register's processes inside a shared
        #: simulation.  The multi-object namespace layer
        #: (:class:`repro.runtime.namespace.MultiRegisterCluster`) gives each
        #: register object a distinct prefix (``"o3/"``), so N independent
        #: protocol instances can interleave on one event queue and clock.
        self.namespace = namespace
        self._validate_parameters()

        if sim is not None:
            # Shared-simulation mode: the namespace layer owns the clock,
            # the event queue and the delay model; seed/delay_model/
            # keep_message_trace are the owner's to choose.
            self.sim = sim
        else:
            self.sim = Simulation(
                seed=seed,
                delay_model=delay_model,
                keep_message_trace=keep_message_trace,
            )
        # Clients record operations through the narrow HistorySink interface;
        # the default sink is the keep-everything History, but long workloads
        # can pass a bounded StreamingRecorder (with, e.g., the incremental
        # atomicity checker subscribed) instead.
        self.history: HistorySink = recorder if recorder is not None else History()
        # One network send-listener per tracker: clusters sharing a
        # simulation must also share one tracker, or each would shadow-count
        # every other object's traffic.
        self.costs = (
            costs
            if costs is not None
            else CommunicationCostTracker().attach(self.sim.network)
        )
        self.storage = StorageTracker()
        self.failures = FailureInjector(self.sim)

        self.code: MDSCode = self._build_code()
        # Cluster-shared memoizing encoder: dispersal-set servers encode the
        # same value for the same write, and workload drivers can pre-encode
        # whole batches through it (see warm_encode).
        self.encoder = CachedEncoder(self.code)
        # Cluster-shared memoizing decoder: concurrent reads of one version
        # decode the same (tag, element-set), so all but the first are hits.
        self.decoder = self._build_decoder()
        self.initial_elements: List[CodedElement] = self.encoder.encode(initial_value)

        self.server_ids = [f"{namespace}s{i}" for i in range(n)]
        self.writer_ids = [f"{namespace}w{i}" for i in range(num_writers)]
        self.reader_ids = [f"{namespace}r{i}" for i in range(num_readers)]

        self.servers: List[Process] = []
        for i, pid in enumerate(self.server_ids):
            server = self._make_server(i, pid)
            self.sim.add_process(server)
            self.servers.append(server)
        self.writers: Dict[str, Process] = {}
        for pid in self.writer_ids:
            writer = self._make_writer(pid)
            self.sim.add_process(writer)
            self.writers[pid] = writer
        self.readers: Dict[str, Process] = {}
        for pid in self.reader_ids:
            reader = self._make_reader(pid)
            self.sim.add_process(reader)
            self.readers[pid] = reader

    # ------------------------------------------------------------------
    # protocol-specific construction
    # ------------------------------------------------------------------
    def _validate_parameters(self) -> None:
        """Subclasses refine this to enforce their own (n, f) constraints."""
        if self.f > (self.n - 1) // 2:
            raise ValueError(
                f"{type(self).__name__} requires f <= (n-1)/2, got n={self.n}, f={self.f}"
            )

    @abstractmethod
    def _build_code(self) -> MDSCode:
        """The erasure code the protocol stores data with."""

    def _build_decoder(self) -> Optional[CachedDecoder]:
        """The memoizing decoder shared by this cluster's readers.

        ``None`` is for protocols whose reads never invoke the code's
        decoder (ABD's full-value replication).  SODAerr overrides it to
        memoize the errors-and-erasures decode per (tag, element-set).
        """
        return CachedDecoder(self.code)

    @abstractmethod
    def _make_server(self, index: int, pid: str) -> Process:
        """Instantiate server ``index``."""

    @abstractmethod
    def _make_writer(self, pid: str) -> Process:
        """Instantiate a writer client."""

    @abstractmethod
    def _make_reader(self, pid: str) -> Process:
        """Instantiate a reader client."""

    # ------------------------------------------------------------------
    # process lookup helpers
    # ------------------------------------------------------------------
    def writer(self, which: Union[int, str] = 0) -> Process:
        pid = which if isinstance(which, str) else self.writer_ids[which]
        return self.writers[pid]

    def reader(self, which: Union[int, str] = 0) -> Process:
        pid = which if isinstance(which, str) else self.reader_ids[which]
        return self.readers[pid]

    def server(self, which: Union[int, str]) -> Process:
        pid = which if isinstance(which, str) else self.server_ids[which]
        return self.sim.get_process(pid)

    # ------------------------------------------------------------------
    # blocking operations (run the simulation until the operation completes)
    # ------------------------------------------------------------------
    def write(
        self, value: bytes, writer: Union[int, str] = 0, *, max_events: int = 2_000_000
    ) -> OperationRecord:
        """Perform a write and run the simulation until it completes."""
        op_id = self.writer(writer).start_write(value)
        return self.run_until_complete(op_id, max_events=max_events)

    def read(
        self, reader: Union[int, str] = 0, *, max_events: int = 2_000_000
    ) -> OperationRecord:
        """Perform a read and run the simulation until it completes."""
        op_id = self.reader(reader).start_read()
        return self.run_until_complete(op_id, max_events=max_events)

    def run_until_complete(
        self, op_id: str, *, max_events: int = 2_000_000
    ) -> OperationRecord:
        # Hold the record itself rather than re-fetching by id each check:
        # respond() mutates records in place, so this stays correct even
        # when a windowed sink evicts the completed record immediately
        # (e.g. a StreamingRecorder with a tiny window).
        record = self.history.get(op_id)
        self.sim.run_until(lambda: record.is_complete, max_events=max_events)
        return record

    # ------------------------------------------------------------------
    # scheduled (concurrent) operations
    # ------------------------------------------------------------------
    #: Delay between retries when a scheduled operation finds its client busy
    #: (clients are well-formed: one operation at a time).
    _busy_retry_delay = 0.25

    def schedule_write(
        self, at_time: float, value: bytes, writer: Union[int, str] = 0
    ) -> ScheduledOperation:
        """Schedule a write invocation at an absolute simulated time.

        If the chosen writer still has an operation in flight at that time,
        the invocation is retried shortly afterwards (clients issue one
        operation at a time, per the paper's well-formedness assumption).
        """
        client = self.writer(writer)
        return self._schedule(at_time, "write", client, lambda: client.start_write(value))

    def schedule_read(
        self, at_time: float, reader: Union[int, str] = 0
    ) -> ScheduledOperation:
        """Schedule a read invocation at an absolute simulated time.

        Retries while the chosen reader is busy, like :meth:`schedule_write`.
        """
        client = self.reader(reader)
        return self._schedule(at_time, "read", client, client.start_read)

    def _schedule(self, at_time, kind, client, begin) -> ScheduledOperation:
        handle = ScheduledOperation(kind, str(client.pid), at_time)

        def start() -> None:
            if client.is_crashed:
                return
            if client.busy:
                self.sim.schedule(self._busy_retry_delay, start, label=f"retry {kind}")
                return
            handle.op_id = begin()

        self.sim.schedule_at(at_time, start, label=f"start {kind} @{client.pid}")
        return handle

    def run(self, *, max_events: int = 10_000_000, max_time: float = float("inf")) -> None:
        """Run the simulation to quiescence (all pending events processed)."""
        self.sim.run(max_events=max_events, max_time=max_time)

    def warm_encode(self, values: Sequence[bytes]) -> int:
        """Pre-encode a batch of values into the shared encoder cache.

        One :meth:`MDSCode.encode_many` call covers the batch — the values
        of it small enough to share a kernel call, as many as the cache's
        entry and byte bounds can hold, see
        :meth:`~repro.erasure.batch.CachedEncoder.warm` — so their
        per-write encodes during the simulation become cache hits.  No-op
        for protocols that never read the shared cache (see
        :attr:`warm_encoding_effective`).  Returns the number of values
        newly encoded.
        """
        if not self.warm_encoding_effective:
            return 0
        return self.encoder.warm(values)

    # ------------------------------------------------------------------
    # closed-loop streaming runs
    # ------------------------------------------------------------------
    def run_streamed(
        self,
        *,
        operations: int,
        seed: int = 0,
        value_prefix: str = "",
        max_events: Optional[int] = None,
        faults=None,
        **knobs,
    ) -> StreamedRunStats:
        """Drive ``operations`` client operations through the live cluster
        in a closed loop, with memory bounded by the client count.

        Unlike :func:`repro.workloads.scenarios.run_workload`, which
        schedules every operation (and pre-generates every value) up
        front, this driver keeps exactly one pending invocation per
        client: whenever a client's operation completes (or its client
        crashes), the next operation for that client is scheduled after an
        exponential think time.  Combined with a bounded
        :class:`~repro.consistency.stream.StreamingRecorder` sink and the
        online incremental checker, a million-operation *real cluster
        simulation* runs in O(clients + window) resident history — the
        engine behind ``experiment longrun`` (:mod:`repro.analysis.engine`).

        Writers issue globally unique values ``{value_prefix}#{seq}|…``
        padded to ``value_size`` with seeded random bytes
        (:func:`~repro.runtime.driver.value_source`): small values are
        drawn ``warm_batch`` at a time and pre-encoded into the shared
        encoder cache (one batched encode each refill); larger ones are
        drawn when their writer asks for them, so none waits in memory for
        its write.  Either way the driver's rng stream is the same.
        Readers issue reads.
        The operation budget is consumed by whichever clients are alive: a
        crashed client's slot is handed to the next live client
        round-robin, so the budget drains fully while anyone survives, and
        a fully crashed client set winds the run down (fewer issued
        operations) instead of hanging.  All randomness derives from
        ``seed``, making the run reproducible event-for-event.

        ``knobs`` are the :class:`~repro.runtime.config.RunConfig` fields
        (``value_size``, ``mean_gap``, ``start_window``, ``warm_batch``),
        validated there.  ``faults`` accepts a
        :class:`~repro.workloads.faults.FaultPlan` (or its spec string) and
        applies it before the run via :meth:`apply_fault_plan`.
        """
        cfg = RunConfig(**knobs)
        if faults is not None:
            self.apply_fault_plan(faults, seed=seed)
        stats, finalize = self._begin_streamed(
            cfg, operations=operations, seed=seed, value_prefix=value_prefix
        )
        stats.events = run_armed(
            self.sim,
            [(stats, finalize)],
            operations=operations,
            max_events=max_events,
            label="streamed",
        )
        return stats

    def _begin_streamed(
        self, cfg: RunConfig, *, operations: int, seed: int, value_prefix: str
    ):
        """Arm one closed-loop streamed run without running the simulation.

        Schedules the initial per-client invocations and subscribes the
        closed-loop driver, then returns ``(stats, finalize)``: the caller
        runs the simulation (possibly alongside other clusters sharing it —
        the multi-object namespace layer arms one driver per register
        object) and calls ``finalize()`` afterwards to detach the driver
        and seal ``stats.end_time``.  ``cfg`` is the validated knob record
        of the public call.
        """
        if operations < 0:
            raise ValueError("operations cannot be negative")
        rng = np.random.default_rng(seed)
        stats = StreamedRunStats(requested=operations)

        clients: List[Process] = [
            *(self.writers[pid] for pid in self.writer_ids),
            *(self.readers[pid] for pid in self.reader_ids),
        ]
        by_pid = {str(client.pid): client for client in clients}
        index_of = {str(client.pid): i for i, client in enumerate(clients)}
        state = {"remaining": operations, "active": True}
        next_value = value_source(self, rng, cfg, value_prefix)
        # Operations issued by THIS run and still outstanding: the sink may
        # also carry completions of externally scheduled operations, which
        # must not perturb the stats or trigger extra closed-loop issues.
        outstanding: set = set()

        def live_replacement(after: Process) -> Optional[Process]:
            """The next non-crashed client after ``after``, round-robin."""
            start = index_of[str(after.pid)]
            for shift in range(1, len(clients) + 1):
                candidate = clients[(start + shift) % len(clients)]
                if not candidate.is_crashed:
                    return candidate
            return None

        def issue(client: Process) -> None:
            if not state["active"] or state["remaining"] <= 0:
                return
            if client.is_crashed:
                # Hand the budget slot to a surviving client instead of
                # abandoning it — the budget is consumed by whichever
                # clients are alive; only a fully crashed client set
                # leaves it unconsumed.
                replacement = live_replacement(client)
                if replacement is not None:
                    self.sim.schedule(
                        self._busy_retry_delay,
                        lambda: issue(replacement),
                        label="reassign streamed op",
                    )
                return
            if client.busy:
                self.sim.schedule(
                    self._busy_retry_delay,
                    lambda: issue(client),
                    label="retry streamed op",
                )
                return
            state["remaining"] -= 1
            if str(client.pid) in self.writers:
                op_id = client.start_write(next_value())
                stats.writes += 1
            else:
                op_id = client.start_read()
                stats.reads += 1
            outstanding.add(op_id)
            stats.issued += 1

        cluster = self

        class _ClosedLoopDriver(StreamObserver):
            def _advance(self, record: OperationRecord, failed: bool) -> None:
                if not state["active"]:
                    return
                if record.op_id not in outstanding:
                    return  # not one of this run's operations
                outstanding.discard(record.op_id)
                if failed:
                    stats.failed += 1
                else:
                    stats.completed += 1
                finished_at = (
                    record.responded_at
                    if record.responded_at is not None
                    else cluster.sim.now
                )
                stats.end_time = max(stats.end_time, finished_at)
                client = by_pid.get(record.client)
                if client is None or state["remaining"] <= 0:
                    return
                if client.is_crashed:
                    client = live_replacement(client)
                    if client is None:
                        return
                gap = float(rng.exponential(cfg.mean_gap)) if cfg.mean_gap else 0.0
                next_client = client
                cluster.sim.schedule(
                    gap, lambda: issue(next_client), label="next streamed op"
                )

            def on_complete(self, record: OperationRecord) -> None:
                self._advance(record, failed=False)

            def on_failed(self, record: OperationRecord) -> None:
                self._advance(record, failed=True)

        driver = self.history.subscribe(_ClosedLoopDriver())
        for index, client in enumerate(clients):
            if index >= operations:
                break
            at = float(rng.uniform(0.0, cfg.start_window)) if cfg.start_window else 0.0
            self.sim.schedule(
                at, (lambda c: lambda: issue(c))(client), label="start streamed op"
            )

        def finalize() -> None:
            state["active"] = False
            self.history.unsubscribe(driver)
            stats.end_time = max(stats.end_time, self.sim.now)

        return stats, finalize

    # ------------------------------------------------------------------
    # open-loop runs
    # ------------------------------------------------------------------
    def run_open_loop(
        self,
        *,
        operations: int,
        arrival,
        seed: int = 0,
        value_prefix: str = "",
        max_events: Optional[int] = None,
        faults=None,
        **knobs,
    ) -> OpenLoopStats:
        """Drive ``operations`` arrivals through the cluster open-loop.

        ``arrival`` is an :class:`~repro.workloads.arrivals.ArrivalProcess`
        fixing the invocation schedule up front — load does not self-limit
        the way the closed loop does.  Saturation is absorbed by a bounded
        admission queue (``queue_per_server * n`` entries) under the
        configured overflow ``policy`` (``drop`` / ``shed-reads`` /
        ``backpressure``) with ``op_timeout`` queue waits counted as
        failures; completion latency is measured from arrival (queueing
        included) into mergeable per-kind latency histograms.  See
        :mod:`repro.runtime.openloop` for the full mechanics.

        ``knobs`` are the :class:`~repro.runtime.config.RunConfig` fields
        (``read_fraction``, ``policy``, ``queue_per_server``,
        ``op_timeout``, ``value_size``, ``warm_batch``, ``keep_samples``),
        validated there.  ``faults`` accepts a
        :class:`~repro.workloads.faults.FaultPlan` (or its spec string) and
        applies it before the run via :meth:`apply_fault_plan`.
        """
        from repro.runtime.openloop import begin_open_loop

        cfg = RunConfig(**knobs)
        if faults is not None:
            self.apply_fault_plan(faults, seed=seed)
        stats, finalize = begin_open_loop(
            self,
            cfg,
            operations=operations,
            arrival=arrival,
            seed=seed,
            value_prefix=value_prefix,
        )
        stats.events = run_armed(
            self.sim,
            [(stats, finalize)],
            operations=operations,
            max_events=max_events,
            label="open-loop",
        )
        return stats

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash_server(self, which: Union[int, str], at_time: float) -> None:
        pid = which if isinstance(which, str) else self.server_ids[which]
        self.failures.crash_at(pid, at_time)

    def apply_crash_schedule(self, schedule: CrashSchedule) -> None:
        """Arm ``schedule``, refusing to go past ``f`` server crashes.

        The budget is the cluster's, not the call's: servers whose crash
        is already armed count against it together with the new victims.
        """
        victims = {e.pid for e in (*self.failures.injected, *schedule)}
        if len(victims.intersection(self.server_ids)) > self.f:
            raise ValueError(
                f"crash schedule kills more than f={self.f} servers; the "
                f"protocol's guarantees would not apply"
            )
        self.failures.apply(schedule)

    def apply_fault_plan(self, plan, *, seed: int = 0):
        """Materialise a :class:`~repro.workloads.faults.FaultPlan` (or its
        spec string) on this register — the one-hosted-object case of
        :func:`repro.runtime.driver.apply_fault_plan`, which documents the
        legs.  Returns (and keeps as ``applied_faults``) the
        :class:`~repro.workloads.faults.AppliedFaultPlan` ground truth.
        """
        self.applied_faults = apply_fault_plan(self.sim, [(0, self)], 1, plan, seed)
        return self.applied_faults

    # ------------------------------------------------------------------
    # metrics accessors
    # ------------------------------------------------------------------
    def operation_cost(self, op_id: str) -> float:
        """Communication cost (in value units) attributed to an operation."""
        return self.costs.cost_of(op_id)

    def storage_peak(self) -> float:
        """Worst-case total storage cost observed so far (in value units)."""
        return self.storage.peak()

    def codec_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the codec front, flattened.

        Keys are ``encoder_*``/``decoder_*`` (hits, misses, entries, bytes);
        a decoder the protocol does not have (ABD) is simply absent.
        """
        stats: Dict[str, int] = {}
        for prefix, component in (("encoder", self.encoder), ("decoder", self.decoder)):
            if component is not None:
                for key, count in component.stats().items():
                    stats[f"{prefix}_{key}"] = count
        return stats

    def full_history(self) -> History:
        """The in-memory history, for analyses that need every operation.

        Raises a descriptive error when the cluster records through a
        bounded streaming sink (whole-history analyses are exactly what
        streaming mode trades away; use stream observers instead).
        """
        if not isinstance(self.history, History):
            raise TypeError(
                f"{type(self).__name__} records through a "
                f"{type(self.history).__name__}; whole-history analyses need "
                f"the in-memory History sink (the default) — subscribe a "
                f"stream observer for bounded-memory runs instead"
            )
        return self.history
