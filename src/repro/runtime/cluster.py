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
from typing import Dict, List, Optional, Sequence, Union

from repro.consistency.history import History, OperationRecord
from repro.consistency.stream import HistorySink
from repro.erasure.batch import CachedDecoder, CachedEncoder
from repro.erasure.mds import CodedElement, MDSCode
from repro.metrics.costs import CommunicationCostTracker, StorageTracker
from repro.runtime.config import RunConfig
from repro.runtime.driver import (
    BUSY_RETRY_DELAY,
    ClosedLoop,
    OpenLoop,
    RunStats,
    run_armed,
)
from repro.sim.failures import CrashSchedule, FailureInjector
from repro.sim.network import DelayModel
from repro.sim.process import Process
from repro.sim.simulation import Simulation


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
                self.sim.schedule(BUSY_RETRY_DELAY, start, label=f"retry {kind}")
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
    # closed- and open-loop runs
    # ------------------------------------------------------------------
    def run_streamed(
        self,
        *,
        operations: int,
        seed: int = 0,
        value_prefix: str = "",
        max_events: Optional[int] = None,
        **knobs,
    ) -> RunStats:
        """Drive ``operations`` client operations through the live cluster
        in a closed loop (:class:`~repro.runtime.driver.ClosedLoop`), with
        memory bounded by the client count: with a bounded
        :class:`~repro.consistency.stream.StreamingRecorder` and the online
        incremental checker, a million-operation run keeps O(clients +
        window) history — the engine behind ``experiment longrun``.
        Writers write unique ``{value_prefix}#{seq}|…`` values
        (:func:`~repro.runtime.driver.value_source`); readers read.

        ``knobs`` are the :class:`~repro.runtime.config.RunConfig` fields
        (``value_size``, ``mean_gap``, ``start_window``, ``warm_batch``),
        validated there.  A fault plan is applied before the run
        (:meth:`apply_fault_plan`).
        """
        return self._drive(
            "streamed", ClosedLoop, operations, seed, value_prefix, max_events, knobs
        )

    def run_open_loop(
        self,
        *,
        operations: int,
        arrival,
        seed: int = 0,
        value_prefix: str = "",
        max_events: Optional[int] = None,
        **knobs,
    ) -> RunStats:
        """Drive ``operations`` arrivals through the cluster open-loop
        (:class:`~repro.runtime.driver.OpenLoop`): ``arrival``, an
        :class:`~repro.workloads.arrivals.ArrivalProcess`, fixes the
        invocation schedule up front, a bounded admission queue absorbs
        saturation under ``policy``, and latency is measured from arrival.

        ``knobs`` are the :class:`~repro.runtime.config.RunConfig` fields
        (``read_fraction``, ``policy``, ``queue_per_server``,
        ``op_timeout``, ``value_size``, ``warm_batch``, ``keep_samples``),
        validated there.
        """
        return self._drive(
            "open-loop", OpenLoop, operations, seed, value_prefix, max_events,
            knobs, arrival=arrival,
        )

    def _drive(
        self, label, policy, operations, seed, value_prefix, max_events, knobs,
        **arrival,
    ) -> RunStats:
        cfg = RunConfig(**knobs)
        driver = policy(
            self, cfg, operations=operations, seed=seed, value_prefix=value_prefix,
            **arrival,
        )
        driver.stats.events = run_armed(
            self.sim, [driver], operations=operations, max_events=max_events,
            label=label,
        )
        return driver.stats

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
        :meth:`~repro.workloads.faults.FaultPlan.apply`, which documents the
        legs — and return the
        :class:`~repro.workloads.faults.AppliedFaultPlan` ground truth.
        """
        # Imported here: only a run with a fault plan loads the legs.
        from repro.workloads.faults import as_fault_plan

        return as_fault_plan(plan).apply(self.sim, [(0, self)], 1, seed)

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
