"""The operation event stream: records, sinks and the bounded recorder.

Every protocol client records its operations through the narrow
:class:`HistorySink` interface — ``invoke`` / ``respond`` / ``mark_failed``
/ ``get`` — instead of mutating history internals.  Two sinks implement it:

* :class:`~repro.consistency.history.History` — the in-memory append-only
  log used by tests, the WGL checker and the small-scale experiments;
* :class:`StreamingRecorder` — a bounded/windowed recorder for long runs:
  it keeps only the in-flight operations plus a fixed-size window of
  recently retired ones, maintains aggregate counters, and forwards every
  event to subscribed observers (e.g. the incremental atomicity checker in
  :mod:`repro.consistency.incremental`), so a million-operation workload
  can be checked without ever materialising its full history.

Observers implement :class:`StreamObserver`; all callbacks receive the
:class:`OperationRecord` being recorded, *after* the sink has applied the
event to it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

WRITE = "write"
READ = "read"

#: Value bytes a :class:`StreamingRecorder`'s retired window may reference, on
#: top of its record count: in-flight scale, and enough for a full 256-record
#: window of values up to 8 KiB.
RETIRED_BYTE_BUDGET = 2 * 1024 * 1024


@dataclass(slots=True)
class OperationRecord:
    """One client operation in an execution.

    Attributes
    ----------
    op_id:
        Unique identifier, also used to attribute communication cost.
    kind:
        ``"write"`` or ``"read"``.
    client:
        Process id of the invoking client.
    invoked_at / responded_at:
        Simulated times of the invocation and response steps; an operation
        with ``responded_at is None`` is incomplete (its client may have
        crashed, or the execution was truncated).
    value:
        For writes, the value written; for reads, the value returned.
    tag:
        The protocol-level tag associated with the operation (write tag or
        the tag whose elements the read decoded), when available.
    failed:
        True if the client crashed before the operation completed.
    """

    op_id: str
    kind: str
    client: str
    invoked_at: float
    responded_at: Optional[float] = None
    value: Optional[bytes] = None
    tag: Optional[object] = None
    failed: bool = False

    @property
    def is_complete(self) -> bool:
        return self.responded_at is not None

    @property
    def duration(self) -> Optional[float]:
        if self.responded_at is None:
            return None
        return self.responded_at - self.invoked_at


class StreamObserver:
    """Callbacks a sink invokes as operation events are recorded.

    The default implementations are no-ops so observers only override the
    events they care about.
    """

    def on_invoke(self, record: OperationRecord) -> None:  # pragma: no cover
        pass

    def on_complete(self, record: OperationRecord) -> None:  # pragma: no cover
        pass

    def on_failed(self, record: OperationRecord) -> None:  # pragma: no cover
        pass


class HistorySink:
    """The narrow interface protocol clients record operations through.

    The event validation, record bookkeeping and observer dispatch live
    here so every sink records identically.  A sink keeps in ``_records``
    every record it can still find by op id, and may evict from it in
    :meth:`_retire`.
    """

    def __init__(self) -> None:
        self._observers: List[StreamObserver] = []
        self._records: Dict[str, OperationRecord] = {}
        self.invoked_count = 0
        self.completed_count = 0
        self.failed_count = 0

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def subscribe(self, observer: StreamObserver) -> StreamObserver:
        """Register an observer; returns it for chaining."""
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: StreamObserver) -> None:
        """Detach an observer (no-op if it was never subscribed).

        Transient observers — e.g. the :class:`~repro.runtime.driver.Driver`
        behind one ``run_streamed`` / ``run_open_loop`` call —
        detach themselves so repeated runs do not accumulate dead
        observers on a long-lived sink.
        """
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # recording (shared semantics)
    # ------------------------------------------------------------------
    def invoke(
        self, op_id: str, kind: str, client: str, time: float, value: Optional[bytes] = None
    ) -> OperationRecord:
        if kind not in (WRITE, READ):
            raise ValueError(f"unknown operation kind {kind!r}")
        records = self._records
        if op_id in records:
            raise ValueError(f"duplicate operation id {op_id!r}")
        record = records[op_id] = OperationRecord(op_id, kind, client, time, None, value)
        self.invoked_count += 1
        for observer in self._observers:
            observer.on_invoke(record)
        return record

    def respond(
        self,
        op_id: str,
        time: float,
        value: Optional[bytes] = None,
        tag: Optional[object] = None,
    ) -> OperationRecord:
        record = self._records.get(op_id)
        if record is None:
            raise _unknown(op_id)
        if record.responded_at is not None:
            raise ValueError(f"operation {op_id!r} already completed")
        if time < record.invoked_at:
            raise ValueError("response cannot precede invocation")
        record.responded_at = time
        if value is not None:
            record.value = value
        if tag is not None:
            record.tag = tag
        self.completed_count += 1
        for observer in self._observers:
            observer.on_complete(record)
        self._retire(record)
        return record

    def mark_failed(self, op_id: str) -> None:
        record = self.get(op_id)
        if record.failed:
            return  # counted, reported and (if incomplete) retired already
        record.failed = True
        self.failed_count += 1
        for observer in self._observers:
            observer.on_failed(record)
        if not record.is_complete:
            # A failed incomplete operation will never respond (its client
            # crashed), so windowed sinks may retire it now — otherwise
            # abandoned records would accumulate for the whole run.
            self._retire(record)

    def get(self, op_id: str) -> OperationRecord:
        record = self._records.get(op_id)
        if record is None:
            raise _unknown(op_id)
        return record

    def _retire(self, record: OperationRecord) -> None:
        """Called after a record completes or fails; windowed sinks may
        evict here."""


def _unknown(op_id: str) -> ValueError:
    return ValueError(
        f"unknown operation id {op_id!r}: never invoked on this "
        f"recorder, or already evicted from its retirement window"
    )


class StreamingRecorder(HistorySink):
    """A bounded-memory sink for long executions.

    In-flight operations are always resident (clients are well-formed, so
    their number is bounded by the client count); completed operations stay
    resident in a FIFO window of ``window`` records referencing at most
    :data:`RETIRED_BYTE_BUDGET` value bytes (the newest always stays) and are
    then evicted, oldest first.
    Aggregate counters and the peak resident size survive eviction, so a
    workload driver can still report completion ratios, and subscribed
    observers (the incremental checker) see every event exactly once.
    """

    def __init__(self, window: int = 1024) -> None:
        super().__init__()
        if window < 0:
            raise ValueError("window must be non-negative")
        self.window = window
        #: The retired window, a subset of ``_records``, oldest first.
        self._retired: "OrderedDict[str, OperationRecord]" = OrderedDict()
        self.evicted_count = 0
        self._peak_before_eviction = 0
        #: Value bytes the retired window references now, and their peak.
        self.retired_bytes = 0
        self.max_retired_bytes = 0

    @property
    def max_resident(self) -> int:
        """The most records ever resident at once.

        Residency grows only at an invocation and shrinks only by eviction
        in :meth:`_retire`, so its peak is the largest count seen on entry
        to ``_retire`` or now.
        """
        return max(self._peak_before_eviction, len(self._records))

    def _retire(self, record: OperationRecord) -> None:
        records = self._records
        if len(records) > self._peak_before_eviction:
            self._peak_before_eviction = len(records)
        retired = self._retired
        if record.op_id not in retired:
            retired[record.op_id] = record
            value = record.value
            nbytes = self.retired_bytes + (len(value) if value is not None else 0)
        else:
            # A response recorded after mark_failed had retired the record
            # may have replaced its value: weigh the window again.
            nbytes = sum(len(r.value) for r in retired.values() if r.value is not None)
        window = self.window
        while len(retired) > window or (
            nbytes > RETIRED_BYTE_BUDGET and len(retired) > 1
        ):
            op_id, evicted = retired.popitem(last=False)
            del records[op_id]
            if evicted.value is not None:
                nbytes -= len(evicted.value)
            self.evicted_count += 1
        self.retired_bytes = nbytes
        if nbytes > self.max_retired_bytes:
            self.max_retired_bytes = nbytes

    # -- introspection ---------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Number of records currently held in memory."""
        return len(self._records)

    def in_flight(self) -> List[OperationRecord]:
        retired = self._retired
        return [r for op_id, r in self._records.items() if op_id not in retired]

    def __len__(self) -> int:
        return self.invoked_count


class CheckerBatcher(StreamObserver):
    """Forwards every event to ``checker`` as it is recorded.

    Kept only because the frozen ``bench/workloads.py`` subscribes
    ``CheckerBatcher(checker)`` and calls ``flush()``; the next ``benchmark``
    PR can subscribe the checker directly and retire this name.
    """

    def __init__(self, checker) -> None:
        self.checker = checker

    def flush(self) -> None:
        """Nothing is ever parked, so there is nothing to flush."""

    def on_invoke(self, record: OperationRecord) -> None:
        self.checker.on_invoke(record)

    def on_complete(self, record: OperationRecord) -> None:
        self.checker.on_complete(record)

    def on_failed(self, record: OperationRecord) -> None:
        self.checker.on_failed(record)
