"""Recording of operation histories during simulated executions.

A :class:`History` is the in-memory :class:`~repro.consistency.stream.HistorySink`:
the full sequence of read/write operations a workload performed against a
cluster, with their invocation and response times, the values
written/returned and (when the protocol exposes them) the tags the
operations were associated with.  Histories are consumed by the
linearizability checkers and by the latency/cost analyses.

For executions too long to materialise, use
:class:`~repro.consistency.stream.StreamingRecorder` instead; both sinks
record through the same narrow interface, so protocol clients never need to
know which one is behind them.
"""

from __future__ import annotations

from typing import List

from repro.consistency.stream import (
    READ,
    WRITE,
    HistorySink,
    OperationRecord,
)

__all__ = ["READ", "WRITE", "History", "OperationRecord"]


class History(HistorySink):
    """An append-only log of operations (the keep-everything sink)."""

    # ------------------------------------------------------------------
    # recording extras
    # ------------------------------------------------------------------
    def record(self, record: OperationRecord) -> OperationRecord:
        """Append a pre-built record (e.g. replayed off another sink).

        Unlike :meth:`invoke` + :meth:`respond` this does not dispatch
        observer events; it is a bulk-load path for copies and replays.
        """
        if record.kind not in (WRITE, READ):
            raise ValueError(f"unknown operation kind {record.kind!r}")
        if record.op_id in self._records:
            raise ValueError(f"duplicate operation id {record.op_id!r}")
        self._records[record.op_id] = record
        self.invoked_count += 1
        if record.is_complete:
            self.completed_count += 1
        if record.failed:
            self.failed_count += 1
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self.operations())

    def operations(self) -> List[OperationRecord]:
        """All operations in invocation order."""
        return list(self._records.values())

    def complete_operations(self) -> List[OperationRecord]:
        return [op for op in self.operations() if op.is_complete]

    def incomplete_operations(self) -> List[OperationRecord]:
        return [op for op in self.operations() if not op.is_complete]

    def writes(self) -> List[OperationRecord]:
        return [op for op in self.operations() if op.kind == WRITE]

    def reads(self) -> List[OperationRecord]:
        return [op for op in self.operations() if op.kind == READ]
