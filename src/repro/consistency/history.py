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

import bisect
import math
from typing import Dict, List, Optional, Tuple

from repro.consistency.stream import (
    READ,
    WRITE,
    HistorySink,
    OperationRecord,
)

__all__ = ["READ", "WRITE", "History", "OperationRecord"]


class History(HistorySink):
    """An append-only log of operations (the keep-everything sink)."""

    def __init__(self) -> None:
        super().__init__()
        # Lazily built per-kind interval index for concurrency_degree, valid
        # while the (invoked, completed) counts it was built at still hold.
        self._sweep_cache: Dict[Optional[str], Tuple[List[float], List[float]]] = {}
        self._sweep_stamp = (0, 0)

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

    def _sweep_index(self, kind: Optional[str]) -> Tuple[List[float], List[float]]:
        """Sorted invocation and response times of all ops of ``kind``
        (response ``inf`` for incomplete ops), for interval counting."""
        stamp = (self.invoked_count, self.completed_count)
        if stamp != self._sweep_stamp:
            self._sweep_cache.clear()
            self._sweep_stamp = stamp
        cached = self._sweep_cache.get(kind)
        if cached is None:
            ops = self.operations() if kind is None else [
                op for op in self.operations() if op.kind == kind
            ]
            invocations = sorted(op.invoked_at for op in ops)
            responses = sorted(
                op.responded_at if op.responded_at is not None else math.inf
                for op in ops
            )
            cached = (invocations, responses)
            self._sweep_cache[kind] = cached
        return cached

    def concurrency_degree(self, op: OperationRecord, kind: Optional[str] = None) -> int:
        """Number of other operations (optionally of a given kind) concurrent
        with ``op`` — used to measure the paper's ``delta_w`` empirically.

        Implemented as an interval sweep over invocation/response times
        sorted once per history (O(log n) per query after an O(n log n)
        index build) instead of the former O(n) scan per query: an
        operation is *not* concurrent with ``op`` exactly when it responded
        strictly before ``op`` was invoked or was invoked strictly after
        ``op`` responded, and those two sets are disjoint.
        """
        invocations, responses = self._sweep_index(kind)
        end = op.responded_at if op.responded_at is not None else math.inf
        total = len(invocations)
        invoked_after = total - bisect.bisect_right(invocations, end)
        responded_before = bisect.bisect_left(responses, op.invoked_at)
        count = total - invoked_after - responded_before
        if kind is None or op.kind == kind:
            count -= 1  # exclude op itself
        return count

    def restricted_to_complete(self) -> "History":
        """A copy containing only the completed operations (the checkers
        operate on complete histories, per Lemma 2.1)."""
        out = History()
        for op in self.complete_operations():
            out.record(
                OperationRecord(
                    op_id=op.op_id,
                    kind=op.kind,
                    client=op.client,
                    invoked_at=op.invoked_at,
                    responded_at=op.responded_at,
                    value=op.value,
                    tag=op.tag,
                    failed=op.failed,
                )
            )
        return out
