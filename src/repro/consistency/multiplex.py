"""Per-object checker multiplexing for multi-register namespaces.

Atomicity is a per-register property: a namespace execution is correct iff
every object's projected history is linearizable on its own.  The
:class:`ObjectCheckerMux` therefore gives each object of a
:class:`~repro.runtime.namespace.MultiRegisterCluster` its own bounded
:class:`~repro.consistency.stream.StreamingRecorder` with its own
:class:`~repro.consistency.incremental.IncrementalAtomicityChecker`
subscribed — operations recorded by object ``j``'s clients flow only
through checker ``j``, so a violation on one object can never mask, nor be
masked by, the traffic of another (the isolation tests inject a violation
on a single object and assert exactly that object's checker flags it).

For epoch-sharded long runs the mux also packages its checkers into
per-object :class:`~repro.consistency.shardmerge.ShardVerdict` exports;
:func:`repro.consistency.shardmerge.merge_namespace_verdicts` then merges
each object's shards independently and aggregates the per-object verdicts
into one namespace verdict.

Worker-process mode
-------------------
With ``workers > 1`` the checkers move out of the simulating process:
each recorder gets a lightweight forwarding observer that buffers events
as plain tuples and ships them over a ``spawn``-safe multiprocessing
queue; worker ``w`` owns the checkers of objects ``j`` with
``j % workers == w`` and consumes their buffers concurrently with the
simulation.  Determinism is by construction: each object's event stream
is chunked at fixed counts (independent of worker count or scheduling)
and consumed by exactly one checker in stream order, so verdicts and
summary exports are byte-identical to the serial path for any worker
count.  :meth:`ObjectCheckerMux.finish` drains the queues and collects
the per-object exports; the verdict accessors then serve them locally.
In serial mode checkers sit behind
:class:`~repro.consistency.stream.CheckerBatcher` shims, so crossing
tests run once per event-loop drain there too.

Spawning children is impossible from a daemonic process (the sweep and
fleet pools' workers are daemonic), so a mux constructed inside one falls
back to serial checking with a :class:`RuntimeWarning` (via
:func:`repro.analysis.pool.resolve_workers`) — same results, by the
construction above, just without the extra processes.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from typing import Dict, List, Optional, Sequence, Tuple

from repro.consistency.incremental import IncrementalAtomicityChecker, Violation
from repro.consistency.shardmerge import ShardVerdict, shard_verdict_from_checker
from repro.consistency.stream import (
    CheckerBatcher,
    HistorySink,
    OperationRecord,
    StreamObserver,
    StreamingRecorder,
)

#: Events buffered per object before a forwarding flush.  Chunk boundaries
#: depend only on the object's own event sequence, which is what makes
#: worker-mode output independent of the worker count.
_FORWARD_CHUNK = 512

_INVOKE = 0
_COMPLETE = 1
_FAILED = 2


class _ForwardingObserver(StreamObserver):
    """Buffers one object's events as tuples and ships them to a worker."""

    __slots__ = ("_queue", "_index", "_buffer")

    def __init__(self, queue, index: int) -> None:
        self._queue = queue
        self._index = index
        self._buffer: list = []

    def on_invoke(self, record: OperationRecord) -> None:
        self._buffer.append(
            (
                _INVOKE,
                record.op_id,
                record.kind,
                record.client,
                record.invoked_at,
                record.value,
            )
        )
        if len(self._buffer) >= _FORWARD_CHUNK:
            self.flush()

    def on_complete(self, record: OperationRecord) -> None:
        self._buffer.append(
            (
                _COMPLETE,
                record.op_id,
                record.kind,
                record.client,
                record.invoked_at,
                record.responded_at,
                record.value,
            )
        )
        if len(self._buffer) >= _FORWARD_CHUNK:
            self.flush()

    def on_failed(self, record: OperationRecord) -> None:
        # Forwarded so the checker drops what it holds for the open write.
        self._buffer.append(
            (_FAILED, record.op_id, record.kind, record.client, record.invoked_at)
        )
        if len(self._buffer) >= _FORWARD_CHUNK:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._queue.put((self._index, self._buffer))
            self._buffer = []


def _checker_worker(
    task_queue,
    result_queue,
    object_indices: Sequence[int],
    checker_kwargs: Dict[str, object],
) -> None:
    """Worker entry (module-level, hence spawn-picklable): consume event
    chunks for the owned objects until the ``None`` sentinel, then export
    each checker's picklable final state."""
    checkers = {
        index: IncrementalAtomicityChecker(**checker_kwargs)
        for index in object_indices
    }
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, events = item
        checker = checkers[index]
        checker.begin_batch()
        for event in events:
            if event[0] == _INVOKE:
                checker.on_invoke(
                    OperationRecord(
                        op_id=event[1],
                        kind=event[2],
                        client=event[3],
                        invoked_at=event[4],
                        value=event[5],
                    )
                )
            elif event[0] == _COMPLETE:
                checker.on_complete(
                    OperationRecord(
                        op_id=event[1],
                        kind=event[2],
                        client=event[3],
                        invoked_at=event[4],
                        responded_at=event[5],
                        value=event[6],
                    )
                )
            else:
                checker.on_failed(
                    OperationRecord(
                        op_id=event[1],
                        kind=event[2],
                        client=event[3],
                        invoked_at=event[4],
                        failed=True,
                    )
                )
        checker.end_batch()
    result_queue.put(
        {
            index: {
                "ops_seen": checker.ops_seen,
                "reads_checked": checker.reads_checked,
                "reopened_clusters": checker.reopened_clusters,
                "violations": tuple(checker.violations),
                "duplicate_claims": tuple(checker.duplicate_write_claims),
                "summaries": tuple(checker.cluster_summaries()),
            }
            for index, checker in checkers.items()
        }
    )


class ObjectCheckerMux:
    """One bounded recorder + online checker per namespace object.

    Use the mux's :meth:`recorder` as the ``recorder_factory`` of a
    :class:`~repro.runtime.namespace.MultiRegisterCluster`::

        mux = ObjectCheckerMux(objects=8, window=256)
        cluster = MultiRegisterCluster("SODA", 6, 2, objects=8,
                                       recorder_factory=mux.recorder)
        ... run ...
        mux.finish()
        assert mux.ok, mux.violations()

    ``workers > 1`` moves the checkers into that many spawned worker
    processes (see the module docstring); :meth:`finish` is then required
    before any verdict accessor.  In serial mode :meth:`finish` is a cheap
    always-safe flush.
    """

    def __init__(
        self,
        objects: int,
        *,
        window: int = 256,
        frontier_limit: int = 256,
        initial_value: bytes = b"",
        unknown_values: str = "flag",
        max_violations: int = 16,
        workers: int = 1,
    ) -> None:
        if objects < 1:
            raise ValueError("need at least one object")
        if workers < 1:
            raise ValueError("need at least one worker")
        checker_kwargs = dict(
            initial_value=initial_value,
            frontier_limit=frontier_limit,
            unknown_values=unknown_values,
            max_violations=max_violations,
        )
        workers = min(workers, objects)
        if workers > 1:
            # Daemonic processes (e.g. sweep-pool or fleet-cell workers)
            # cannot spawn children; the shared pool helper degrades the
            # request to serial checking with a loud warning — results
            # are byte-identical by construction, only slower.  Imported
            # lazily: repro.analysis pulls in this module at package
            # import time.
            from repro.analysis.pool import resolve_workers

            workers = resolve_workers(
                workers, what="ObjectCheckerMux checker workers"
            )
        #: Effective worker count after capping and the daemon fallback.
        self.workers = workers
        self.recorders: List[StreamingRecorder] = [
            StreamingRecorder(window=window) for _ in range(objects)
        ]
        self.checkers: List[IncrementalAtomicityChecker] = []
        self._finished = False
        self._exports: Optional[Dict[int, Dict[str, object]]] = None
        self._violations_cache: Optional[List[Tuple[int, Violation]]] = None
        self._violations_key = -1
        self._flagged_cache: Optional[List[int]] = None
        self._flagged_key = -1

        if workers == 1:
            self._batchers: List[CheckerBatcher] = []
            for recorder in self.recorders:
                checker = IncrementalAtomicityChecker(**checker_kwargs)
                # The batcher stays unbound until the object's
                # RegisterCluster binds it to the shared simulation's
                # micro-task hook (pass-through per-op checking until then).
                self._batchers.append(recorder.subscribe(CheckerBatcher(checker)))
                self.checkers.append(checker)
            self._processes: List[multiprocessing.Process] = []
            self._task_queues: list = []
            self._result_queues: list = []
            self._forwarders: List[_ForwardingObserver] = []
        else:
            context = multiprocessing.get_context("spawn")
            self._batchers = []
            self._task_queues = [context.SimpleQueue() for _ in range(workers)]
            # Plain Queues for results: their timed get() lets finish()
            # notice a dead worker instead of blocking forever.
            self._result_queues = [context.Queue() for _ in range(workers)]
            self._forwarders = []
            for index, recorder in enumerate(self.recorders):
                forwarder = _ForwardingObserver(
                    self._task_queues[index % workers], index
                )
                recorder.subscribe(forwarder)
                self._forwarders.append(forwarder)
            self._processes = []
            for worker in range(workers):
                owned = list(range(worker, objects, workers))
                process = context.Process(
                    target=_checker_worker,
                    args=(
                        self._task_queues[worker],
                        self._result_queues[worker],
                        owned,
                        checker_kwargs,
                    ),
                    daemon=True,
                )
                process.start()
                self._processes.append(process)

    def __len__(self) -> int:
        return len(self.recorders)

    # ------------------------------------------------------------------
    # per-object access
    # ------------------------------------------------------------------
    def recorder(self, index: int) -> HistorySink:
        """Object ``index``'s sink (shaped as a ``recorder_factory``)."""
        return self.recorders[index]

    def checker(self, index: int) -> IncrementalAtomicityChecker:
        if not self.checkers:
            raise RuntimeError(
                "checkers live in worker processes in workers>1 mode; "
                "use shard_verdict()/object_ok() after finish()"
            )
        return self.checkers[index]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Flush all pending checking and (in worker mode) collect the
        per-object exports.  Idempotent; required before verdict accessors
        in worker mode, a cheap no-op-ish flush in serial mode."""
        if self._finished:
            return
        if self.checkers:
            for batcher in self._batchers:
                batcher.flush()
        else:
            for forwarder in self._forwarders:
                forwarder.flush()
            for tasks in self._task_queues:
                tasks.put(None)
            exports: Dict[int, Dict[str, object]] = {}
            for results, process in zip(self._result_queues, self._processes):
                while True:
                    try:
                        exports.update(results.get(timeout=1.0))
                        break
                    except queue_module.Empty:
                        if not process.is_alive():
                            raise RuntimeError(
                                "checker worker died before exporting results"
                            ) from None
            for process in self._processes:
                process.join()
            self._exports = exports
        self._finished = True

    def _export(self, index: int) -> Dict[str, object]:
        if self._exports is None:
            raise RuntimeError(
                "ObjectCheckerMux.finish() must run before reading verdicts "
                "in workers>1 mode"
            )
        return self._exports[index]

    # ------------------------------------------------------------------
    # aggregate verdicts
    # ------------------------------------------------------------------
    def object_ok(self, index: int) -> bool:
        if self.checkers:
            return self.checkers[index].ok
        return not self._export(index)["violations"]

    def object_violations(self, index: int) -> Tuple[Violation, ...]:
        if self.checkers:
            return tuple(self.checkers[index].violations)
        return self._export(index)["violations"]  # type: ignore[return-value]

    @property
    def ok(self) -> bool:
        return all(self.object_ok(index) for index in range(len(self)))

    def violations(self) -> List[Tuple[int, Violation]]:
        """Every online violation, tagged with its object index.

        Cached: longrun drivers poll this per epoch, so rebuilding the
        full list on every access is wasted work on the (overwhelmingly
        common) unchanged-count path.  The cache key is the total
        violation count — violation lists are append-only, so an unchanged
        count means an unchanged list.
        """
        key = self._violation_count()
        if self._violations_cache is None or key != self._violations_key:
            self._violations_cache = [
                (index, violation)
                for index in range(len(self))
                for violation in self.object_violations(index)
            ]
            self._violations_key = key
        return self._violations_cache

    def flagged_objects(self) -> List[int]:
        key = self._violation_count()
        if self._flagged_cache is None or key != self._flagged_key:
            self._flagged_cache = [
                index for index in range(len(self)) if not self.object_ok(index)
            ]
            self._flagged_key = key
        return self._flagged_cache

    def _violation_count(self) -> int:
        if self.checkers:
            return sum(len(checker.violations) for checker in self.checkers)
        # Worker mode: exports are final, any key works after finish().
        self._export(0)
        return 0

    @property
    def max_resident(self) -> int:
        """Peak resident records across the per-object recorders — the
        namespace's bounded-memory gauge."""
        return max(recorder.max_resident for recorder in self.recorders)

    @property
    def evicted_count(self) -> int:
        return sum(recorder.evicted_count for recorder in self.recorders)

    @property
    def ops_seen(self) -> int:
        if self.checkers:
            return sum(checker.ops_seen for checker in self.checkers)
        return sum(
            self._export(index)["ops_seen"] for index in range(len(self))  # type: ignore[misc]
        )

    # ------------------------------------------------------------------
    # shard exports
    # ------------------------------------------------------------------
    def shard_verdict(self, shard_index: int, index: int) -> ShardVerdict:
        """Object ``index``'s contribution (shard ``shard_index``) to a
        sharded namespace check."""
        if self.checkers:
            return shard_verdict_from_checker(shard_index, self.checkers[index])
        export = self._export(index)
        return ShardVerdict(
            index=shard_index,
            ops_seen=export["ops_seen"],  # type: ignore[arg-type]
            reads_checked=export["reads_checked"],  # type: ignore[arg-type]
            summaries=export["summaries"],  # type: ignore[arg-type]
            duplicate_claims=export["duplicate_claims"],  # type: ignore[arg-type]
            violations=export["violations"],  # type: ignore[arg-type]
        )

    def shard_verdicts(self, shard_index: int) -> List[ShardVerdict]:
        """Package every object's checker state as that object's
        contribution (shard ``shard_index``) to a sharded namespace check."""
        return [
            self.shard_verdict(shard_index, index) for index in range(len(self))
        ]


def project_violations(
    violations: Sequence[Tuple[int, Violation]], index: int
) -> List[Violation]:
    """The subset of object-tagged ``violations`` belonging to ``index``."""
    return [violation for obj, violation in violations if obj == index]
