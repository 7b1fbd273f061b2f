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

Each checker is subscribed straight to its recorder, in the simulating
process: an operation is checked by one direct call inside the
``invoke()`` / ``respond()`` that records it, so every accessor below is
current after every record and a violation report depends on the history
alone (docs/perf.md section 4, "Checker call path", has the measurements
that retired the drain batcher and the worker-process mode).

For epoch-sharded long runs the mux also packages its checkers into
per-object :class:`~repro.consistency.shardmerge.ShardVerdict` exports;
:func:`repro.consistency.shardmerge.merge_namespace_verdicts` then merges
each object's shards independently and aggregates the per-object verdicts
into one namespace verdict.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.consistency.incremental import IncrementalAtomicityChecker, Violation
from repro.consistency.shardmerge import ShardVerdict, shard_verdict_from_checker
from repro.consistency.stream import HistorySink, StreamingRecorder


class ObjectCheckerMux:
    """One bounded recorder + online checker per namespace object.

    Use the mux's :meth:`recorder` as the ``recorder_factory`` of a
    :class:`~repro.runtime.namespace.MultiRegisterCluster`::

        mux = ObjectCheckerMux(objects=8, window=256)
        cluster = MultiRegisterCluster("SODA", 6, 2, objects=8,
                                       recorder_factory=mux.recorder)
        ... run ...
        assert mux.ok, mux.violations()
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
    ) -> None:
        if objects < 1:
            raise ValueError("need at least one object")
        self.recorders: List[StreamingRecorder] = [
            StreamingRecorder(window=window) for _ in range(objects)
        ]
        self.checkers: List[IncrementalAtomicityChecker] = [
            recorder.subscribe(
                IncrementalAtomicityChecker(
                    initial_value=initial_value,
                    frontier_limit=frontier_limit,
                    unknown_values=unknown_values,
                    max_violations=max_violations,
                )
            )
            for recorder in self.recorders
        ]

    def __len__(self) -> int:
        return len(self.recorders)

    # ------------------------------------------------------------------
    # per-object access
    # ------------------------------------------------------------------
    def recorder(self, index: int) -> HistorySink:
        """Object ``index``'s sink (shaped as a ``recorder_factory``)."""
        return self.recorders[index]

    def checker(self, index: int) -> IncrementalAtomicityChecker:
        return self.checkers[index]

    # ------------------------------------------------------------------
    # aggregate verdicts
    # ------------------------------------------------------------------
    def object_ok(self, index: int) -> bool:
        return self.checkers[index].ok

    @property
    def ok(self) -> bool:
        return all(checker.ok for checker in self.checkers)

    def violations(self) -> List[Tuple[int, Violation]]:
        """Every online violation, tagged with its object index."""
        return [
            (index, violation)
            for index, checker in enumerate(self.checkers)
            for violation in checker.violations
        ]

    def flagged_objects(self) -> List[int]:
        return [
            index for index, checker in enumerate(self.checkers) if not checker.ok
        ]

    @property
    def max_resident(self) -> int:
        """Peak resident records across the per-object recorders — the
        namespace's bounded-memory gauge."""
        return max(recorder.max_resident for recorder in self.recorders)

    @property
    def max_retired_bytes(self) -> int:
        """Peak value bytes one recorder's retired window referenced."""
        return max(recorder.max_retired_bytes for recorder in self.recorders)

    @property
    def evicted_count(self) -> int:
        return sum(recorder.evicted_count for recorder in self.recorders)

    @property
    def ops_seen(self) -> int:
        return sum(checker.ops_seen for checker in self.checkers)

    # ------------------------------------------------------------------
    # shard exports
    # ------------------------------------------------------------------
    def shard_verdict(self, shard_index: int, index: int) -> ShardVerdict:
        """Object ``index``'s contribution (shard ``shard_index``) to a
        sharded namespace check."""
        return shard_verdict_from_checker(shard_index, self.checkers[index])
