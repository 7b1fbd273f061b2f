"""Tag-based atomicity check (Lemma 2.1 of the paper), one pass over the stream.

The paper proves SODA atomic through a partial order on completed operations:
``pi < phi`` iff ``tag(pi) < tag(phi)``, or the tags are equal and ``pi`` is
a write and ``phi`` a read -- the order of the key ``(tag, is_read)``.
:class:`LemmaObserver` checks the properties of Lemma 2.1 as operations
complete, with no loop over pairs of operations:

* **P1** (the order respects real time): it keeps the greatest key completed
  and records it at each invocation; an operation completing below the key
  recorded at its invocation is ordered before one that preceded it.
* **P2** (writes are ordered against every operation): only two writes with
  one tag are incomparable, so P2 fails exactly when a completed write
  carries the tag of an earlier completed write.
* **P3** (a read returns its write's value): a read is compared with the
  first completed write of its tag, or with the initial value when it
  carries the initial tag.  A read waits for a write not yet completed, and
  :meth:`LemmaObserver.finish` reports every read still waiting.

Each operation costs two callbacks and O(1) dict work; the observer holds
the first completed write of each tag and a snapshot per operation in
flight.  :func:`check_lemma_properties` replays a history in the order of
:func:`~repro.consistency.incremental.replay_operations`: invocations first
on ties, so an operation responding at the instant another is invoked does
not precede it (real-time precedence is a strict ``<``).  A live sink may
deliver that tie the other way round; P1 then snapshots the greatest key
completed before the instant, so both orders give the same verdicts.

Only on histories that fail the lemma does this differ from a check over
pairs: one violation per offending operation, not per pair, and under a P2
violation P3 compares a read with the *first* completed write of its tag.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.consistency.history import READ, History
from repro.consistency.incremental import Violation, replay_operations
from repro.consistency.stream import OperationRecord, StreamObserver


class LemmaObserver(StreamObserver):
    """Checks P1-P3 as a sink records operations; reads carrying
    ``initial_tag`` (``t0`` in the paper) must return ``initial_value``."""

    def __init__(self, *, initial_tag: Optional[object] = None, initial_value=b""):
        self.initial_tag = initial_tag
        self.initial_value = initial_value
        self.violations: List[Violation] = []
        # P1: the greatest (key, record) completed, the greatest completed
        # before the latest response instant ``_now``, and each in-flight
        # operation's snapshot.  P2/P3: the first completed write of each
        # tag, and the reads waiting for their tag's write.
        self._max = self._settled = None
        self._now = -math.inf
        self._snapshots: Dict[str, object] = {}
        self._writes: Dict[object, OperationRecord] = {}
        self._waiting: Dict[object, List[OperationRecord]] = {}

    def on_invoke(self, record: OperationRecord) -> None:
        later = record.invoked_at > self._now
        self._snapshots[record.op_id] = self._max if later else self._settled

    def on_complete(self, record: OperationRecord) -> None:
        op_id, tag = record.op_id, record.tag
        if tag is None:
            raise ValueError(f"{op_id} has no tag to check against Lemma 2.1")
        key = (tag, record.kind == READ)
        held = self._snapshots.pop(op_id, None)
        if held is not None and key < held[0]:
            a = held[1].op_id
            self._flag("P1", f"{op_id} is ordered before {a} by tags although {a} "
                       f"completed before {op_id} was invoked (tags {tag} vs "
                       f"{held[1].tag})", a, op_id)
        if record.responded_at > self._now:
            self._settled, self._now = self._max, record.responded_at
        if self._max is None or key > self._max[0]:
            self._max = (key, record)
        if record.kind != READ:
            if tag in self._writes:
                first = self._writes[tag].op_id
                self._flag("P2", f"writes {first} and {op_id} share tag {tag}",
                           first, op_id)
                return
            self._writes[tag] = record
            for read in self._waiting.pop(tag, ()):
                self._check_read(read, record)
        elif self.initial_tag is not None and tag == self.initial_tag:
            if record.value != self.initial_value:
                self._flag("P3", f"read {op_id} carries the initial tag but returned "
                           f"{record.value!r} instead of the initial value", op_id)
        elif tag in self._writes:
            self._check_read(record, self._writes[tag])
        else:
            self._waiting.setdefault(tag, []).append(record)

    def finish(self) -> List[Violation]:
        """Flag the reads whose write never completed; return every violation."""
        for tag, reads in self._waiting.items():
            for read in reads:
                self._flag("P3", f"read {read.op_id} returned tag {tag} that no "
                           f"completed write produced", read.op_id)
        self._waiting.clear()
        return self.violations

    def _check_read(self, read: OperationRecord, writer: OperationRecord) -> None:
        if read.value != writer.value:
            self._flag("P3", f"read {read.op_id} returned {read.value!r} but the "
                       f"write with tag {read.tag} ({writer.op_id}) wrote "
                       f"{writer.value!r}", read.op_id, writer.op_id)

    def _flag(self, kind: str, description: str, *op_ids: str) -> None:
        self.violations.append(Violation(kind, description, op_ids))


def check_lemma_properties(
    history: History, *, initial_tag: Optional[object] = None, initial_value=b""
) -> List[Violation]:
    """Replay ``history``'s completed operations through a :class:`LemmaObserver`.

    Incomplete operations are ignored (the lemma quantifies over executions
    in which every operation completes).  Each violation's ``kind`` is
    ``"P1"``, ``"P2"`` or ``"P3"``; none means the execution is atomic per
    the lemma.  A completed operation without a tag is a ``ValueError``.
    """
    observer = LemmaObserver(initial_tag=initial_tag, initial_value=initial_value)
    replay_operations(observer, history.complete_operations())
    return observer.finish()
