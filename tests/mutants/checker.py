"""Mutants of the incremental atomicity checker's fast paths.

Their kill checks live in ``tests/consistency/test_incremental.py``; the
rows of :data:`mutants.MUTANTS` name them.  The last two guard the large-value
path: both die on 64 KiB values that differ only in the middle.
"""

from dataclasses import replace

from repro.consistency.incremental import (
    _INF,
    _MEMO_MIN_BYTES,
    IncrementalAtomicityChecker,
    _RecentWrites,
    _value_key,
)
from repro.consistency.stream import WRITE


class UnguardedFreshWriteChecker(IncrementalAtomicityChecker):
    """Every write takes the fresh-value fast path, claimed value or not.

    A repeated write value gets a new cluster that silently replaces the
    first one's, so the duplicate goes unflagged.
    """

    def on_invoke(self, record):
        self.ops_seen += 1
        if record.kind != WRITE:
            return
        value = record.value
        key = _value_key(value)
        self._open_write_keys[record.op_id] = (value, key)
        if value is not None and len(value) >= _MEMO_MIN_BYTES:
            self._recent_writes.remember(value, key)
        invoked = record.invoked_at
        self._new_cluster(key, record.op_id, invoked, _INF, invoked, True)


class BlindToResponsesChecker(IncrementalAtomicityChecker):
    """``_update`` skips the crossing test when only ``b`` moved.

    A response that only lowers ``b`` closes a crossing only if some other
    cluster's ``a`` lies after it, which a time-ordered feed never delivers
    (every ``a`` is an invocation already seen) — so this survives every
    stream and replay and dies on an out-of-order direct feed.
    """

    def _update(self, cid, new_inv, new_resp):
        if self._is_closed[cid]:
            self._reopen(cid)
        else:
            del self._frontier[cid]
            self._frontier[cid] = None
        a_grew = new_inv > self._max_inv[cid]
        if a_grew:
            self._max_inv[cid] = new_inv
            self._note_a_growth(cid)
        b_dropped = new_resp is not None and new_resp < self._min_resp[cid]
        if b_dropped:
            self._min_resp[cid] = new_resp
            if self._pos[cid] >= 0:
                self._table_remove(cid)
            self._table_insert(cid)
        if a_grew or not b_dropped:
            self._check_crossings(cid)


class FingerprintTrustingMemo(_RecentWrites):
    """The recent-writes memo answers on a ``(length, head, tail)`` match
    without comparing the values, so a read of a value nobody wrote takes
    the key of a write it merely resembles."""

    def key_of(self, value):
        candidate = self._entries.get((len(value), value[:8], value[-8:]))
        return None if candidate is None else candidate[1]


class PrefixDigestChecker(IncrementalAtomicityChecker):
    """Keys a value by its first ``_MEMO_MIN_BYTES`` only: the tempting way
    to make large values cheap to digest.  Values that differ after their
    first KiB share a key.

    The checker meets a value's bytes only in ``_value_key`` and in the
    memo's ``==``, so feeding it every value cut to that prefix is the same
    checker as one whose ``_value_key`` digests the prefix.
    """

    def on_invoke(self, record):
        super().on_invoke(_prefix(record))

    def on_complete(self, record):
        super().on_complete(_prefix(record))


def _prefix(record):
    if record.value is None or len(record.value) <= _MEMO_MIN_BYTES:
        return record
    return replace(record, value=record.value[:_MEMO_MIN_BYTES])
