"""Mutants of the incremental atomicity checker's fast paths.

Their kill checks live in ``tests/consistency/test_incremental.py``; the
rows of :data:`mutants.MUTANTS` name them.
"""

from repro.consistency.incremental import (
    _INF,
    _MEMO_MIN_BYTES,
    IncrementalAtomicityChecker,
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
