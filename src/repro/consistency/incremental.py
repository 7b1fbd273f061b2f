"""Incremental (online) atomicity checking for distinct-write-value registers.

The Wing–Gong–Lowe checker in :mod:`repro.consistency.wgl` is exponential
in the degree of concurrency and needs the whole history in memory.  This
module checks the same property *online*, consuming the operation event
stream as operations retire, in amortized O(log clusters) per operation and
with memory proportional to the number of distinct writes (a handful of
floats and a digest per write) — never the full history.  It is designed to
hang off a :class:`~repro.consistency.stream.StreamingRecorder` as a
:class:`~repro.consistency.stream.StreamObserver`.

Theory (register specialisation with pairwise-distinct write values)
--------------------------------------------------------------------
Group every write ``w`` with the reads that returned its value into a
*cluster* ``C(w)``.  In any linearisation of a register history the members
of a cluster form a contiguous block (the write first, then its reads —
any interposed write would change what the reads must return), so a
linearisation is exactly a total order on clusters that respects real-time
precedence between their members.  Summarise each cluster by

* ``a(C)`` — the latest invocation time of any member, and
* ``b(C)`` — the earliest response time of any member,

so that "some member of C1 precedes some member of C2" is exactly
``b(C1) < a(C2)``.  The history is linearizable iff

1. no read responds before its write is invoked (the block is internally
   feasible), and
2. the cluster precedence digraph is acyclic.

Because edges are threshold comparisons of the (a, b) summaries, any cycle
contains a 2-cycle: take the cycle member ``Cm`` with minimal ``b``; the
cycle supplies an edge into its predecessor's successor chain with
``b(Cm) <= b(C_{m-2}) < a(C_{m-1})``, giving ``Cm -> C_{m-1}`` alongside
the cycle's ``C_{m-1} -> Cm``.  Acyclicity therefore reduces to the
*pairwise crossing test*: no two clusters with ``b(C1) < a(C2)`` and
``b(C2) < a(C1)``.  This is the classical Gibbons–Korach style polynomial
characterisation, evaluated incrementally here.

Incomplete operations follow the WGL conventions: incomplete reads are
ignored, and an incomplete write only matters once some completed read
returned its value (its cluster then has ``b`` drawn from its reads, the
write itself contributing ``+inf``); an unread incomplete write has
``b = +inf`` and can never participate in a crossing, matching WGL
discarding it.

Flat-core layout
----------------
Cluster state lives in flat parallel lists keyed by small integer cluster
ids (``cid``), with one dict mapping 16-byte value digests to cids —
no per-cluster objects on the hot path.  Every cluster whose ``b`` is
finite also owns one slot in a single *interval table*: lists sorted by
``b`` carrying a snapshot of ``a`` plus a running top-2 prefix maximum of
``a`` (value, owner cid, runner-up).  Because ``a`` only grows and ``b``
only shrinks, the crossing predicate is monotone, and the table answers
"does any other cluster have ``b < a(C)`` and ``a > b(C)``" with one
``bisect`` and two list reads — the top-2 prefix lets the query exclude
``C``'s own entry without a range structure.  In a time-ordered stream
first responses arrive in nondecreasing order, so table inserts are
tail-appends (O(1) amortized); a-growth near the tail refreshes the prefix
in place, and rare far-from-tail growth parks the cid in a small *dirty
overlay* that queries scan with current values and a compaction folds back
in batches.  Out-of-order direct feeds fall back to a mid-table insert
that rebuilds the prefix from the insertion point — correct, merely
slower, and never hit by the simulator's time-ordered streams.

The crossing test itself is therefore O(log n) on clean histories; only
when a crossing *exists* (the history is non-linearizable) does the
checker replay the legacy LRU-order frontier scan to name the same
partner, in the same order, with the same message bytes as the PR 5
object-based implementation — violation output is byte-identical.

Frontier bookkeeping
--------------------
The bounded LRU *frontier* of open clusters survives as pure bookkeeping:
``frontier_limit`` evictions mark clusters closed and late events reopen
them (counted in ``reopened_clusters``), but open/closed no longer selects
between two crossing structures, so reopening does zero structural work —
the staircase-removal fallback of the old core (which could silently leave
a stale entry behind on duplicate ``min_resp`` runs) is structurally gone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from hashlib import blake2b, sha256
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.consistency.stream import WRITE, OperationRecord, StreamObserver

#: Digest key of the distinguished initial value / any value at time -inf.
_INITIAL = b"\x00" * 16

_INF = math.inf
_NEG_INF = -math.inf

#: a-growth this close to the table tail refreshes the prefix eagerly;
#: farther entries go to the dirty overlay instead (bounding the refresh).
_EAGER_TAIL = 32

#: Dirty-overlay compaction threshold (bounds the per-query overlay scan).
_DIRTY_LIMIT = 16


#: Values at least this long are digested with SHA-256 (cut to 16 bytes),
#: shorter ones with BLAKE2b-128: with SHA-NI, SHA-256 is the faster of the
#: two from 1 KiB on (1.2 vs 1.6 us at 1 KiB, 46 vs 84 us at 64 KiB) and
#: BLAKE2b below it (0.42 vs 0.50 us at 32 B; docs/perf.md, "Hash once,
#: generate once").  It is also where the recent-writes memo starts:
#: remembering a write and finding it again (~0.8 us) costs less than a
#: read's second digest from here on (1.2 us at 1 KiB), not below.
_MEMO_MIN_BYTES = 1024

#: Bounds of the recent-writes memo, in entries and in bytes referenced (it
#: holds references, not copies).  A read returns one of the last few
#: writes: every hit on the benchmark's workloads lands within 5 entries of
#: the newest (docs/perf.md, "Memory: what a cluster holds"); a deeper one
#: would be digested instead, which is only slower.
_MEMO_ENTRIES = 8
_MEMO_BYTES = 4 * 1024 * 1024


def _value_key(value: Optional[bytes]) -> bytes:
    """The 16-byte key of ``value``: one pure function of its bytes, shared
    by every checker and the shard merge (``None`` keys like ``b""``)."""
    if value is None:
        value = b""
    if len(value) >= _MEMO_MIN_BYTES:
        return sha256(value).digest()[:16]
    return blake2b(value, digest_size=16).digest()


class _RecentWrites:
    """Digests of recently written large values, found again by comparison.

    A read's value is the value of a write digested moments earlier, so
    rather than digesting the same bytes a second time (SHA-256 runs at
    ~1.4 GB/s, 46 us per 64 KiB) the read is matched against the remembered
    write with the same length, first and last bytes by ``==`` — a
    ``memcmp``, a few us per 64 KiB — and takes that write's digest.  It is
    exact, since equal bytes have equal digests, and trusts neither tags
    nor the protocol: anything that fails to match is digested as before.
    Values are compared, not identities: a coded read returns a freshly
    decoded bytes object.
    """

    __slots__ = ("_entries", "_bytes")

    def __init__(self) -> None:
        # (length, head, tail) -> (value, digest), oldest first
        self._entries: Dict[Tuple[int, bytes, bytes], Tuple[bytes, bytes]] = {}
        self._bytes = 0

    def remember(self, value: bytes, key: bytes) -> None:
        """Note that ``key`` is the digest of the just-written ``value``."""
        size = len(value)
        if size > _MEMO_BYTES:
            return
        entries = self._entries
        fingerprint = (size, value[:8], value[-8:])
        if entries.pop(fingerprint, None) is None:
            self._bytes += size
        entries[fingerprint] = (value, key)
        while len(entries) > _MEMO_ENTRIES or self._bytes > _MEMO_BYTES:
            evicted, _ = entries.pop(next(iter(entries)))
            self._bytes -= len(evicted)

    def key_of(self, value: bytes) -> Optional[bytes]:
        """The digest of ``value`` if an equal value was remembered, else None."""
        candidate = self._entries.get((len(value), value[:8], value[-8:]))
        if candidate is not None and candidate[0] == value:
            return candidate[1]
        return None


@dataclass(frozen=True)
class Violation:
    """One detected atomicity violation."""

    kind: str
    description: str
    op_ids: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return f"[{self.kind}] {self.description}"


class ClusterSummary(NamedTuple):
    """A picklable, shard-portable snapshot of one cluster's summary.

    Exported by :meth:`IncrementalAtomicityChecker.cluster_summaries` and
    consumed by :mod:`repro.consistency.shardmerge`, which combines partial
    summaries of the same write value from different shards (``max`` of
    ``max_inv``, ``min`` of ``min_resp`` …) and re-runs the global checks.
    """

    key: bytes  # 16-byte value digest
    write_id: str
    has_write: bool
    write_invoked: float
    max_inv: float
    min_resp: float
    min_read_resp: float
    reads: int
    first_read_inv: float
    first_read_id: Optional[str]
    initial: bool  # True for the checker's distinguished initial-value cluster


class IncrementalAtomicityChecker(StreamObserver):
    """Online register linearizability checker over an operation stream.

    Subscribe it to any :class:`~repro.consistency.stream.HistorySink`::

        recorder = StreamingRecorder(window=256)
        checker = recorder.subscribe(IncrementalAtomicityChecker())
        ... run the workload ...
        result = checker.result()

    or feed it records directly with :meth:`observe_invoke` /
    :meth:`observe_complete` (aliases of the observer callbacks).
    """

    def __init__(
        self,
        *,
        initial_value: bytes = b"",
        frontier_limit: int = 256,
        max_violations: int = 16,
        unknown_values: str = "flag",
    ) -> None:
        if frontier_limit < 1:
            raise ValueError("frontier_limit must be positive")
        if unknown_values not in ("flag", "defer"):
            raise ValueError(
                f"unknown_values must be 'flag' or 'defer', got {unknown_values!r}"
            )
        self.initial_value = initial_value
        self.frontier_limit = frontier_limit
        self.max_violations = max_violations
        #: ``"flag"`` treats a read of a never-written value as a violation
        #: (the whole-stream semantics); ``"defer"`` records a write-less
        #: placeholder cluster instead, for shards of a sharded run where
        #: the write may have been routed to a different shard — the merge
        #: pass in :mod:`repro.consistency.shardmerge` settles it.
        self.unknown_values = unknown_values
        self.violations: List[Violation] = []
        self.ops_seen = 0
        self.reads_checked = 0
        self.reopened_clusters = 0
        #: Every (value key, write op id, invocation time) that claimed an
        #: already-claimed value — exported so the shard merge can decide
        #: duplicates canonically across shards.
        self.duplicate_write_claims: List[Tuple[bytes, str, float]] = []

        # -- flat cluster state: parallel lists indexed by cid -----------
        # value digest -> cid (authoritative, one entry per write ever)
        self._cid_of: Dict[bytes, int] = {}
        self._write_id: List[str] = []
        self._max_inv: List[float] = []  # a(C): latest member invocation
        self._min_resp: List[float] = []  # b(C): earliest member response
        self._write_invoked: List[float] = []
        self._has_write: List[bool] = []
        self._is_closed: List[bool] = []
        # shard-merge bookkeeping (not on the crossing path)
        self._min_read_resp: List[float] = []
        self._reads: List[int] = []
        self._first_read_inv: List[float] = []
        self._first_read_id: List[Optional[str]] = []

        # open clusters in LRU order of last update
        self._frontier: Dict[int, None] = {}

        # -- the interval table: every responded cluster, sorted by b ----
        self._tb: List[float] = []  # current b, ascending
        self._ta: List[float] = []  # snapshot of a (exact unless dirty)
        self._tcid: List[int] = []  # owner cid per slot
        self._pos: List[int] = []  # cid -> table slot (-1 while b == inf)
        # running top-2 prefix max of _ta: value, owner cid, runner-up
        self._pm1: List[float] = []
        self._pa1: List[int] = []
        self._pm2: List[float] = []
        # cids whose a grew past their snapshot without a prefix refresh
        self._dirty: Dict[int, None] = {}

        #: op id -> (value object, its digest) per open write.  A sink
        #: completes a write with the bytes object it was invoked with, so
        #: a large value is hashed once, not again at completion; the entry
        #: goes when the write completes or fails.
        self._open_write_keys: Dict[str, Tuple[Optional[bytes], bytes]] = {}
        #: What a read's value is compared against before it is digested.
        self._recent_writes = _RecentWrites()

        self._initial_key = _value_key(initial_value)
        cid = self._new_cluster(
            self._initial_key, "<initial>", _NEG_INF, _NEG_INF, _NEG_INF, True
        )
        self._table_insert(cid)

    # ------------------------------------------------------------------
    # StreamObserver interface
    # ------------------------------------------------------------------
    def on_invoke(self, record: OperationRecord) -> None:
        self.ops_seen += 1
        if record.kind != WRITE:
            return
        value = record.value
        key = _value_key(value)
        self._open_write_keys[record.op_id] = (value, key)
        if value is not None and len(value) >= _MEMO_MIN_BYTES:
            self._recent_writes.remember(value, key)
        cid = self._cid_of.get(key)
        if cid is None:
            # A fresh value — every write of a well-formed stream.
            invoked = record.invoked_at
            self._new_cluster(key, record.op_id, invoked, _INF, invoked, True)
        else:
            self._register_write(record, key, cid)

    def _register_write(
        self, record: OperationRecord, key: bytes, cid: Optional[int]
    ) -> None:
        """Claim the cluster ``cid`` of value digest ``key`` (None: there is
        none yet) for write ``record``."""
        if cid is not None:
            if self._has_write[cid]:
                self.duplicate_write_claims.append(
                    (key, record.op_id, record.invoked_at)
                )
                self._flag(
                    Violation(
                        "duplicate-write-value",
                        f"write {record.op_id} repeats a previously written value; "
                        f"the register checker requires pairwise distinct writes",
                        (record.op_id,),
                    )
                )
                return
            # Defer-mode placeholder created by an earlier read of this
            # value: the write has now arrived, so the placeholder adopts it.
            if self._is_closed[cid]:
                self._reopen(cid)
            else:
                self._open(cid)
            self._write_id[cid] = record.op_id
            self._has_write[cid] = True
            self._write_invoked[cid] = record.invoked_at
            if record.invoked_at > self._max_inv[cid]:
                self._max_inv[cid] = record.invoked_at
                self._note_a_growth(cid)
            if self._min_read_resp[cid] < record.invoked_at:
                self._flag(
                    Violation(
                        "read-from-future",
                        f"read {self._first_read_id[cid]} responded before its "
                        f"write {record.op_id} was invoked",
                        (self._first_read_id[cid] or "?", record.op_id),
                    )
                )
                return
            self._check_crossings(cid)
            return
        invoked = record.invoked_at
        self._new_cluster(key, record.op_id, invoked, _INF, invoked, True)

    def on_complete(self, record: OperationRecord) -> None:
        if record.kind == WRITE:
            # The digest from invoke serves only the very object it was
            # computed from: a response carrying other bytes is hashed anew.
            memo = self._open_write_keys.pop(record.op_id, None)
            if memo is not None and memo[0] is record.value:
                key = memo[1]
            else:
                key = _value_key(record.value)
            cid = self._cid_of.get(key)
            if cid is None or not self._has_write[cid]:
                # invoke was never observed (stream joined late, or a defer
                # placeholder holds the value): register/adopt now.
                self.ops_seen += 1
                self._register_write(record, key, cid)
                cid = self._cid_of[key]
            if self._write_id[cid] != record.op_id:
                # Duplicate write value: flagged when its invoke was observed
                # (re-dispatching to on_invoke here would double-count the op
                # and append the violation a second time).
                return
            self._update(cid, _NEG_INF, record.responded_at)  # a(C) holds its invocation
        else:
            self.reads_checked += 1
            value = record.value
            if value is not None and len(value) >= _MEMO_MIN_BYTES:
                key = self._recent_writes.key_of(value) or _value_key(value)
            else:
                key = _value_key(value)
            cid = self._cid_of.get(key)
            if cid is None:
                if self.unknown_values == "flag":
                    self._flag(
                        Violation(
                            "unwritten-value",
                            f"read {record.op_id} returned a value no observed "
                            f"write produced (and not the initial value)",
                            (record.op_id,),
                        )
                    )
                    return
                # defer mode: a write-less placeholder joins the frontier and
                # constrains ordering like any cluster; the merge pass flags
                # it as unwritten only if no shard ever saw its write.
                cid = self._new_cluster(
                    key, f"<unwritten:{record.op_id}>", _NEG_INF, _INF, _NEG_INF, False
                )
            # shard-merge bookkeeping, recorded for every read — an offending
            # one too, so the merge can recompute its violation from
            # summaries alone
            self._reads[cid] += 1
            responded = record.responded_at
            if responded is not None and responded < self._min_read_resp[cid]:
                self._min_read_resp[cid] = responded
            invoked = record.invoked_at
            if (invoked, record.op_id) < (
                self._first_read_inv[cid],
                self._first_read_id[cid] or "",
            ):
                self._first_read_inv[cid] = invoked
                self._first_read_id[cid] = record.op_id
            if responded is not None and responded < self._write_invoked[cid]:
                # The (a, b) crossing summary stays untouched, matching the
                # early return of the original single-stream semantics.
                self._flag(
                    Violation(
                        "read-from-future",
                        f"read {record.op_id} responded before its write "
                        f"{self._write_id[cid]} was invoked",
                        (record.op_id, self._write_id[cid]),
                    )
                )
                return
            self._update(cid, invoked, responded)

    def on_failed(self, record: OperationRecord) -> None:
        # A failed write never completes: forget its value now, or the memo
        # would pin one value per abandoned write for the rest of the run.
        self._open_write_keys.pop(record.op_id, None)

    # Direct-feed aliases for callers not going through a sink.
    observe_invoke = on_invoke
    observe_complete = on_complete

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def result(self) -> "IncrementalCheckResult":
        return IncrementalCheckResult(
            ok=self.ok,
            violations=tuple(self.violations),
            ops_seen=self.ops_seen,
            reads_checked=self.reads_checked,
            clusters=len(self._cid_of),
            frontier_size=len(self._frontier),
        )

    def cluster_summaries(self) -> List[ClusterSummary]:
        """Snapshot every cluster (open, closed and the initial one) as
        picklable :class:`ClusterSummary` rows for the shard-merge pass.

        Rows are sorted by ``(key, write_id)`` so the export is canonical —
        independent of update order, frontier evictions and dict iteration.
        """
        rows = []
        for key, cid in self._cid_of.items():
            rows.append(
                ClusterSummary(
                    key=key,
                    write_id=self._write_id[cid],
                    has_write=self._has_write[cid],
                    write_invoked=self._write_invoked[cid],
                    max_inv=self._max_inv[cid],
                    min_resp=self._min_resp[cid],
                    min_read_resp=self._min_read_resp[cid],
                    reads=self._reads[cid],
                    first_read_inv=self._first_read_inv[cid],
                    first_read_id=self._first_read_id[cid],
                    initial=key == self._initial_key
                    and self._write_id[cid] == "<initial>",
                )
            )
        rows.sort(key=lambda r: (r.key, r.write_id))
        return rows

    # ------------------------------------------------------------------
    # cluster maintenance
    # ------------------------------------------------------------------
    def _new_cluster(
        self,
        key: bytes,
        write_id: str,
        max_inv: float,
        min_resp: float,
        write_invoked: float,
        has_write: bool,
    ) -> int:
        """Create the cluster of value digest ``key`` and open it (the newest
        frontier entry, evicting the least recently used past the limit)."""
        cid = len(self._write_id)
        self._cid_of[key] = cid
        self._write_id.append(write_id)
        self._max_inv.append(max_inv)
        self._min_resp.append(min_resp)
        self._write_invoked.append(write_invoked)
        self._has_write.append(has_write)
        self._is_closed.append(False)
        self._min_read_resp.append(_INF)
        self._reads.append(0)
        self._first_read_inv.append(_INF)
        self._first_read_id.append(None)
        self._pos.append(-1)
        frontier = self._frontier
        frontier[cid] = None
        if len(frontier) > self.frontier_limit:
            old = next(iter(frontier))
            del frontier[old]
            self._is_closed[old] = True
        return cid

    def _flag(self, violation: Violation) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)

    def _open(self, cid: int) -> None:
        """(Re)insert a cluster into the frontier, evicting LRU overflow."""
        frontier = self._frontier
        frontier.pop(cid, None)
        frontier[cid] = None
        if len(frontier) > self.frontier_limit:
            is_closed = self._is_closed
            while len(frontier) > self.frontier_limit:
                old = next(iter(frontier))
                del frontier[old]
                is_closed[old] = True

    def _reopen(self, cid: int) -> None:
        """A closed cluster received a late event: pull it back.

        Pure bookkeeping — the interval table holds open and closed
        clusters alike, so no structural surgery (and no stale-entry
        hazard) is involved.
        """
        self.reopened_clusters += 1
        self._is_closed[cid] = False
        self._open(cid)

    def _update(self, cid: int, new_inv: float, new_resp: Optional[float]) -> None:
        """A member of cluster ``cid`` invoked at ``new_inv`` responded at
        ``new_resp``: widen the summary, then test it for crossings."""
        if self._is_closed[cid]:
            self._reopen(cid)
        else:
            # refresh the LRU position: an open cluster is in the frontier,
            # and moving it to the end cannot push the frontier past its limit
            frontier = self._frontier
            del frontier[cid]
            frontier[cid] = None
        if new_inv > self._max_inv[cid]:
            self._max_inv[cid] = new_inv
            self._note_a_growth(cid)
        if new_resp is not None and new_resp < self._min_resp[cid]:
            self._min_resp[cid] = new_resp
            if self._pos[cid] >= 0:
                # A response earlier than the recorded minimum can only
                # arrive from an out-of-order direct feed; relocate the slot.
                self._table_remove(cid)
            self._table_insert(cid)
        self._check_crossings(cid)

    # ------------------------------------------------------------------
    # interval-table maintenance
    # ------------------------------------------------------------------
    def _table_insert(self, cid: int) -> None:
        """Give a cluster whose ``b`` just became finite its table slot."""
        tb = self._tb
        b = self._min_resp[cid]
        a = self._max_inv[cid]
        size = len(tb)
        if size == 0 or b >= tb[-1]:
            # Tail append — the only path a time-ordered stream takes.
            tb.append(b)
            self._ta.append(a)
            self._tcid.append(cid)
            self._pos[cid] = size
            if size == 0:
                self._pm1.append(a)
                self._pa1.append(cid)
                self._pm2.append(_NEG_INF)
            else:
                m1 = self._pm1[-1]
                if a > m1:
                    self._pm1.append(a)
                    self._pa1.append(cid)
                    self._pm2.append(m1)
                else:
                    self._pm1.append(m1)
                    self._pa1.append(self._pa1[-1])
                    self._pm2.append(a if a > self._pm2[-1] else self._pm2[-1])
            return
        # Out-of-order feed: mid-table insert, shift the tail's slots.
        index = bisect_left(tb, b)
        tb.insert(index, b)
        self._ta.insert(index, a)
        self._tcid.insert(index, cid)
        pos = self._pos
        for shifted in self._tcid[index + 1 :]:
            pos[shifted] += 1
        pos[cid] = index
        self._recompute_prefix(index)

    def _table_remove(self, cid: int) -> None:
        index = self._pos[cid]
        if not 0 <= index < len(self._tcid) or self._tcid[index] != cid:
            # A stale position would make the deletes below silently evict
            # some *other* cluster's interval — the failure mode the old
            # closed-staircase `_reopen` could only `break` past.  Refuse
            # loudly instead of corrupting the table.
            raise RuntimeError(
                f"interval-table slot for cluster {cid} is stale "
                f"(pos={index}); the checker's index invariant is broken"
            )
        del self._tb[index]
        del self._ta[index]
        del self._tcid[index]
        pos = self._pos
        for shifted in self._tcid[index:]:
            pos[shifted] -= 1
        pos[cid] = -1
        self._dirty.pop(cid, None)
        del self._pm1[index:]
        del self._pa1[index:]
        del self._pm2[index:]
        self._recompute_prefix(index)

    def _note_a_growth(self, cid: int) -> None:
        """``max_inv`` grew: refresh the prefix in place near the tail,
        otherwise park the cid in the dirty overlay."""
        index = self._pos[cid]
        if index < 0 or cid in self._dirty:
            return
        if len(self._tb) - index <= _EAGER_TAIL:
            self._ta[index] = self._max_inv[cid]
            self._recompute_prefix(index)
        else:
            self._dirty[cid] = None
            if len(self._dirty) > _DIRTY_LIMIT:
                self._compact()

    def _compact(self) -> None:
        """Fold the dirty overlay's current ``a`` values back into the
        table snapshot and refresh the prefix once from the lowest slot."""
        if not self._dirty:
            return
        lowest = len(self._tb)
        for cid in self._dirty:
            index = self._pos[cid]
            self._ta[index] = self._max_inv[cid]
            if index < lowest:
                lowest = index
        self._dirty.clear()
        self._recompute_prefix(lowest)

    def _recompute_prefix(self, start: int) -> None:
        """Rebuild the top-2 prefix max of ``_ta`` from ``start`` on."""
        if start > 0:
            m1 = self._pm1[start - 1]
            c1 = self._pa1[start - 1]
            m2 = self._pm2[start - 1]
        else:
            m1 = _NEG_INF
            c1 = -1
            m2 = _NEG_INF
        ta = self._ta
        tcid = self._tcid
        pm1 = self._pm1
        pa1 = self._pa1
        pm2 = self._pm2
        del pm1[start:]
        del pa1[start:]
        del pm2[start:]
        for index in range(start, len(ta)):
            a = ta[index]
            if a > m1:
                m2 = m1
                m1 = a
                c1 = tcid[index]
            elif a > m2:
                m2 = a
            pm1.append(m1)
            pa1.append(c1)
            pm2.append(m2)

    # ------------------------------------------------------------------
    # the pairwise crossing test
    # ------------------------------------------------------------------
    def _check_crossings(self, cid: int) -> None:
        """Flag if any other cluster crosses ``cid``: b' < a and b < a'."""
        b = self._min_resp[cid]
        if b == _INF:
            return  # no member responded yet: cannot cross anything
        a = self._max_inv[cid]
        # Fast existence test: the b-sorted table answers "is there another
        # cluster with b' < a whose (snapshot) a' exceeds b" in O(log n);
        # the top-2 prefix excludes cid's own slot.  Snapshot a-values are
        # lower bounds, so a hit is always real; anything the snapshot
        # understates sits in the dirty overlay and is scanned with current
        # values.  On clean histories both probes miss and this is the
        # whole test.
        index = bisect_left(self._tb, a)
        if index:
            last = index - 1
            best = (
                self._pm1[last] if self._pa1[last] != cid else self._pm2[last]
            )
            if best > b:
                self._flag_crossing(cid)
                return
        if self._dirty:
            min_resp = self._min_resp
            max_inv = self._max_inv
            for other in self._dirty:
                if other != cid and min_resp[other] < a and max_inv[other] > b:
                    self._flag_crossing(cid)
                    return

    def _flag_crossing(self, cid: int) -> None:
        """A crossing exists; name the partner exactly as the legacy
        two-tier test did: scan the LRU frontier first (naming both write
        ids, first match in LRU order), else attribute it to a retired
        write."""
        a = self._max_inv[cid]
        b = self._min_resp[cid]
        min_resp = self._min_resp
        max_inv = self._max_inv
        for other in self._frontier:
            if other == cid:
                continue
            if min_resp[other] < a and b < max_inv[other]:
                self._flag(
                    Violation(
                        "cluster-cycle",
                        f"operations around write {self._write_id[cid]} and write "
                        f"{self._write_id[other]} mutually precede each other; no "
                        f"linearisation can order their blocks",
                        (self._write_id[cid], self._write_id[other]),
                    )
                )
                return
        self._flag(
            Violation(
                "cluster-cycle",
                f"operations around write {self._write_id[cid]} and an "
                f"earlier retired write mutually precede each other; no "
                f"linearisation can order their blocks",
                (self._write_id[cid],),
            )
        )

    # ------------------------------------------------------------------
    # self-checks (tests only)
    # ------------------------------------------------------------------
    def _audit(self) -> None:
        """Validate every internal invariant (slow; used by tests)."""
        # every responded cluster owns exactly one consistent table slot
        for key, cid in self._cid_of.items():
            if self._min_resp[cid] == _INF:
                assert self._pos[cid] == -1, (key, cid)
            else:
                index = self._pos[cid]
                assert 0 <= index < len(self._tb), (key, cid, index)
                assert self._tcid[index] == cid
                assert self._tb[index] == self._min_resp[cid]
                if cid in self._dirty:
                    assert self._ta[index] <= self._max_inv[cid]
                else:
                    assert self._ta[index] == self._max_inv[cid]
        assert len(self._tb) == len(self._ta) == len(self._tcid)
        assert len(self._tb) == len(self._pm1) == len(self._pa1) == len(self._pm2)
        assert all(
            self._tb[i] <= self._tb[i + 1] for i in range(len(self._tb) - 1)
        )
        # the top-2 prefix values match a from-scratch recomputation, and
        # the recorded argmax is *an* entry attaining the max (ties — and
        # the -inf seed — may legitimately record different owners than a
        # from-scratch pass; the query only needs some attaining owner)
        m1, m2 = _NEG_INF, _NEG_INF
        for i, a in enumerate(self._ta):
            if a > m1:
                m2, m1 = m1, a
            elif a > m2:
                m2 = a
            assert self._pm1[i] == m1 and self._pm2[i] == m2, i
            owner = self._pa1[i]
            if owner != -1:
                index = self._pos[owner]
                assert 0 <= index <= i and self._ta[index] == m1, i
            else:
                assert m1 == _NEG_INF, i
        # frontier holds exactly the open clusters
        for cid in self._frontier:
            assert not self._is_closed[cid]
        open_cids = {
            cid for cid in range(len(self._write_id)) if not self._is_closed[cid]
        }
        assert set(self._frontier) == open_cids


@dataclass(frozen=True)
class IncrementalCheckResult:
    """Outcome of an incremental check: truthy iff no violation was seen."""

    ok: bool
    violations: Tuple[Violation, ...] = ()
    ops_seen: int = 0
    reads_checked: int = 0
    clusters: int = 0
    frontier_size: int = 0

    def __bool__(self) -> bool:
        return self.ok


def replay_operations(
    checker: IncrementalAtomicityChecker, operations
) -> IncrementalAtomicityChecker:
    """Feed recorded operations to a checker in live-stream event order.

    The ordering convention — invocations by invocation time, completions
    by response time, invocations first on ties — is the single source of
    truth shared by :func:`check_history_incrementally` and the sharded
    replay in :func:`repro.consistency.shardmerge.check_history_sharded`;
    keeping it in one place keeps the differential suite's three paths
    comparable by construction.  Returns the checker for chaining.
    """
    events: List[Tuple[float, int, OperationRecord]] = []
    for op in operations:
        events.append((op.invoked_at, 0, op))
        if op.is_complete:
            events.append((op.responded_at, 1, op))
    events.sort(key=lambda e: (e[0], e[1]))
    for _, phase, op in events:
        if phase == 0:
            checker.on_invoke(op)
        else:
            checker.on_complete(op)
    return checker


def check_history_incrementally(
    history, *, initial_value: bytes = b"", frontier_limit: int = 256
) -> IncrementalCheckResult:
    """Run the incremental checker over an already-recorded history.

    This is the cross-validation entry point: it replays a
    :class:`~repro.consistency.history.History` through the online checker
    in event order (invocations by invocation time, completions by response
    time), exactly as a live stream would have delivered them.
    """
    checker = IncrementalAtomicityChecker(
        initial_value=initial_value, frontier_limit=frontier_limit
    )
    return replay_operations(checker, history.operations()).result()
