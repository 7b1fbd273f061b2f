"""Shard-merge atomicity checking: split one long run, merge one verdict.

The incremental checker in :mod:`repro.consistency.incremental` consumes a
*single* operation stream.  To check a million-operation run that was
executed as shards (epochs of a long real-cluster simulation fanned out
over a process pool, or slices of one recorded history), each shard runs
its own incremental checker and exports compact, picklable
:class:`~repro.consistency.incremental.ClusterSummary` rows; this module
merges those exports into one canonical verdict:

1. **Cluster reconciliation** — partial summaries of the same write value
   from different shards combine by ``max`` of the latest member
   invocation ``a`` and ``min`` of the earliest member response ``b`` (the
   only statistics the crossing test needs), resolving write ownership and
   cross-shard duplicates along the way.
2. **Feasibility re-checks** — unwritten values and read-from-future
   blocks are recomputed from the merged clusters, because a shard that
   saw only the reads of a value cannot decide them locally (the checker's
   ``unknown_values="defer"`` mode postpones exactly these).
3. **Boundary-crossing reconciliation** — one global staircase sweep over
   every merged cluster re-runs the pairwise crossing test, so blocks that
   straddle a shard boundary are ordered against each other exactly as a
   single-process checker would have ordered them.

Because the merge consumes only the canonical per-shard summaries (sorted
exports, value digests, floats), the merged verdict is a pure function of
the shard contents: it is byte-identical however many worker processes
produced the shards, and — as the differential fuzz suite asserts against
WGL and the single-stream checker — equal to the single-process verdict.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.consistency.incremental import (
    ClusterSummary,
    IncrementalAtomicityChecker,
    Violation,
    _value_key,
)


@dataclass(frozen=True)
class ShardVerdict:
    """What one shard of a long run contributes to the merged check.

    ``violations`` holds the shard checker's *local* online findings (they
    give early failure signals mid-run); the merged verdict is recomputed
    canonically from ``summaries``/``duplicate_claims`` so it cannot depend
    on shard-local event order.
    """

    index: int
    ops_seen: int
    reads_checked: int
    summaries: Tuple[ClusterSummary, ...]
    duplicate_claims: Tuple[Tuple[bytes, str, float], ...] = ()
    violations: Tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def shard_verdict_from_checker(
    index: int, checker: IncrementalAtomicityChecker
) -> ShardVerdict:
    """Package a shard checker's final state for the merge."""
    return ShardVerdict(
        index=index,
        ops_seen=checker.ops_seen,
        reads_checked=checker.reads_checked,
        summaries=tuple(checker.cluster_summaries()),
        duplicate_claims=tuple(checker.duplicate_write_claims),
        violations=tuple(checker.violations),
    )


def shift_summary(summary: ClusterSummary, offset: float) -> ClusterSummary:
    """Shift a summary's finite times by ``offset`` (infinities survive).

    Long-run epochs each simulate from local time zero; the merge places
    epoch ``k`` at a deterministic global offset so shard time ranges are
    disjoint, and this helper rebases the exported summaries.
    """

    def move(t: float) -> float:
        return t + offset if math.isfinite(t) else t

    return summary._replace(
        write_invoked=move(summary.write_invoked),
        max_inv=move(summary.max_inv),
        min_resp=move(summary.min_resp),
        min_read_resp=move(summary.min_read_resp),
        first_read_inv=move(summary.first_read_inv),
    )


@dataclass
class _MergedCluster:
    """Accumulator for one write value across shards."""

    a: float = -math.inf  # max member invocation
    b: float = math.inf  # min member response
    min_read_resp: float = math.inf
    reads: int = 0
    first_read_inv: float = math.inf
    first_read_id: Optional[str] = None
    initial: bool = False
    #: (write_invoked, write_id) claims from shard summaries + duplicates.
    claims: List[Tuple[float, str]] = field(default_factory=list)


@dataclass(frozen=True)
class MergedCheckResult:
    """The canonical verdict of a sharded check — truthy iff no violation."""

    ok: bool
    violations: Tuple[Violation, ...] = ()
    shards: int = 0
    ops_seen: int = 0
    reads_checked: int = 0
    clusters: int = 0
    crossings_tested: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def to_jsonable(self) -> Dict[str, object]:
        """A deterministic, JSON-serialisable rendering of the verdict."""
        return {
            "ok": self.ok,
            "shards": self.shards,
            "ops_seen": self.ops_seen,
            "reads_checked": self.reads_checked,
            "clusters": self.clusters,
            "crossings_tested": self.crossings_tested,
            "violations": [
                {
                    "kind": v.kind,
                    "description": v.description,
                    "op_ids": list(v.op_ids),
                }
                for v in self.violations
            ],
        }


def merge_shard_verdicts(
    shards: Sequence[ShardVerdict],
    *,
    initial_value: Optional[bytes] = b"",
    max_violations: int = 16,
) -> MergedCheckResult:
    """Reconcile per-shard summaries into one canonical verdict.

    ``initial_value`` is the register's initial value when the shards
    share one register timeline (slices of one history); pass ``None``
    when every shard modelled its own initial state as an explicit
    marker-write summary (the long-run engine does), in which case no
    distinguished initial cluster is expected.
    """
    initial_key = _value_key(initial_value) if initial_value is not None else None
    merged: Dict[bytes, _MergedCluster] = {}

    for shard in shards:
        for s in shard.summaries:
            cluster = merged.setdefault(s.key, _MergedCluster())
            if s.initial:
                if initial_key is None:
                    raise ValueError(
                        f"shard {shard.index} exported an initial-value cluster "
                        f"but the merge was told there is none (initial_value="
                        f"None); rewrite epoch initials as marker writes first"
                    )
                if s.key != initial_key:
                    raise ValueError(
                        f"shard {shard.index} used a different initial value "
                        f"than the merge"
                    )
                cluster.initial = True
            elif s.has_write:
                cluster.claims.append((s.write_invoked, s.write_id))
            cluster.a = max(cluster.a, s.max_inv)
            cluster.b = min(cluster.b, s.min_resp)
            cluster.min_read_resp = min(cluster.min_read_resp, s.min_read_resp)
            cluster.reads += s.reads
            if s.first_read_id is not None and (
                s.first_read_inv,
                s.first_read_id,
            ) < (cluster.first_read_inv, cluster.first_read_id or ""):
                cluster.first_read_inv = s.first_read_inv
                cluster.first_read_id = s.first_read_id
        for key, op_id, invoked_at in shard.duplicate_claims:
            merged.setdefault(key, _MergedCluster()).claims.append(
                (invoked_at, op_id)
            )

    violations: List[Violation] = []

    def flag(v: Violation) -> None:
        violations.append(v)

    # --- write ownership: duplicates across (and within) shards ----------
    for key, cluster in merged.items():
        claims = sorted(set(cluster.claims))
        if cluster.initial and claims:
            # Writes colliding with the initial value digest: every claim
            # duplicates the distinguished initial cluster.
            for _, op_id in claims:
                flag(
                    Violation(
                        "duplicate-write-value",
                        f"write {op_id} repeats the register's initial value; "
                        f"the register checker requires pairwise distinct writes",
                        (op_id,),
                    )
                )
            continue
        for _, op_id in claims[1:]:
            flag(
                Violation(
                    "duplicate-write-value",
                    f"write {op_id} repeats a previously written value; "
                    f"the register checker requires pairwise distinct writes",
                    (op_id,),
                )
            )

    # --- feasibility of each merged block --------------------------------
    for key, cluster in merged.items():
        if cluster.initial:
            continue
        if not cluster.claims:
            if cluster.reads:
                flag(
                    Violation(
                        "unwritten-value",
                        f"read {cluster.first_read_id} returned a value no "
                        f"shard ever saw written (and not the initial value)",
                        (cluster.first_read_id or "?",),
                    )
                )
            continue
        write_invoked, write_id = min(cluster.claims)
        if cluster.min_read_resp < write_invoked:
            flag(
                Violation(
                    "read-from-future",
                    f"a read of write {write_id}'s value responded before "
                    f"the write was invoked",
                    (cluster.first_read_id or "?", write_id),
                )
            )

    # --- boundary-crossing reconciliation: one global staircase sweep ----
    # Participants mirror the single-stream checker: clusters with at least
    # one responded member (b < inf) and a resolved write (or the initial
    # cluster / reads of it).  Entries are processed in (b, a, id) order;
    # for each cluster the max-a over strictly-smaller-b predecessors
    # decides whether any pair mutually precedes the other.
    entries: List[Tuple[float, float, str]] = []
    for key, cluster in merged.items():
        if cluster.initial:
            ident = "<initial>"
        elif cluster.claims:
            ident = min(cluster.claims)[1]
        else:
            continue  # unwritten value: already flagged, no block to order
        if cluster.b == math.inf:
            continue  # no member ever responded: cannot cross anything
        entries.append((cluster.b, cluster.a, ident))
    entries.sort()
    seen_b: List[float] = []
    prefix_best: List[Tuple[float, str]] = []  # running (max a, its id)
    crossings_tested = 0
    crossing_pairs: List[Tuple[str, str]] = []
    for b, a, ident in entries:
        cut = bisect.bisect_left(seen_b, a)
        crossings_tested += 1
        if cut > 0:
            best_a, best_id = prefix_best[cut - 1]
            if best_a > b:
                crossing_pairs.append(tuple(sorted((ident, best_id))))
        seen_b.append(b)
        if not prefix_best or a > prefix_best[-1][0]:
            prefix_best.append((a, ident))
        else:
            prefix_best.append(prefix_best[-1])
    for first, second in sorted(set(crossing_pairs)):
        flag(
            Violation(
                "cluster-cycle",
                f"operations around write {first} and write {second} mutually "
                f"precede each other across the sharded stream; no "
                f"linearisation can order their blocks",
                (first, second),
            )
        )

    violations.sort(key=lambda v: (v.kind, v.op_ids))
    violations = violations[:max_violations]
    return MergedCheckResult(
        ok=not violations,
        violations=tuple(violations),
        shards=len(shards),
        ops_seen=sum(s.ops_seen for s in shards),
        reads_checked=sum(s.reads_checked for s in shards),
        clusters=len(merged),
        crossings_tested=crossings_tested,
    )


@dataclass(frozen=True)
class NamespaceCheckResult:
    """The verdict of a multi-object (namespace) sharded check.

    ``per_object[j]`` is object ``j``'s own :class:`MergedCheckResult` —
    produced by exactly the same :func:`merge_shard_verdicts` pass a
    single-register run uses, applied to that object's shards only.  The
    namespace verdict is their conjunction: atomicity composes per
    register, so a namespace execution is correct iff every object's
    projected history is linearizable.
    """

    ok: bool
    per_object: Tuple[MergedCheckResult, ...]

    def __bool__(self) -> bool:
        return self.ok

    @property
    def objects(self) -> int:
        return len(self.per_object)

    @property
    def shards(self) -> int:
        return max((v.shards for v in self.per_object), default=0)

    @property
    def ops_seen(self) -> int:
        return sum(v.ops_seen for v in self.per_object)

    @property
    def reads_checked(self) -> int:
        return sum(v.reads_checked for v in self.per_object)

    @property
    def clusters(self) -> int:
        return sum(v.clusters for v in self.per_object)

    @property
    def crossings_tested(self) -> int:
        return sum(v.crossings_tested for v in self.per_object)

    def flagged_objects(self) -> List[int]:
        return [j for j, verdict in enumerate(self.per_object) if not verdict.ok]

    def violations(self) -> List[Tuple[int, Violation]]:
        """Every merged violation, tagged with its object index."""
        return [
            (j, violation)
            for j, verdict in enumerate(self.per_object)
            for violation in verdict.violations
        ]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "objects": self.objects,
            "shards": self.shards,
            "ops_seen": self.ops_seen,
            "reads_checked": self.reads_checked,
            "clusters": self.clusters,
            "crossings_tested": self.crossings_tested,
            "flagged_objects": self.flagged_objects(),
            "per_object": [verdict.to_jsonable() for verdict in self.per_object],
        }


def merge_namespace_verdicts(
    shards_by_object: Sequence[Sequence[ShardVerdict]],
    *,
    initial_value: Optional[bytes] = b"",
    max_violations: int = 16,
) -> NamespaceCheckResult:
    """Merge a namespace run's shards **per object**, then aggregate.

    ``shards_by_object[j]`` holds object ``j``'s shard exports (one per
    epoch of a sharded long run).  Each object is merged independently —
    objects are separate registers, so their summaries must never be
    reconciled against each other — and the per-object verdicts are
    combined into one :class:`NamespaceCheckResult`.
    """
    per_object = tuple(
        merge_shard_verdicts(
            shards, initial_value=initial_value, max_violations=max_violations
        )
        for shards in shards_by_object
    )
    return NamespaceCheckResult(
        ok=all(verdict.ok for verdict in per_object), per_object=per_object
    )

