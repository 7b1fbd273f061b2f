"""The differential fuzz suite's third verdict: one history through the
shard-merge path.

Importable as ``sharded_check`` from the tests beside it.
"""

from typing import List

from repro.consistency.history import History
from repro.consistency.incremental import IncrementalAtomicityChecker, replay_operations
from repro.consistency.shardmerge import (
    MergedCheckResult,
    ShardVerdict,
    merge_shard_verdicts,
    shard_verdict_from_checker,
)


def check_history_sharded(
    history: History,
    *,
    shards: int = 2,
    initial_value: bytes = b"",
    frontier_limit: int = 256,
    max_violations: int = 16,
) -> MergedCheckResult:
    """Check a recorded history through the shard-merge path.

    Operations are ordered by invocation time and split into ``shards``
    contiguous slices; each slice is replayed through its own incremental
    checker in ``defer`` mode (a slice may read values written in an
    earlier slice), and the per-shard exports are merged.  Its verdict
    must agree with both WGL and the single-stream incremental checker on
    any history.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    ops = sorted(history.operations(), key=lambda op: (op.invoked_at, op.op_id))
    bounds = [round(i * len(ops) / shards) for i in range(shards + 1)]
    verdicts: List[ShardVerdict] = []
    for index in range(shards):
        checker = IncrementalAtomicityChecker(
            initial_value=initial_value,
            frontier_limit=frontier_limit,
            unknown_values="defer",
        )
        replay_operations(checker, ops[bounds[index] : bounds[index + 1]])
        verdicts.append(shard_verdict_from_checker(index, checker))
    return merge_shard_verdicts(
        verdicts, initial_value=initial_value, max_violations=max_violations
    )
