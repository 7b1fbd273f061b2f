"""Interpreter work per operation of the Lemma 2.1 check, as a gate.

Counts Python function calls (``sys.setprofile`` ``"call"`` events) made by
``check_lemma_properties`` on a fixed history of 1 000 and of 10 000
operations, less the calls it makes on the history's first block alone (the
per-history part, and the first operations' checks against no earlier
one), per further operation.  Both histories repeat one five-operation
block (concurrent writes, a read that completes before its write, a
response at an invocation's instant), so a check linear in the operations
costs the same per operation at both sizes, and a loop over pairs could
not.  The count is a property of the code, not of the host, so it gates
exactly.

Print the numbers:  PYTHONPATH=src python tests/consistency/test_lemma_check_cost.py
"""

import gc
import sys
from collections import Counter

from repro.consistency.history import READ, WRITE, History
from repro.consistency.lemma_check import check_lemma_properties
from repro.core.tags import TAG_ZERO, Tag

SIZES = (1_000, 10_000)
BLOCK = 5

#: Measured: 57 calls per block.  Per operation, the replay's sort key and
#: ``is_complete`` twice each (the history's filter and the replay), the two
#: observer callbacks, and the rest ``Tag`` hashes and comparisons in the
#: P1 keys and the P2/P3 dicts, plus three ``_check_read`` per block.
CALLS_PER_OP = 57 / BLOCK


def fixed_history(operations: int) -> History:
    """``operations // BLOCK`` copies of one Lemma-2.1-clean block, 10 time
    units apart, each under two fresh tags."""
    h = History()
    for block in range(operations // BLOCK):
        t, z = 10.0 * block, 2 * block
        first, second = Tag(z + 1, "a"), Tag(z + 2, "b")
        for name, kind, start, end, tag in (
            ("w1", WRITE, 0.0, 4.0, first),
            ("w2", WRITE, 1.0, 3.0, second),
            ("r1", READ, 2.0, 2.5, second),  # completes before its write
            ("r2", READ, 3.5, 5.0, second),
            ("r3", READ, 5.0, 6.0, second),  # invoked as r2 responds
        ):
            op_id, value = f"{name}-{block}", repr(tag).encode()
            h.invoke(op_id, kind, name, t + start, value=value if kind == WRITE else None)
            h.respond(op_id, t + end, value=value, tag=tag)
    return h


def _calls(history: History) -> Counter:
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    # A collection run mid-count would add the calls of whatever gc
    # callbacks and finalizers the process has registered.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        violations = check_lemma_properties(history, initial_tag=TAG_ZERO)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert violations == [], violations
    return calls


def calls_per_operation(operations: int):
    """(calls per operation after the first block, calls by name)."""
    calls = _calls(fixed_history(operations))
    calls.subtract(_calls(fixed_history(BLOCK)))
    return sum(calls.values()) / (operations - BLOCK), +calls


def test_calls_per_operation_are_fixed_at_every_size():
    for operations in SIZES:
        per_op, calls = calls_per_operation(operations)
        assert per_op == CALLS_PER_OP, (
            f"{per_op} calls per operation at {operations} operations; "
            f"called: {calls.most_common()}"
        )


if __name__ == "__main__":
    for operations in SIZES:
        print(f"{operations} operations: {calls_per_operation(operations)[0]:.2f}")
