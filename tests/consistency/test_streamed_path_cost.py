"""Interpreter work per operation on the streamed path, as a gate.

Counts Python function calls (``sys.setprofile`` ``"call"`` events) per
completed operation while a 5 000-operation ``checker-stream``-shaped
history (16 clients, seed 0) is generated, recorded by
``StreamingRecorder(window=256)`` and checked by the subscribed incremental
checker, under each of the checker's executors: its Python methods, and
the compiled core of ``repro.consistency.checker_core``, which leaves the
generator, the recorder and the value digest (``_value_key``) in the
interpreter.  The count is a property of the code, not of the host, so it
gates at its committed budget.  docs/perf.md ("Streamed path: where an
operation goes") lists what the calls are.

Print the numbers:  PYTHONPATH=src python tests/consistency/test_streamed_path_cost.py
"""

import sys
from collections import Counter

import pytest

from repro.consistency import checker_core
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
from repro.workloads.generator import StreamSpec, stream_operations

#: Measured 10.90 (22.92 when the generator built dicts and drew through
#: closures, and the recorder and checker called by keyword).
CALLS_PER_OP_BUDGET = 11.0
#: Measured 5.51 under the compiled core: the generator's and the
#: recorder's 4.51, and the one ``_value_key`` digest per operation.
COMPILED_CALLS_PER_OP_BUDGET = 5.51


def _unavailable():
    raise RuntimeError("no C toolchain")


def _stream(operations, compiled, profile=None):
    recorder = StreamingRecorder(window=256)
    recorder.subscribe(IncrementalAtomicityChecker())
    spec = StreamSpec(operations=operations, clients=16, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        if not compiled:
            patch.setattr(checker_core.CORE, "load", _unavailable)
        sys.setprofile(profile)
        try:
            return stream_operations(spec, recorder)
        finally:
            sys.setprofile(None)


def calls_per_operation(compiled=False):
    """(calls per completed operation, calls by function name)."""
    _stream(200, compiled)  # imports and first-use work stay out of the count
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    stats = _stream(5_000, compiled, profile)
    return sum(calls.values()) / stats.completed, calls


def test_calls_per_operation_within_budget():
    per_op, calls = calls_per_operation()
    assert per_op <= CALLS_PER_OP_BUDGET, (
        f"{per_op:.2f} calls per operation; most called: {calls.most_common(8)}"
    )


@pytest.mark.skipif(
    checker_core.CORE.availability_error() is not None,
    reason=f"compiled checker core unavailable: {checker_core.CORE.availability_error()}",
)
def test_compiled_calls_per_operation_within_budget():
    per_op, calls = calls_per_operation(compiled=True)
    assert per_op <= COMPILED_CALLS_PER_OP_BUDGET, (
        f"{per_op:.2f} calls per operation; most called: {calls.most_common(8)}"
    )


if __name__ == "__main__":
    print(f"python executor: {calls_per_operation()[0]:.2f}")
    print(f"checker core ({checker_core.CORE.describe()}): ", end="")
    if checker_core.CORE.availability_error() is None:
        print(f"{calls_per_operation(compiled=True)[0]:.2f}")
    else:
        print("not measured")
