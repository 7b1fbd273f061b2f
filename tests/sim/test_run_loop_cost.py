"""Interpreter work per operation under each run loop, as a gate.

Counts Python frames (``sys.setprofile`` ``"call"`` events) and C-function
calls made from Python (``"c_call"``) per completed operation of a
``soda-small``-shaped run: SODA [6, 2], 2 writers and 2 readers, 32-byte
values, the streaming recorder and the incremental checker subscribed
(seed 123).  The counts are a property of the code, not of the host.

The gate is on the message-disperse handlers (``MDServerEngine._handle_*``,
Section III).  A server receives up to ``f + 1`` copies of one md-send and
only the first is delivered:

* under the compiled loop a later copy never enters the interpreter, so
  the handlers run exactly once per md delivery (``_on_md_meta_deliver``
  plus ``_on_md_value_deliver``);
* under the Python loop they run once per copy: ``j + 1`` copies at
  position ``j`` of the dispersal set and ``f + 1`` outside it, i.e.
  ``15`` copies of every md-send over the six servers of [6, 2].

Print frames and C calls per operation by layer for both loops:
    PYTHONPATH=src python tests/sim/test_run_loop_cost.py
"""

import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
from repro.sim import simulation
from repro.sim.run_loop import LOOP

N, F = 6, 2
#: Copies of one md-send over the whole [6, 2] cluster: 1 + 2 + 3 in the
#: dispersal set, 3 at each of the three servers outside it.
COPIES_PER_SEND = sum(range(1, F + 2)) + (N - F - 1) * (F + 1)
HANDLERS = ("_handle_meta", "_handle_full", "_handle_coded")
DELIVERIES = ("_on_md_meta_deliver", "_on_md_value_deliver")
SRC = Path(simulation.__file__).resolve().parents[1]
_RESOLVE = simulation._compiled_loop


@lru_cache(maxsize=None)
def _layer(filename):
    path = Path(filename)
    if path.is_relative_to(SRC):
        return path.relative_to(SRC).parts[0].removesuffix(".py")
    return "other"


def _run(compiled, operations, monkeypatch, profile=None):
    recorder = StreamingRecorder(window=256)
    recorder.subscribe(IncrementalAtomicityChecker(initial_value=b""))
    cluster = make_cluster(
        "SODA", N, F, num_writers=2, num_readers=2, seed=123, recorder=recorder
    )
    cluster.warm_encode([b"#warm|".ljust(32, b"\0")])
    loop = _RESOLVE() if compiled else None
    monkeypatch.setattr(simulation, "_compiled_loop", lambda: loop)
    sys.setprofile(profile)
    try:
        return cluster.run_streamed(
            operations=operations, value_size=32, mean_gap=0.25, seed=124
        )
    finally:
        sys.setprofile(None)


def interpreter_work(compiled, monkeypatch, operations=300):
    """Per completed operation: frames by function name, frames by layer,
    C calls by layer and events."""
    _run(compiled, 100, monkeypatch)  # imports and first-use work stay out
    frames, layers, c_calls = Counter(), Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1
            layers[_layer(frame.f_code.co_filename)] += 1
        elif event == "c_call":
            c_calls[_layer(frame.f_code.co_filename)] += 1

    stats = _run(compiled, operations, monkeypatch, profile)
    return (
        *(
            {key: count / stats.completed for key, count in counts.items()}
            for counts in (frames, layers, c_calls)
        ),
        stats.events / stats.completed,
    )


needs_compiled = pytest.mark.skipif(
    LOOP.availability_error() is not None,
    reason=f"compiled run loop unavailable: {LOOP.availability_error()}",
)


def _entries_and_deliveries(frames):
    return (
        sum(frames.get(name, 0) for name in HANDLERS),
        sum(frames.get(name, 0) for name in DELIVERIES),
    )


@needs_compiled
def test_compiled_loop_enters_the_handlers_once_per_delivery(monkeypatch):
    entries, deliveries = _entries_and_deliveries(
        interpreter_work(True, monkeypatch)[0]
    )
    assert deliveries > 30
    assert entries == pytest.approx(deliveries, abs=1e-9)


def test_python_loop_enters_the_handlers_once_per_copy(monkeypatch):
    entries, deliveries = _entries_and_deliveries(
        interpreter_work(False, monkeypatch)[0]
    )
    assert deliveries > 30
    assert entries * N == pytest.approx(deliveries * COPIES_PER_SEND, abs=1e-6)


def _table(monkeypatch):
    rows = {}
    for name, compiled in (("python", False), ("compiled", True)):
        frames, layers, c_calls, events = interpreter_work(compiled, monkeypatch, 2_000)
        entries, deliveries = _entries_and_deliveries(frames)
        rows[name] = (layers, c_calls, entries, deliveries, events)
    names = sorted(set().union(*(set(r[0]) | set(r[1]) for r in rows.values())))
    lines = [
        f"run loop: {LOOP.describe()}",
        "",
        "| layer | frames/op (python) | frames/op (compiled) "
        "| C calls/op (python) | C calls/op (compiled) |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for layer in names + ["total"]:
        cells = []
        for index in (0, 1):
            for name in ("python", "compiled"):
                counts = rows[name][index]
                value = sum(counts.values()) if layer == "total" else counts.get(layer, 0)
                cells.append(f"{value:,.1f}")
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    lines.append("")
    for name in ("python", "compiled"):
        entries, deliveries, events = rows[name][2:]
        lines.append(
            f"{name} loop: {events:.1f} events/op, {entries:.1f} MD handler "
            f"entries/op, {deliveries:.1f} md deliveries/op"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print(_table(patch))
