"""Outside-in span tracing for the benchmark's traced pass.

The program under test carries no spans of its own, so the traced pass
wraps the public boundaries of each layer *from here*: while
:func:`installed` is active, ``Simulation.run``, ``Network.send``,
``Process.deliver``, the cached codec entry points, the ``HistorySink``
recording calls, ``stream_operations``, ``merge_namespace_verdicts`` and
``repro.cli.main`` each open a span (name, start, end, parent = the span
open when it started).  A span's *self time* is its duration minus the
part its child spans cover.  Spans are folded into per-name totals as they
close (count, inclusive time, self time) instead of being kept one by
one: a repetition opens ~10^6 of them, and holding them would change the
memory and GC behaviour being measured.

Self-checks: :meth:`SpanRecorder.coverage` compares the send/deliver spans
seen with the ``NetworkStats`` of every simulation that ran, so a later
change that routes messages past ``Process.deliver`` (or ``Network.send``)
shows up as coverage < 1 and the traced shares are withheld instead of
being silently wrong.

(The module is not called ``trace`` because ``bench/`` is put first on
``sys.path`` by both ``python3 bench/run.py`` and pytest, where it would
shadow the standard library's ``trace``.)
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span names, grouped by the layer (module under ``src/repro``) they time.
RUN = "sim.run"
SEND = "sim.send"
DELIVER_PREFIX = "deliver:"  # + layer of the receiving process class
ENCODE = "erasure.encode"
DECODE = "erasure.decode"
RECORD = "consistency.record"
MERGE = "consistency.merge"
GENERATE = "workloads.generate"
CLI = "cli.main"


class SpanRecorder:
    """Per-name span totals with parent-aware self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[name, child_time, start]``.
        self.stack: List[list] = []
        #: name -> ``[count, inclusive_s, self_s]``.
        self.totals: Dict[str, List[float]] = {}
        #: payload type -> sends, filled by the ``Network.send`` wrapper.
        self.sends_by_type: Dict[type, int] = {}
        #: Every simulation whose ``run`` was traced (kept alive so their
        #: network counters can be summed when the pass ends).
        self.simulations: Dict[int, object] = {}

    # -- span bookkeeping ------------------------------------------------
    def enter(self, name: str) -> None:
        self.stack.append([name, 0.0, self.clock()])

    def exit(self) -> None:
        end = self.clock()
        name, child_time, start = self.stack.pop()
        duration = end - start
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time
        if self.stack:
            self.stack[-1][1] += duration

    # -- summaries -------------------------------------------------------
    def count(self, prefix: str) -> int:
        return int(sum(r[0] for n, r in self.totals.items() if n.startswith(prefix)))

    def inclusive(self, prefix: str) -> float:
        return sum(r[1] for n, r in self.totals.items() if n.startswith(prefix))

    def self_time(self, prefix: str) -> float:
        return sum(r[2] for n, r in self.totals.items() if n.startswith(prefix))

    def network_totals(self) -> Tuple[int, int, int, int]:
        """``(sent, delivered, dropped, metadata)`` over every traced simulation."""
        sent = delivered = dropped = metadata = 0
        for sim in self.simulations.values():
            stats = sim.network.stats
            sent += stats.messages_sent
            delivered += stats.messages_delivered
            dropped += stats.messages_dropped
            metadata += stats.metadata_messages
        return sent, delivered, dropped, metadata

    def coverage(self) -> float:
        """Share of messages the spans saw (1.0 = every send and deliver)."""
        sent, delivered, _, _ = self.network_totals()
        ratios = []
        if sent:
            ratios.append(self.count(SEND) / sent)
        if delivered:
            ratios.append(self.count(DELIVER_PREFIX) / delivered)
        return min(ratios) if ratios else 1.0

    def sends_by_type_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for kind, count in self.sends_by_type.items():
            out[kind.__name__] = out.get(kind.__name__, 0) + count
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(row[0]), "inclusive_s": row[1], "self_s": row[2]}
            for name, row in sorted(self.totals.items())
        }


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` inside a span called ``name`` (the hot-path form of ``span``)."""
    stack = recorder.stack
    clock = recorder.clock
    close = recorder.exit

    def traced(*args, **kwargs):
        stack.append([name, 0.0, clock()])
        try:
            return fn(*args, **kwargs)
        finally:
            close()

    traced.__wrapped__ = fn
    return traced


def _wrap_send(recorder: SpanRecorder, fn: Callable) -> Callable:
    stack = recorder.stack
    clock = recorder.clock
    close = recorder.exit
    by_type = recorder.sends_by_type

    def traced_send(self, src, dst, payload):
        kind = type(payload)
        by_type[kind] = by_type.get(kind, 0) + 1
        stack.append([SEND, 0.0, clock()])
        try:
            return fn(self, src, dst, payload)
        finally:
            close()

    traced_send.__wrapped__ = fn
    return traced_send


def _wrap_deliver(recorder: SpanRecorder, fn: Callable) -> Callable:
    stack = recorder.stack
    clock = recorder.clock
    close = recorder.exit
    names: Dict[type, str] = {}

    def traced_deliver(self, sender, message):
        cls = type(self)
        name = names.get(cls)
        if name is None:
            # "repro.core.soda.server" -> "deliver:core"
            parts = cls.__module__.split(".")
            layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"
            name = names[cls] = DELIVER_PREFIX + layer
        stack.append([name, 0.0, clock()])
        try:
            return fn(self, sender, message)
        finally:
            close()

    traced_deliver.__wrapped__ = fn
    return traced_deliver


def _wrap_run(recorder: SpanRecorder, fn: Callable) -> Callable:
    simulations = recorder.simulations
    traced = _wrap(recorder, RUN, fn)

    def traced_run(self, *args, **kwargs):
        simulations[id(self)] = self
        return traced(self, *args, **kwargs)

    traced_run.__wrapped__ = fn
    return traced_run


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap the layer boundaries for the duration of the ``with`` block."""
    import repro.cli
    import repro.consistency.shardmerge
    import repro.workloads.generator
    from repro.consistency.stream import HistorySink
    from repro.erasure.batch import CachedDecoder, CachedEncoder
    from repro.sim.network import Network
    from repro.sim.process import Process
    from repro.sim.simulation import Simulation

    undo: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, wrapper: Callable) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_method(cls: type, attr: str, name: str) -> None:
        patch(cls, attr, _wrap(recorder, name, getattr(cls, attr)))

    def patch_function(module: object, attr: str, name: str) -> None:
        # ``from x import f`` copies the reference, so replace it in every
        # repro module that holds the same function object.
        original = getattr(module, attr)
        wrapper = _wrap(recorder, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
                if getattr(mod, attr, None) is original:
                    patch(mod, attr, wrapper)

    patch(Simulation, "run", _wrap_run(recorder, Simulation.run))
    patch(Network, "send", _wrap_send(recorder, Network.send))
    patch(Process, "deliver", _wrap_deliver(recorder, Process.deliver))
    for attr in ("encode", "encode_many", "warm"):
        patch_method(CachedEncoder, attr, ENCODE)
    for attr in ("decode", "decode_many"):
        patch_method(CachedDecoder, attr, DECODE)
    for attr in ("invoke", "respond", "mark_failed"):
        patch_method(HistorySink, attr, RECORD)
    patch_function(repro.workloads.generator, "stream_operations", GENERATE)
    patch_function(repro.consistency.shardmerge, "merge_namespace_verdicts", MERGE)
    patch_function(repro.cli, "main", CLI)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def shares(recorder: SpanRecorder, total_s: float) -> Optional[Dict[str, float]]:
    """Self time of each span group as a share of ``total_s``, keyed by
    metric name — or ``None`` when the trace did not see every message
    (the shares would be wrong, so none is given)."""
    if recorder.coverage() < 1.0 or total_s <= 0:
        return None
    groups = {
        "sim.loop": RUN,
        "sim.send": SEND,
        "core.handler": DELIVER_PREFIX + "core",
        "baselines.handler": DELIVER_PREFIX + "baselines",
        "erasure.encode": ENCODE,
        "erasure.decode": DECODE,
        "consistency.record": RECORD,
        "consistency.merge": MERGE,
        "workloads.generator": GENERATE,
    }
    return {
        f"{group}_self_share": recorder.self_time(name) / total_s
        for group, name in groups.items()
    }
