"""Microbenchmarks for the simulation core's hot paths.

Four synthetic churn loops isolate the event loop from protocol logic,
so regressions in the queue/network fast paths show up undiluted:

* **timer churn** — self-rescheduling timers; pure ``schedule`` +
  heap-pop + fire, no network (``eventloop_events_per_s``);
* **send/deliver churn** — process pairs echoing messages through the
  network; exercises the per-message path: inline stats, block delay
  sampling, one message entry pushed per ``Network.send``, inline
  delivery (``send_path_msgs_per_s``);
* **fan-out churn** — hubs sending one payload to 5 destinations through
  ``Process.send_many``, the shape of an MD-META relay or a quorum
  broadcast, which the single-send row never exercises
  (``fanout_msgs_per_s``);
* **cancel-heavy churn** — push/cancel/drain on the raw event queue;
  exercises in-place cancellation and lazy heap skipping
  (``eventloop_cancel_ops_per_s``).

``run_benchmarks.py`` folds the rows into ``BENCH_sim.json``; the first
three are gated in CI at a tighter threshold than the wall-clock protocol
rows (>30% regression fails, see ``GATED_METRIC_FACTORS``).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.sim.events import EventQueue
from repro.sim.process import Process
from repro.sim.simulation import Simulation
from repro.sim.network import UniformDelay


def bench_timer_churn(events: int = 200_000, timers: int = 16) -> float:
    """Events per second for pure timer churn (no messages)."""
    sim = Simulation(seed=1)
    budget = [events]

    def make_timer(index: int):
        period = 0.25 + 0.01 * index

        def tick() -> None:
            if budget[0] > 0:
                budget[0] -= 1
                sim.schedule(period, tick)

        return tick

    for i in range(timers):
        sim.schedule(0.001 * i, make_timer(i))
    start = time.perf_counter()
    sim.run(max_events=events + timers + 1)
    wall = time.perf_counter() - start
    return sim.events_processed / wall


class _Echo(Process):
    """Bounces every received message straight back to its peer."""

    def __init__(self, pid: str, peer: str, budget: list) -> None:
        super().__init__(pid)
        self.peer = peer
        self.budget = budget

    def on_message(self, sender, message) -> None:
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self.send(self.peer, message)


def bench_send_path(messages: int = 100_000, pairs: int = 4) -> float:
    """Messages per second for send/deliver churn through the network."""
    sim = Simulation(seed=2, delay_model=UniformDelay(0.1, 1.0))
    budget = [messages]
    payload = object()
    for p in range(pairs):
        a = _Echo(f"a{p}", f"b{p}", budget)
        b = _Echo(f"b{p}", f"a{p}", budget)
        sim.add_processes([a, b])
        sim.schedule(0.0, (lambda proc: lambda: proc.send(proc.peer, payload))(a))
    start = time.perf_counter()
    sim.run(max_events=2 * (messages + pairs) + 10)
    wall = time.perf_counter() - start
    return sim.network.stats.messages_sent / wall


class _Hub(Process):
    """Re-sends each message it gets back to all of its spokes."""

    def __init__(self, pid: str, spokes: tuple, budget: list) -> None:
        super().__init__(pid)
        self.spokes = spokes
        self.budget = budget

    def on_message(self, sender, message) -> None:
        if self.budget[0] > 0:
            self.budget[0] -= len(self.spokes)
            self.send_many(self.spokes, message)


class _Spoke(Process):
    """Answers its hub once per round (the first spoke only), so a round
    is one fan-out plus one single send."""

    def __init__(self, pid: str, hub: str, answers: bool) -> None:
        super().__init__(pid)
        self.hub = hub
        self.answers = answers

    def on_message(self, sender, message) -> None:
        if self.answers:
            self.send(self.hub, message)


def bench_fanout(messages: int = 100_000, hubs: int = 4, fanout: int = 5) -> float:
    """Messages per second when one payload goes to ``fanout`` destinations
    through ``Process.send_many``."""
    sim = Simulation(seed=3, delay_model=UniformDelay(0.1, 1.0))
    budget = [messages]
    payload = object()
    for h in range(hubs):
        spokes = tuple(f"h{h}s{i}" for i in range(fanout))
        hub = _Hub(f"h{h}", spokes, budget)
        sim.add_process(hub)
        sim.add_processes(
            [_Spoke(pid, hub.pid, answers=(i == 0)) for i, pid in enumerate(spokes)]
        )
        sim.schedule(0.0, (lambda proc: lambda: proc.send_many(proc.spokes, payload))(hub))
    start = time.perf_counter()
    sim.run(max_events=2 * messages + 100)
    wall = time.perf_counter() - start
    return sim.network.stats.messages_sent / wall


def bench_cancel_churn(operations: int = 100_000) -> float:
    """Queue operations per second for a cancel-heavy push/drain cycle.

    Every second scheduled event is cancelled before the drain, so the
    pop path must skip half the heap lazily — the worst case for the
    in-place cancellation scheme.
    """
    queue = EventQueue()

    def noop() -> None:
        return None

    start = time.perf_counter()
    handles = [queue.push(float(i % 97), noop) for i in range(operations)]
    for handle in handles[::2]:
        queue.cancel(handle)
    while queue:
        queue.pop()[2].fire()
    wall = time.perf_counter() - start
    return operations / wall


def bench_event_loop(*, quick: bool = False) -> Dict[str, float]:
    """The four rows folded into BENCH_sim.json by run_benchmarks.py."""
    scale = 10 if quick else 1
    return {
        "eventloop_events_per_s": bench_timer_churn(events=200_000 // scale),
        "send_path_msgs_per_s": bench_send_path(messages=100_000 // scale),
        "fanout_msgs_per_s": bench_fanout(messages=100_000 // scale),
        "eventloop_cancel_ops_per_s": bench_cancel_churn(
            operations=100_000 // scale
        ),
    }
