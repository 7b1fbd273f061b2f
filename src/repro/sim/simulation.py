"""The discrete-event simulation orchestrator.

A :class:`Simulation` owns the virtual clock, the event queue, the network
and the registered processes.  Protocol test-benches and the cluster
façades drive it with :meth:`Simulation.run` (until quiescence) or
:meth:`Simulation.run_until` (until a predicate holds), both of which guard
against runaway executions with event-count and time limits.

The quiescence loop in :meth:`Simulation.run` is the hottest code in the
repository (every simulated message is one heap entry).  Where a C compiler
is available it runs compiled (:mod:`repro.sim.run_loop`); the Python loop
it mirrors is deliberately flat: emptiness check, cancelled-event skip,
time-limit check and pop are one heap traversal, clock and accounting
updates are inlined, a message entry (see :mod:`repro.sim.events`) is
delivered in place, and the optional :attr:`Simulation.event_hook` costs
one predictable branch per event when unused.  :meth:`Simulation.step` and
:meth:`Simulation.run_until` share :meth:`Simulation._deliver_entry`.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.sim.events import NO_ARG, Event, EventQueue
from repro.sim.network import DelayModel, Network, ProcessId, UniformDelay
from repro.sim.process import _PROCESS_DELIVER, Process


def derive_seed(*parts: object) -> int:
    """The one seed-derivation rule: the first 8 bytes of the SHA-256 of the
    ``:``-joined ``parts``, little-endian, clamped to a non-negative int64 —
    identical on every platform and process.  The parts name the stream
    (``derive_seed("faults", base_seed, leg, index)``), which keeps it
    decorrelated from every other seed derived from the same base."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63 - 1)


#: ``engine type -> its copy-countdown handlers``, registered where the engine
#: is defined: the compiled run loop counts a later copy (one whose ``mid``
#: the engine's ``_pending`` holds) down itself for an engine of that type.
LATER_COPY_HANDLERS: Dict[type, tuple] = {}


def _compiled_loop():
    """The compiled loop's ``run`` (built at the first call, then cached by
    its module), or ``None`` where it cannot be built."""
    from repro.sim.run_loop import LOOP

    try:
        return LOOP.load().run
    except RuntimeError:
        return None


class SimulationError(RuntimeError):
    """Raised when a run hits its safety limits before finishing."""


class EventBudgetExceeded(SimulationError):
    """Raised when a run exhausts its ``max_events`` budget.

    A distinct subclass so drivers that want to degrade gracefully on
    budget exhaustion (e.g. :meth:`repro.runtime.cluster.RegisterCluster.run_streamed`
    marking the run *truncated*) can catch exactly this case without
    swallowing genuine scheduling bugs, which raise the base
    :class:`SimulationError`.
    """


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random generator (message delays,
        protocol-level randomness, failure injection all derive from it).
    delay_model:
        Delay distribution for the network; defaults to
        :class:`~repro.sim.network.UniformDelay`, i.e. bounded asynchrony.
    keep_message_trace:
        Keep a full record of every message (useful in tests, costly in
        long benchmarks).
    """

    def __init__(
        self,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        *,
        keep_message_trace: bool = False,
    ) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._queue = EventQueue()
        self._now = 0.0
        self._processes: Dict[ProcessId, Process] = {}
        #: Optional per-event observer ``hook(event)`` invoked after the
        #: clock advanced but before the event fires; a message delivery is
        #: shown as an :class:`Event` built for the hook.  Used by the
        #: golden event-order determinism tests; ``None`` (the default)
        #: costs one branch per event.
        self.event_hook: Optional[Callable[[Event], None]] = None
        self.network = Network(
            self, delay_model or UniformDelay(), keep_trace=keep_message_trace
        )
        self.events_processed = 0

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now.

        Negative delays are a caller bug; the check is a debug-mode assert
        (delay models validate their parameters at construction, so the
        per-message fast path no longer re-validates every send — see
        :meth:`repro.sim.network.Network.send`).
        """
        assert delay >= 0, f"cannot schedule into the past (delay={delay})"
        return self._queue.push(self._now + delay, action, label=label)

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self._queue.push(time, action, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # process registry
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> Process:
        """Register a process; its pid must be unique within the simulation."""
        if process.pid in self._processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self._processes[process.pid] = process
        process.attach(self)
        return process

    def add_processes(self, processes: Iterable[Process]) -> List[Process]:
        return [self.add_process(p) for p in processes]

    def get_process(self, pid: ProcessId) -> Optional[Process]:
        return self._processes.get(pid)

    @property
    def processes(self) -> Dict[ProcessId, Process]:
        return dict(self._processes)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _message_event(self, entry: tuple) -> Event:
        """The :class:`Event` view of a message entry, for ``event_hook``."""
        label = ""
        if self.network.keep_trace:  # a tracing aid, as costly as a delivery
            label = f"deliver {type(entry[5]).__name__} {entry[4]}->{entry[3]}"
        return Event(entry[0], entry[1], self._deliver_message, entry, label)

    def _deliver_message(self, entry: tuple) -> None:
        """Deliver a message entry through :meth:`Process.deliver`."""
        _, _, _, dst, src, payload, record = entry
        network = self.network
        destination = self._processes.get(dst)
        if destination is None or destination._crashed:
            network.stats.messages_dropped += 1
            if record is not None:
                record.dropped = True
            return
        network.stats.messages_delivered += 1
        if record is not None:
            record.delivered_at = self._now
            for listener in network._deliver_listeners:
                listener(record)
        destination.deliver(src, payload)

    def _deliver_entry(self, entry: tuple) -> None:
        """Advance the clock to a popped heap entry and execute it: fire
        the event or deliver the message (the per-entry sequence shared by
        step/run_until; the quiescence loop in :meth:`run` inlines it)."""
        time = entry[0]
        if time < self._now:
            raise SimulationError(
                f"entry scheduled in the past ({time} < {self._now})"
            )
        self._now = time
        self.events_processed += 1
        event = entry[2]
        if event is None:
            if self.event_hook is not None:
                self.event_hook(self._message_event(entry))
            self._deliver_message(entry)
        else:
            if self.event_hook is not None:
                self.event_hook(event)
            event.fire()

    def step(self) -> bool:
        """Process a single event; returns False if the queue is empty."""
        if not self._queue:
            return False
        self._deliver_entry(self._queue.pop())
        return True

    def run(
        self,
        *,
        max_time: float = float("inf"),
        max_events: int = 10_000_000,
    ) -> None:
        """Run until the event queue drains (quiescence) or a limit is hit.

        The loop works directly on the heap, for both entry shapes.  A
        message without a record, for a process whose ``deliver`` is
        :meth:`Process.deliver` itself, is delivered in place; every other
        message goes through :meth:`_deliver_message`.  Which processes
        qualify is resolved here, once per call.  Without an ``event_hook``
        the compiled loop of :mod:`repro.sim.run_loop` runs this same body,
        where it builds.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        hook = self.event_hook
        no_arg = NO_ARG
        processes = self._processes
        stats = self.network.stats
        for process in processes.values():
            process._deliver_inline = type(process).deliver is _PROCESS_DELIVER
        if hook is None and type(max_events) is int:
            run = _compiled_loop()
            if run is not None:
                errors = (SimulationError, EventBudgetExceeded)
                run(self, max_time, max_events, (NO_ARG, *errors, LATER_COPY_HANDLERS))
                return
        processed = 0
        try:
            while True:
                if not heap:
                    return
                entry = heap[0]
                event = entry[2]
                if event is not None and event._queue is not queue:
                    heappop(heap)
                    queue._cancelled -= 1
                    continue
                time = entry[0]
                if time > max_time:
                    return
                heappop(heap)
                if time < self._now:
                    raise SimulationError(
                        f"entry scheduled in the past ({time} < {self._now})"
                    )
                self._now = time
                processed += 1
                if event is None:
                    if hook is not None:
                        hook(self._message_event(entry))
                    destination = processes.get(entry[3])
                    if (
                        entry[6] is not None
                        or destination is None
                        or not destination._deliver_inline
                    ):
                        self._deliver_message(entry)
                    elif destination._crashed:
                        stats.messages_dropped += 1
                    else:
                        # Process.deliver, inlined.
                        stats.messages_delivered += 1
                        payload = entry[5]
                        handler = destination.handlers.get(type(payload))
                        if handler is not None:
                            handler(payload)
                        else:
                            destination.on_message(entry[4], payload)
                else:
                    event._queue = None
                    if hook is not None:
                        hook(event)
                    argument = event.argument
                    if argument is no_arg:
                        event.action()
                    else:
                        event.action(argument)
                if processed > max_events:
                    raise EventBudgetExceeded(
                        f"exceeded {max_events} events without reaching quiescence"
                    )
        finally:
            self.events_processed += processed

    def run_until(
        self,
        predicate: Callable[[], bool],
        *,
        max_time: float = float("inf"),
        max_events: int = 10_000_000,
    ) -> None:
        """Run until ``predicate()`` is true.

        Raises
        ------
        SimulationError
            If the queue drains, the time limit passes or the event budget
            is exhausted while the predicate is still false.  Protocol
            liveness tests rely on this to turn "operation never completes"
            into a hard failure.
        """
        queue = self._queue
        processed = 0
        while not predicate():
            next_time = queue.peek_time()
            if next_time is None:
                raise SimulationError(
                    "event queue drained before the condition became true"
                )
            if next_time > max_time:
                raise SimulationError(
                    f"condition not reached by simulated time {max_time}"
                )
            self._deliver_entry(queue.pop())
            processed += 1
            if processed > max_events:
                raise EventBudgetExceeded(
                    f"condition not reached within {max_events} events"
                )

    def spawn_rng(self) -> np.random.Generator:
        """A child generator split off the simulation's seed (for injectors
        and workload generators that should not perturb delay sampling)."""
        return np.random.default_rng(self.rng.integers(0, 2**63 - 1))
