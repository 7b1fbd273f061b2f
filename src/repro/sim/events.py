"""The event queue driving the discrete-event simulation.

The queue is a binary heap of plain tuples in two shapes:

* ``(time, seq, event)`` — a scheduled :class:`Event` (timers, client
  operation starts, anything that may be cancelled);
* ``(time, seq, None, dst, src, payload, record)`` — a *message entry*,
  pushed by :class:`~repro.sim.network.Network` for every delivery.
  Deliveries are never cancelled, so they carry no :class:`Event`: the
  heap tuple is the message's only allocation.  ``record`` is the
  :class:`~repro.sim.network.MessageRecord` when an observer asked for
  one and ``None`` otherwise.  :class:`~repro.sim.simulation.Simulation`
  delivers these; an ``event_hook`` is shown an :class:`Event` built on
  demand.

The sequence number breaks ties deterministically (FIFO among entries
scheduled for the same instant, whatever their shape), which keeps
executions fully reproducible for a given seed — an essential property for
debugging distributed protocols.

Performance notes (this queue is the innermost hot loop of every
experiment in the repository):

* Heap entries are plain tuples, so every sift comparison is a C-level
  tuple comparison on the precomputed ``(time, seq)`` key.  The previous
  implementation heapified ``@dataclass(order=True)`` instances, whose
  generated ``__lt__`` re-built two comparison tuples per compare in
  Python — the single largest line item in event-loop profiles.
  ``seq`` is unique and strictly increasing, so a comparison never reaches
  the third tuple slot (events and payloads are never compared).
* :class:`Event` is a slotted handle (no instance ``__dict__``), created
  once per schedule and mutated in place on cancellation, replacing the
  old lazy-cancel set of pending sequence numbers.
* The pending count is ``len(heap)`` minus the cancelled events still
  sitting in it, so pushing and popping keep no counter of their own.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, List, Optional

#: Sentinel: the event's action takes no argument.
NO_ARG = object()


class Event:
    """A scheduled action.

    Attributes
    ----------
    time:
        Simulated time at which the action fires.
    seq:
        Monotonically increasing tie-breaker assigned by the queue.
    action:
        Callable executed when the event fires; zero-argument unless
        ``argument`` is set.
    argument:
        Optional single argument passed to ``action`` (``NO_ARG`` means
        the action is called with no arguments).  The event view of a
        message entry carries the entry here.
    label:
        Optional human-readable description (used in traces and error
        messages); not part of the ordering.
    """

    __slots__ = ("time", "seq", "action", "argument", "label", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[..., None],
        argument: Any = NO_ARG,
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.argument = argument
        self.label = label
        #: The queue this event is pending in (``None`` once fired or
        #: cancelled) — the in-place cancellation flag.
        self._queue: Optional["EventQueue"] = None

    def fire(self) -> None:
        """Execute the event's action."""
        argument = self.argument
        if argument is NO_ARG:
            self.action()
        else:
            self.action(argument)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Event(time={self.time!r}, seq={self.seq}, label={self.label!r})"


_new_event = Event.__new__


class EventQueue:
    """A deterministic priority queue of events and message entries.

    Cancellation is in-place: a pending event holds a reference to its
    queue, and cancelling simply clears that reference (the heap entry is
    skipped lazily on a later pop/peek).  Cancelling an event that already
    fired, was already cancelled, or was never scheduled here is a harmless
    no-op — exactly the contract the old pending-set implementation had,
    without the per-push set bookkeeping.
    """

    def __init__(self) -> None:
        #: Heap entries in either shape described in the module docstring.
        self._heap: List[tuple] = []
        self._counter = count()
        #: Cancelled events whose heap entry has not been skipped yet.
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled

    def push(
        self,
        time: float,
        action: Callable[..., None],
        label: str = "",
        argument: Any = NO_ARG,
    ) -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        seq = next(self._counter)
        # Direct slot stores instead of Event(...): push is the hottest
        # allocation site in the repository and skipping the __init__
        # frame is a measurable win.
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.action = action
        event.argument = argument
        event.label = label
        event._queue = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> tuple:
        """Remove and return the next live heap entry in (time, seq) order.

        ``entry[2]`` is the :class:`Event`, or ``None`` for a message entry.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[2]
            if event is None:
                return entry
            if event._queue is self:
                event._queue = None
                return entry
            self._cancelled -= 1
        raise IndexError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """The firing time of the next pending entry, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is None or event._queue is self:
                return entry[0]
            heapq.heappop(heap)
            self._cancelled -= 1
        return None

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event in place.

        Cancelling an event that has already fired, was already cancelled,
        or belongs to a different queue is a harmless no-op.
        """
        if event._queue is self:
            event._queue = None
            self._cancelled += 1

    def clear(self) -> None:
        """Drop every pending event and message entry."""
        for entry in self._heap:
            event = entry[2]
            if event is not None:
                event._queue = None
        self._heap.clear()
        self._cancelled = 0
