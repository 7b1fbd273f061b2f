"""Base class for simulated processes (clients and servers).

A process is a purely message-driven automaton: it reacts to message
deliveries — through its :attr:`Process.handlers` table or
:meth:`Process.on_message` — and to locally scheduled actions via timers.
This mirrors the IO-Automata style used by the paper (each transition is
triggered by an input action) without the notational overhead.

Crash failures follow Section II-d: a crashed process performs no further
local computation and sends no further messages.  Messages already placed
on channels by the process *before* the crash are still delivered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.sim.network import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class Process:
    """A named automaton attached to a :class:`~repro.sim.simulation.Simulation`."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self._sim: Optional["Simulation"] = None
        self._network = None  # bound on attach; avoids sim-property hops per send
        self._crashed = False
        self.messages_sent = 0
        #: ``type(message) -> handler(message)`` for the messages this
        #: process handles without needing the sender; a delivery is one
        #: dict lookup and one call.  Types not listed (none by default) go
        #: to :meth:`on_message`.  Message classes are final, so the exact
        #: type is the key.
        self.handlers: Dict[type, Callable[[object], None]] = {}
        # Whether the run loop may inline deliver() for this process:
        # false while a subclass overrides it or the class attribute has
        # been replaced.  Resolved on attach and again at each run().
        self._deliver_inline = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, simulation: "Simulation") -> None:
        """Called by the simulation when the process is registered."""
        self._sim = simulation
        self._network = simulation.network
        self._deliver_inline = type(self).deliver is _PROCESS_DELIVER

    @property
    def sim(self) -> "Simulation":
        if self._sim is None:
            raise RuntimeError(
                f"process {self.pid!r} is not attached to a simulation"
            )
        return self._sim

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    # ------------------------------------------------------------------
    # failure state
    # ------------------------------------------------------------------
    @property
    def is_crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Crash the process: it stops sending and processing messages."""
        if not self._crashed:
            self._crashed = True
            self.on_crash()

    def on_crash(self) -> None:
        """Hook for subclasses (e.g. to release bookkeeping); default no-op."""

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, dst: ProcessId, message: object) -> None:
        """Send ``message`` to ``dst`` over the reliable channel.

        Silently ignored if this process has crashed (a crashed process
        cannot take send actions).
        """
        if self._crashed:
            return
        network = self._network
        if network is None:
            raise RuntimeError(
                f"process {self.pid!r} is not attached to a simulation"
            )
        self.messages_sent += 1
        network.send(self.pid, dst, message)

    def send_many(self, dsts: Sequence[ProcessId], message: object) -> None:
        """Send the same ``message`` to every destination, in order.

        Same effect as one :meth:`send` per destination; the network does
        the per-message work in one pass (:meth:`Network.send_many`).
        """
        if self._crashed:
            return
        network = self._network
        if network is None:
            raise RuntimeError(
                f"process {self.pid!r} is not attached to a simulation"
            )
        self.messages_sent += len(dsts)
        network.send_many(self.pid, dsts, message)

    def deliver(self, sender: ProcessId, message: object) -> None:
        """Hand a delivered message to its handler.

        This is the public per-message interception point for deliveries:
        :meth:`Simulation.run` inlines exactly this body, and calls the
        method itself for any process whose class overrides or wraps it.
        """
        if self._crashed:
            return
        handler = self.handlers.get(type(message))
        if handler is not None:
            handler(message)
        else:
            self.on_message(sender, message)

    def on_message(self, sender: ProcessId, message: object) -> None:
        """Handle a delivered message whose type is not in :attr:`handlers`.
        Subclasses override this."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # local timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule a local action after ``delay`` time units.

        The action is skipped if the process crashes before it fires.
        """

        def guarded() -> None:
            if not self._crashed:
                action()

        self.sim.schedule(delay, guarded, label=label or f"timer@{self.pid}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "crashed" if self._crashed else "up"
        return f"{type(self).__name__}(pid={self.pid!r}, {status})"


#: The deliver this module defines; a process whose class resolves
#: ``deliver`` to anything else is never delivered to inline.
_PROCESS_DELIVER = Process.deliver
