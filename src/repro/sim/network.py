"""Reliable point-to-point channels with configurable delay models.

The paper's model (Section II-d) assumes a reliable link between every pair
of processes: as long as the destination is non-faulty, every message placed
in the channel is eventually delivered, even if the *sender* crashes
immediately after sending.  No ordering guarantee is assumed.  The network
here implements precisely that: a send schedules a delivery event after a
delay drawn from the :class:`DelayModel`; the delivery is dropped only if
the destination has crashed (a crashed process would never process it
anyway, so this does not change protocol behaviour — it only avoids useless
work).

A message in flight is one heap tuple on the simulation's event queue (the
*message entry* of :mod:`repro.sim.events`), delivered by
:class:`~repro.sim.simulation.Simulation`.  A :class:`MessageRecord` is
built only while something installed on the network reads records — the
message trace, a send or deliver listener, an adversary.

Messages can be any Python object.  For cost accounting the network reads
two optional attributes off each message:

* ``data_units`` — the normalized payload size (1.0 for a full value,
  ``1/k`` for a coded element, 0.0 for metadata), per Section II-h;
* ``op_id`` — the client operation on whose behalf the message is sent,
  used to attribute communication cost to individual operations.

Delay sampling is batched: models whose delays do not depend on the
``(src, dst)`` pair implement :meth:`DelayModel.sample_block`, and the
network refills a vectorized buffer from it instead of paying one scalar
``np.random.Generator`` call per message.  Block sampling consumes the
generator stream *element-for-element identically* to successive scalar
``sample`` calls (NumPy fills arrays by repeating the scalar routine), so
executions — and the committed long-run artefacts — are byte-identical to
the unbatched implementation; the golden-trace tests pin this down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.simulation import Simulation

ProcessId = Hashable

#: Number of delays drawn per vectorized refill of the network's buffer.
DELAY_BLOCK_SIZE = 256


# ----------------------------------------------------------------------
# delay models
# ----------------------------------------------------------------------
class DelayModel(ABC):
    """Samples a one-way message delay for each (src, dst) pair.

    Parameter validation happens at construction time; :meth:`sample` is a
    per-message hot path and does not re-validate (the network asserts
    non-negativity only in debug builds).
    """

    @abstractmethod
    def sample(self, src: ProcessId, dst: ProcessId, rng: np.random.Generator) -> float:
        """A non-negative delay for one message from ``src`` to ``dst``."""

    def sample_block(self, n: int, rng: np.random.Generator) -> Optional[List[float]]:
        """A block of ``n`` delays drawn with one vectorized call.

        Returns ``None`` (the default) when the model's delays depend on
        the ``(src, dst)`` pair — e.g. :class:`SlowDisk` — in which case
        the network falls back to per-message :meth:`sample` calls.
        Implementations must consume the generator stream exactly as ``n``
        successive :meth:`sample` calls would, so batched and unbatched
        executions are event-for-event identical.
        """
        return None


class FixedDelay(DelayModel):
    """Every message takes exactly ``delta`` time units (synchronous-looking)."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError("delay must be non-negative")
        self.delta = delta

    def sample(self, src: ProcessId, dst: ProcessId, rng: np.random.Generator) -> float:
        return self.delta

    def sample_block(self, n: int, rng: np.random.Generator) -> List[float]:
        # Consumes no randomness, exactly like n scalar sample() calls.
        return [self.delta] * n


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` — bounded asynchrony."""

    def __init__(self, low: float = 0.1, high: float = 1.0) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"require 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, src: ProcessId, dst: ProcessId, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_block(self, n: int, rng: np.random.Generator) -> List[float]:
        return rng.uniform(self.low, self.high, size=n).tolist()


class SlowDisk(DelayModel):
    """Latency injection: messages *from* designated slow processes straggle.

    Models servers whose local disk reads are slow (ROADMAP "slow-disk
    latency injection"): every message a slow server sends — its replies to
    clients and its relays to peers — is delayed by an extra ``extra`` time
    units (plus optional uniform ``jitter``) on top of the wrapped base
    delay model.  Wrapping the delay model keeps the hook protocol-agnostic:
    any cluster accepts it through its ``delay_model`` parameter.

    Delays depend on the sender, so this model opts out of block sampling
    (``sample_block`` stays ``None``-returning) and the network samples
    per message.
    """

    def __init__(
        self,
        base: DelayModel,
        slow: Iterable[ProcessId],
        *,
        extra: float = 2.0,
        jitter: float = 0.0,
    ) -> None:
        if extra < 0 or jitter < 0:
            raise ValueError("extra delay and jitter must be non-negative")
        self.base = base
        self.slow = set(slow)
        self.extra = extra
        self.jitter = jitter

    def sample(self, src: ProcessId, dst: ProcessId, rng: np.random.Generator) -> float:
        delay = self.base.sample(src, dst, rng)
        if src in self.slow:
            delay += self.extra
            if self.jitter:
                delay += float(rng.uniform(0.0, self.jitter))
        return delay


# ----------------------------------------------------------------------
# message bookkeeping
# ----------------------------------------------------------------------
@dataclass(slots=True)
class MessageRecord:
    """One message in flight (or already delivered), as shown to observers:
    the message trace, send/deliver listeners and adversaries."""

    src: ProcessId
    dst: ProcessId
    payload: object
    sent_at: float
    delivered_at: Optional[float] = None
    dropped: bool = False

    @property
    def data_units(self) -> float:
        return float(getattr(self.payload, "data_units", 0.0))

    @property
    def op_id(self) -> Optional[object]:
        return getattr(self.payload, "op_id", None)


@dataclass
class NetworkStats:
    """Aggregate traffic counters."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    total_data_units: float = 0.0
    metadata_messages: int = 0


class Network:
    """Reliable, non-FIFO point-to-point message delivery."""

    def __init__(
        self,
        simulation: "Simulation",
        delay_model: DelayModel,
        *,
        keep_trace: bool = False,
    ) -> None:
        self._sim = simulation
        self.delay_model = delay_model
        self.stats = NetworkStats()
        self._keep_trace = keep_trace
        self.trace: List[MessageRecord] = []
        self._send_listeners: List[Callable[[MessageRecord], None]] = []
        self._deliver_listeners: List[Callable[[MessageRecord], None]] = []
        # The first communication-cost tracker attaches here and is
        # accounted inline by send() — one attribute walk instead of a
        # listener call plus two property evaluations per message.  Extra
        # trackers fall back to the generic listener path.
        self._cost_tracker = None
        # Vectorized delay buffer: refilled DELAY_BLOCK_SIZE samples at a
        # time from the delay model when it supports block sampling.  The
        # buffer is tied to the model *instance* that filled it, so
        # swapping ``delay_model`` mid-run falls back to a refill from the
        # new model.
        self._delay_buffer: List[float] = []
        self._delay_pos = 0
        self._buffered_model: Optional[DelayModel] = None
        self._block_capable = False
        # Optional message adversary (see install_adversary): inspects each
        # in-flight message after the delay is drawn and may stretch or
        # drop the delivery.
        self._adversary = None
        # True while anything installed reads MessageRecords; derived from
        # what is installed, never set by a caller.  A message sent while
        # it is False carries no record.
        self._observed = keep_trace

    @property
    def keep_trace(self) -> bool:
        """Whether every message's record is appended to :attr:`trace`
        (fixed at construction)."""
        return self._keep_trace

    def _refresh_observed(self) -> None:
        self._observed = bool(
            self._keep_trace
            or self._send_listeners
            or self._deliver_listeners
            or self._adversary is not None
        )

    # -- listener registration -----------------------------------------
    def on_send(self, listener: Callable[[MessageRecord], None]) -> None:
        """Register a callback invoked for every message placed on a channel."""
        self._send_listeners.append(listener)
        self._refresh_observed()

    def on_deliver(self, listener: Callable[[MessageRecord], None]) -> None:
        """Register a callback invoked whenever a message is handed to a process.

        It sees the messages sent from now on: one already in flight when
        the network's first observer is installed has no record to show.
        """
        self._deliver_listeners.append(listener)
        self._refresh_observed()

    def attach_cost_tracker(self, tracker) -> bool:
        """Claim the inline cost-accounting slot; False if already taken.

        Called by :meth:`repro.metrics.costs.CommunicationCostTracker.attach`;
        the first tracker per network is updated inline on the send fast
        path, later ones register as ordinary send listeners.
        """
        if self._cost_tracker is None:
            self._cost_tracker = tracker
            return True
        return False

    def install_adversary(self, adversary) -> None:
        """Install a message adversary (or ``None`` to remove it).

        An adversary is any object with ``intervene(record, delay, now) ->
        (delay, drop)``: it runs on every send with the message's
        :class:`MessageRecord`, the nominal delay the delay model drew and
        the clock at send time, and returns the delay to use (it may
        stretch it) and whether to drop the message outright (counted in
        ``stats.messages_dropped``).  It must be deterministic given its
        own state and these arguments, and draw nothing from the
        simulation's generators, so installing one never perturbs the
        delay-sampling rng stream.  The fault legs' adversaries live in
        :mod:`repro.workloads.faults`.
        """
        self._adversary = adversary
        self._refresh_observed()

    # -- sending ---------------------------------------------------------
    def send(self, src: ProcessId, dst: ProcessId, payload: object) -> None:
        """Place ``payload`` on the channel from ``src`` to ``dst``.

        The message is delivered after a delay drawn from the delay model
        unless the destination is (or becomes) crashed.  The sender may
        crash immediately afterwards without affecting delivery, matching
        the paper's channel model.

        This is the per-message path and the public interception point for
        sends (:meth:`send_many` defers to it while it is overridden or
        wrapped): stats and the first cost tracker are updated inline, the
        delay comes from the vectorized buffer when the model supports it,
        and the delivery is one message entry pushed onto the simulation's
        heap.
        """
        sim = self._sim
        now = sim._now
        stats = self.stats
        stats.messages_sent += 1
        units = float(getattr(payload, "data_units", 0.0))
        stats.total_data_units += units
        if units == 0.0:
            stats.metadata_messages += 1
        tracker = self._cost_tracker
        if tracker is not None:
            # Inlined CommunicationCostTracker.record (same costs).
            op = getattr(payload, "op_id", None)
            if op is not None:
                per_op = tracker._per_op
                per_op[op] = per_op.get(op, 0.0) + units
        record = None
        if self._observed:
            record = MessageRecord(src, dst, payload, now)
            if self._keep_trace:
                self.trace.append(record)
            for listener in self._send_listeners:
                listener(record)
        pos = self._delay_pos
        if pos < len(self._delay_buffer) and self._buffered_model is self.delay_model:
            delay = self._delay_buffer[pos]
            self._delay_pos = pos + 1
        else:
            delay = self._next_delay(src, dst)
        # Non-negativity is a delay-model construction invariant.
        assert delay >= 0, f"delay model produced a negative delay {delay}"
        if record is not None and self._adversary is not None:
            delay, dropped = self._adversary.intervene(record, delay, now)
            if dropped:
                record.dropped = True
                stats.messages_dropped += 1
                return
        queue = sim._queue
        heappush(
            queue._heap,
            (now + delay, next(queue._counter), None, dst, src, payload, record),
        )

    def send_many(
        self, src: ProcessId, dsts: Sequence[ProcessId], payload: object
    ) -> None:
        """Send one ``payload`` from ``src`` to every destination, in order.

        Equivalent to ``for dst in dsts: send(src, dst, payload)`` — same
        counters, same delays in destination order, same ``(time, seq)``
        per delivery — with the per-payload work (size, cost attribution)
        done once.  While the network is observed, or :meth:`send` is
        overridden or wrapped, it *is* that loop, so every message still
        passes through :meth:`send`.
        """
        if self._observed or type(self).send is not _NETWORK_SEND:
            send = self.send
            for dst in dsts:
                send(src, dst, payload)
            return
        fanout = len(dsts)
        if not fanout:
            return
        sim = self._sim
        now = sim._now
        stats = self.stats
        stats.messages_sent += fanout
        units = float(getattr(payload, "data_units", 0.0))
        tracker = self._cost_tracker
        op = None if tracker is None else getattr(payload, "op_id", None)
        if op is not None:
            # Per-op costs list every attributed operation, metadata
            # included, at 0.0 if need be.
            attributed = tracker._per_op.get(op, 0.0)
        if units == 0.0:
            stats.metadata_messages += fanout
        else:
            # One float add per message, as send() does, so the totals
            # stay bit-identical to the per-message loop.
            for _ in dsts:
                stats.total_data_units += units
                if op is not None:
                    attributed += units
        if op is not None:
            tracker._per_op[op] = attributed
        queue = sim._queue
        heap = queue._heap
        counter = queue._counter
        buffer = self._delay_buffer
        pos = self._delay_pos
        if pos + fanout <= len(buffer) and self._buffered_model is self.delay_model:
            self._delay_pos = pos + fanout
            for dst in dsts:
                heappush(
                    heap, (now + buffer[pos], next(counter), None, dst, src, payload, None)
                )
                pos += 1
        else:
            # The buffer runs out inside this fan-out (or the model samples
            # per pair): take the delays one at a time, refilling in place.
            for dst in dsts:
                delay = self._next_delay(src, dst)
                assert delay >= 0, f"delay model produced a negative delay {delay}"
                heappush(
                    heap, (now + delay, next(counter), None, dst, src, payload, None)
                )

    def _next_delay(self, src: ProcessId, dst: ProcessId) -> float:
        """The next delay: from the vectorized buffer, refilling it when it
        is exhausted, or one scalar sample.

        Models whose delays depend on (src, dst) return ``None`` from
        ``sample_block`` once; after that every send takes the scalar path
        until the delay model is swapped.
        """
        model = self.delay_model
        if model is not self._buffered_model:
            self._buffered_model = model
            self._delay_buffer = []
            self._delay_pos = 0
            self._block_capable = True
        pos = self._delay_pos
        if pos < len(self._delay_buffer):
            self._delay_pos = pos + 1
            return self._delay_buffer[pos]
        if self._block_capable:
            block = model.sample_block(DELAY_BLOCK_SIZE, self._sim.rng)
            if block is None:
                self._block_capable = False
            else:
                self._delay_buffer = block
                self._delay_pos = 1
                return block[0]
        return model.sample(src, dst, self._sim.rng)


#: The send this module defines; :meth:`Network.send_many` compares against
#: it to notice a subclass override or a wrapper installed on the class.
_NETWORK_SEND = Network.send
