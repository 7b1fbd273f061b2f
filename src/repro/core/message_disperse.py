"""The message-disperse primitives MD-VALUE and MD-META (Section III).

Both primitives guarantee *uniformity*: if any server delivers the message,
then every non-faulty server eventually delivers it (its coded element for
MD-VALUE, the metadata verbatim for MD-META), even if the original sender
crashes mid-send and up to ``f`` servers crash.

Implementation, following Figs. 1 and 2 of the paper:

* the sender transmits the message to the first ``f + 1`` servers of the
  (totally ordered) server list, respecting that order;
* a server ``s_i`` among those first ``f + 1`` servers, upon its *first*
  receipt of the full message, forwards it to the later servers of the
  first ``f + 1`` (``s_{i+1} .. s_{f+1}``), sends the derived per-server
  message to every server outside the first ``f + 1`` (the coded element
  for MD-VALUE, the metadata itself for MD-META), and finally delivers its
  own copy locally;
* a server outside the first ``f + 1`` delivers upon first receipt.

Since at most ``f`` of the first ``f + 1`` servers can crash, at least one
correct server receives the full message whenever any server does, and that
server's forwarding reaches every non-faulty server over the reliable
channels — which is exactly the uniformity argument of Theorem 3.1.

Telling a first receipt from a later one needs no record of every message
ever seen.  The relay topology is fixed, so the number of copies of one
md-send that can reach a server is known: ``j + 1`` at position ``j`` of
the dispersal set, ``f + 1`` outside it.  A server keeps the message id
while copies are still due and drops it with the last, so once a send's
copies have all arrived nothing of it is left anywhere — values, coded
elements and ids alike (no state bloat, Theorem 3.2).

The sender side is :class:`MDSender`; the server side is
:class:`MDServerEngine`, which a server process instantiates with callbacks
for the two deliver events.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.core.messages import (
    MDMeta,
    MDValueCoded,
    MDValueFull,
    MessageId,
)
from repro.core.tags import Tag
from repro.erasure.batch import CachedEncoder
from repro.erasure.mds import CodedElement, MDSCode
from repro.sim.process import Process
from repro.sim.simulation import LATER_COPY_HANDLERS


class MDSender:
    """Sender-side helper: invoke md-value-send / md-meta-send from a process.

    Any process (writer, reader or server) may own one; the SODA writer uses
    :meth:`md_value_send` for the write-put phase, readers use
    :meth:`md_meta_send` for READ-VALUE / READ-COMPLETE, and servers use it
    for READ-DISPERSE.
    """

    def __init__(
        self,
        process: Process,
        servers_in_order: Sequence[str],
        f: int,
    ) -> None:
        if f < 0 or f + 1 > len(servers_in_order):
            raise ValueError(
                f"need at least f+1={f + 1} servers, got {len(servers_in_order)}"
            )
        self._process = process
        self._servers = list(servers_in_order)
        self._counter = 0
        # The dispersal topology is fixed at construction; precompute it
        # instead of slicing the server list on every send.
        self._dispersal = tuple(self._servers[: f + 1])
        self._pid_str = str(process.pid)

    def _next_mid(self) -> MessageId:
        self._counter += 1
        return (self._pid_str, self._counter)

    def md_value_send(self, tag: Tag, value: bytes, op_id: str) -> MessageId:
        """Disperse ``(tag, value)`` so every non-faulty server eventually
        delivers its own coded element (md-value-send in Fig. 1)."""
        mid = self._next_mid()
        full = MDValueFull(
            mid=mid,
            tag=tag,
            value=value,
            origin=self._pid_str,
            op_id=op_id,
            data_units=1.0,
        )
        # Sent in server order, as required by the protocol description.
        self._process.send_many(self._dispersal, full)
        return mid

    def md_meta_send(self, payload: object, op_id: str) -> MessageId:
        """Disperse a metadata payload to every non-faulty server."""
        mid = self._next_mid()
        meta = MDMeta(mid, payload, self._pid_str, op_id)
        self._process.send_many(self._dispersal, meta)
        return mid


class MDServerEngine:
    """Server-side state machine of the message-disperse primitives.

    Parameters
    ----------
    server:
        The owning server process (used to send relay messages).
    server_index:
        The server's position in the global server order (0-based).
    servers_in_order:
        All server pids in the global order.
    f:
        Maximum number of server crashes tolerated.
    code:
        The MDS code used to derive per-server coded elements for MD-VALUE.
    on_value_deliver:
        Callback ``(tag, element, origin, op_id)`` fired exactly once per
        md-value-send whose message reaches this server.
    on_meta_deliver:
        Callback ``(payload, origin, op_id)`` fired exactly once per
        md-meta-send whose message reaches this server.
    encoder:
        The :class:`~repro.erasure.batch.CachedEncoder` shared across the
        cluster's servers.  Every server of the dispersal set encodes the
        *same* value for the same md-value-send, so a shared memoized
        encoder collapses those ``f + 1`` encodes into one (and lets
        workload drivers pre-encode whole batches up front).  An engine
        constructed alone gets a private one over ``code``.
    """

    def __init__(
        self,
        server: Process,
        server_index: int,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        on_value_deliver: Callable[[Tag, CodedElement, str, str], None],
        on_meta_deliver: Callable[[object, str, str], None],
        encoder: Optional[CachedEncoder] = None,
    ) -> None:
        self._server = server
        self._index = server_index
        self._servers = list(servers_in_order)
        self._code = code
        self._encoder = CachedEncoder(code) if encoder is None else encoder
        self._on_value_deliver = on_value_deliver
        self._on_meta_deliver = on_meta_deliver
        # The relay topology is fixed at construction: this server's
        # forward targets within the dispersal set, the (index, pid) pairs
        # outside it, and the two joined in send order for MD-META.  A
        # server outside the dispersal set relays nothing.
        dispersal = self._servers[: f + 1]
        pid = server.pid
        if pid in dispersal:
            position = dispersal.index(pid)
            self._forward_targets = tuple(dispersal[position + 1 :])
            self._outside_dispersal = tuple(
                (idx, s) for idx, s in enumerate(self._servers) if s not in dispersal
            )
        else:
            position = f
            self._forward_targets = ()
            self._outside_dispersal = ()
        self._meta_targets = self._forward_targets + tuple(
            s for _, s in self._outside_dispersal
        )
        # Copies of one md-send due here after the first: the sender's copy
        # and one relay from each earlier dispersal server make ``j + 1`` at
        # position ``j``; one relay from each dispersal server makes
        # ``f + 1`` outside the set.  ``mid -> copies still due``, one map
        # for both primitives (a sender numbers its sends with one counter);
        # a send that loses copies to a crash or a dropped message keeps its
        # entry.
        self._later_copies = position
        self._pending: Dict[MessageId, int] = {}

    def handler_map(self) -> dict:
        """``message type -> unary handler`` (message types are final).

        The owning server publishes it as its :attr:`Process.handlers`
        table, so a message-disperse delivery is one dict lookup and one
        call from the event loop.
        """
        return {
            MDValueFull: self._handle_full,
            MDValueCoded: self._handle_coded,
            MDMeta: self._handle_meta,
        }

    # ------------------------------------------------------------------
    # copy countdown
    # ------------------------------------------------------------------
    def _later_copy(self, mid: MessageId) -> bool:
        """Count one received copy of ``mid``: False for the first (the one
        to relay and deliver), True for every later one.  The pending map
        holds the copies still due after the first and loses the mid with
        the last of them."""
        pending = self._pending
        left = pending.get(mid)
        if left is None:
            if self._later_copies:
                pending[mid] = self._later_copies
            return False
        if left == 1:
            del pending[mid]
        else:
            pending[mid] = left - 1
        return True

    # ------------------------------------------------------------------
    # MD-VALUE
    # ------------------------------------------------------------------
    def _handle_full(self, message: MDValueFull) -> None:
        if self._later_copy(message.mid):
            return
        elements = self._encoder.encode(message.value)
        # Forward the full message to the later servers of the dispersal set.
        self._server.send_many(self._forward_targets, message)
        # Send coded elements to every server outside the dispersal set.
        send = self._server.send
        mid, tag, origin = message.mid, message.tag, message.origin
        op_id, units = message.op_id, self._code.element_data_units
        for idx, server in self._outside_dispersal:
            send(server, MDValueCoded(mid, tag, elements[idx], origin, op_id, units))
        # Deliver the local coded element.
        self._on_value_deliver(tag, elements[self._index], origin, op_id)

    def _handle_coded(self, message: MDValueCoded) -> None:
        if self._later_copy(message.mid):
            return
        self._on_value_deliver(
            message.tag, message.element, message.origin, message.op_id
        )

    # ------------------------------------------------------------------
    # MD-META
    # ------------------------------------------------------------------
    def _handle_meta(self, message: MDMeta) -> None:
        # _later_copy inlined: two of three MD-META events are later copies,
        # and they are 45% of everything a SODA run's event loop pops.
        pending = self._pending
        mid = message.mid
        left = pending.get(mid)
        if left is not None:
            if left == 1:
                del pending[mid]
            else:
                pending[mid] = left - 1
            return
        if self._later_copies:
            pending[mid] = self._later_copies
        if self._meta_targets:
            self._server.send_many(self._meta_targets, message)
        self._on_meta_deliver(message.payload, message.origin, message.op_id)

    # ------------------------------------------------------------------
    # introspection (tests)
    # ------------------------------------------------------------------
    @property
    def pending_copies(self) -> Dict[MessageId, int]:
        """Copies still due per delivered md-send.  Empty once every copy
        of every send has arrived."""
        return dict(self._pending)


# The three handlers' later-copy branch, which the compiled run loop runs
# itself for an engine of exactly this type (a subclass is called as usual).
LATER_COPY_HANDLERS[MDServerEngine] = (
    MDServerEngine._handle_full,
    MDServerEngine._handle_coded,
    MDServerEngine._handle_meta,
)
