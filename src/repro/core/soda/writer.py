"""The SODA writer protocol (Fig. 3 of the paper).

A write proceeds in two phases:

* **write-get** — query every server for its local tag, wait for responses
  from a majority and pick the maximum ``t_max``;
* **write-put** — form the new tag ``t_w = (t_max.z + 1, w)`` and disperse
  ``(t_w, v)`` with the MD-VALUE primitive; the write completes once ``k``
  servers have acknowledged delivery of their coded element.

Op ids, one operation at a time and history recording are
:class:`repro.core.client.RegisterClient`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.consistency.history import WRITE
from repro.consistency.stream import HistorySink
from repro.core.client import RegisterClient
from repro.core.message_disperse import MDSender
from repro.core.messages import WriteAck, WriteGetRequest, WriteGetResponse
from repro.core.tags import Tag, max_tag
from repro.erasure.mds import MDSCode


@dataclass(slots=True)
class _WriteOperation:
    """In-flight state of one write operation."""

    value: bytes
    op_id: str = ""
    phase: str = "get"  # "get" -> "put"
    get_responses: Dict[str, Tag] = field(default_factory=dict)
    tag: Optional[Tag] = None
    acks: set = field(default_factory=set)


class SodaWriter(RegisterClient):
    """A SODA write client."""

    def __init__(
        self,
        pid: str,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        history: HistorySink,
    ) -> None:
        super().__init__(pid, servers_in_order, history)
        self.f = f
        self.code = code
        self.majority = len(self.servers) // 2 + 1
        self.acks_needed = code.k
        self._md_sender: Optional[MDSender] = None
        self.handlers = {WriteAck: self._on_ack}

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._md_sender = MDSender(self, self.servers, self.f)

    def start_write(self, value: bytes) -> str:
        """Invoke a write of ``value``; returns the operation id.  It
        completes asynchronously, visible through the recorded history."""
        op_id = self._begin(WRITE, _WriteOperation(value), value)
        self.send_many(self.servers, WriteGetRequest(op_id=op_id))
        return op_id

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        # Acks are bound in ``self.handlers``; a tag reply is counted per
        # responding server, so it needs the sender.
        op = self._current
        if (
            op is None
            or type(message) is not WriteGetResponse
            or message.op_id != op.op_id
            or op.phase != "get"
        ):
            return
        op.get_responses[sender] = message.tag
        if len(op.get_responses) < self.majority:
            return
        # write-put phase: create the new tag and disperse the value.
        t_max = max_tag(op.get_responses.values())
        op.tag = t_max.next_for(str(self.pid))
        op.phase = "put"
        assert self._md_sender is not None
        self._md_sender.md_value_send(op.tag, op.value, op_id=op.op_id)

    def _on_ack(self, message: WriteAck) -> None:
        op = self._current
        if (
            op is None
            or message.op_id != op.op_id
            or op.phase != "put"
            or message.tag != op.tag
        ):
            return
        op.acks.add(message.server_index)
        if len(op.acks) >= self.acks_needed:
            self._end(None, op.tag)
