"""The SODA writer protocol (Fig. 3 of the paper).

A write proceeds in two phases:

* **write-get** — query every server for its local tag, wait for responses
  from a majority and pick the maximum ``t_max``;
* **write-put** — form the new tag ``t_w = (t_max.z + 1, w)`` and disperse
  ``(t_w, v)`` with the MD-VALUE primitive; the write completes once ``k``
  servers have acknowledged delivery of their coded element.

The writer is well-formed: it refuses to start a new operation while one is
in progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.consistency.history import WRITE, History
from repro.core.message_disperse import MDSender
from repro.core.messages import WriteAck, WriteGetRequest, WriteGetResponse
from repro.core.tags import Tag, max_tag
from repro.erasure.mds import MDSCode
from repro.sim.process import Process


@dataclass(slots=True)
class _WriteOperation:
    """In-flight state of one write operation."""

    op_id: str
    value: bytes
    phase: str = "get"  # "get" -> "put" -> "done"
    get_responses: Dict[str, Tag] = field(default_factory=dict)
    tag: Optional[Tag] = None
    acks: set = field(default_factory=set)
    callback: Optional[Callable[[Tag], None]] = None


class SodaWriter(Process):
    """A SODA write client."""

    def __init__(
        self,
        pid: str,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        history: Optional[History] = None,
    ) -> None:
        super().__init__(pid)
        self.servers = list(servers_in_order)
        self.f = f
        self.code = code
        self.history = history
        self.majority = len(self.servers) // 2 + 1
        self.acks_needed = code.k
        self._md_sender: Optional[MDSender] = None
        self._current: Optional[_WriteOperation] = None
        self._op_counter = 0
        self.handlers = {WriteAck: self._on_ack}

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._md_sender = MDSender(self, self.servers, self.f)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._current is not None

    def start_write(
        self, value: bytes, callback: Optional[Callable[[Tag], None]] = None
    ) -> str:
        """Invoke a write of ``value``; returns the operation id.

        The operation completes asynchronously; its completion is visible
        through the recorded history, the optional callback and
        :meth:`is_complete`.
        """
        if self._current is not None:
            raise RuntimeError(
                f"writer {self.pid} already has write {self._current.op_id} in flight"
            )
        if self.is_crashed:
            raise RuntimeError(f"writer {self.pid} has crashed")
        self._op_counter += 1
        op_id = f"write:{self.pid}:{self._op_counter}"
        self._current = _WriteOperation(op_id=op_id, value=value, callback=callback)
        if self.history is not None:
            self.history.invoke(op_id, WRITE, str(self.pid), self.now, value=value)
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
        if len(op.acks) < self.acks_needed:
            return
        op.phase = "done"
        self._current = None
        if self.history is not None:
            self.history.respond(op.op_id, self.now, tag=op.tag)
        if op.callback is not None:
            op.callback(op.tag)

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        if self._current is not None and self.history is not None:
            self.history.mark_failed(self._current.op_id)
