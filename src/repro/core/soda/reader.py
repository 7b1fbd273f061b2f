"""The SODA reader protocol (Fig. 4 of the paper).

A read proceeds in three phases:

* **read-get** — query every server for its local tag, wait for a majority
  of responses and pick the maximum ``t_r``;
* **read-value** — register with all servers via
  ``md-meta-send(READ-VALUE, (r, t_r))`` and accumulate coded elements
  (both locally stored ones and ones relayed from concurrent writes) until
  ``k`` elements with one common tag ``t >= t_r`` are available; decode;
* **read-complete** — announce completion via
  ``md-meta-send(READ-COMPLETE, (r, t_r))`` so servers unregister the
  reader, then return the decoded value.

Each read operation uses a globally unique read identifier (the operation
id), as prescribed by the paper's "additional notes" to keep stale history
entries at the servers from interfering with later reads by the same
client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.consistency.history import READ, History
from repro.core.message_disperse import MDSender
from repro.core.messages import (
    ReadCompletePayload,
    ReadGetRequest,
    ReadGetResponse,
    ReadValuePayload,
    ReadValueResponse,
)
from repro.core.tags import Tag, max_tag
from repro.erasure.batch import CachedDecoder
from repro.erasure.mds import CodedElement, MDSCode
from repro.sim.process import Process


@dataclass(slots=True)
class _ReadOperation:
    """In-flight state of one read operation."""

    op_id: str
    phase: str = "get"  # "get" -> "value" -> "done"
    get_responses: Dict[str, Tag] = field(default_factory=dict)
    target_tag: Optional[Tag] = None
    # tag -> {server index -> coded element}
    collected: Dict[Tag, Dict[int, CodedElement]] = field(default_factory=dict)
    callback: Optional[Callable[[bytes, Tag], None]] = None


class SodaReader(Process):
    """A SODA read client."""

    def __init__(
        self,
        pid: str,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        history: Optional[History] = None,
        *,
        decode_threshold: Optional[int] = None,
        decoder: Optional[CachedDecoder] = None,
    ) -> None:
        super().__init__(pid)
        self.servers = list(servers_in_order)
        self.f = f
        self.code = code
        self.history = history
        self.majority = len(self.servers) // 2 + 1
        #: Number of distinct coded elements (for one tag) needed to decode:
        #: ``k`` for SODA, ``k + 2e`` for SODAerr.
        self.decode_threshold = decode_threshold if decode_threshold is not None else code.k
        #: The cluster's shared memoizing decoder, or a private one.
        self.decoder = decoder if decoder is not None else CachedDecoder(code)
        self._md_sender: Optional[MDSender] = None
        self._current: Optional[_ReadOperation] = None
        self._op_counter = 0
        self.handlers = {ReadValueResponse: self._on_element}

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._md_sender = MDSender(self, self.servers, self.f)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._current is not None

    def start_read(
        self, callback: Optional[Callable[[bytes, Tag], None]] = None
    ) -> str:
        """Invoke a read; returns the operation id (also the protocol-level
        read identifier registered at the servers)."""
        if self._current is not None:
            raise RuntimeError(
                f"reader {self.pid} already has read {self._current.op_id} in flight"
            )
        if self.is_crashed:
            raise RuntimeError(f"reader {self.pid} has crashed")
        self._op_counter += 1
        op_id = f"read:{self.pid}:{self._op_counter}"
        self._current = _ReadOperation(op_id=op_id, callback=callback)
        if self.history is not None:
            self.history.invoke(op_id, READ, str(self.pid), self.now)
        self.send_many(self.servers, ReadGetRequest(op_id=op_id))
        return op_id

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        # Coded elements are bound in ``self.handlers``; a tag reply is
        # counted per responding server, so it needs the sender.
        op = self._current
        if (
            op is None
            or type(message) is not ReadGetResponse
            or message.op_id != op.op_id
            or op.phase != "get"
        ):
            return
        op.get_responses[sender] = message.tag
        if len(op.get_responses) < self.majority:
            return
        op.target_tag = max_tag(op.get_responses.values())
        op.phase = "value"
        assert self._md_sender is not None
        self._md_sender.md_meta_send(
            ReadValuePayload(
                reader_pid=str(self.pid),
                read_id=op.op_id,
                tag=op.target_tag,
                seq=self._op_counter,  # reads are sequential: the current one's number
            ),
            op_id=op.op_id,
        )

    def _on_element(self, message: ReadValueResponse) -> None:
        op = self._current
        if op is None or message.op_id != op.op_id or op.phase != "value":
            return
        assert op.target_tag is not None
        if message.tag < op.target_tag:
            # Servers never send elements older than the requested tag; be
            # defensive anyway so a buggy server cannot violate atomicity.
            return
        per_tag = op.collected.setdefault(message.tag, {})
        per_tag[message.element.index] = message.element
        if len(per_tag) < self.decode_threshold:
            return
        tag = message.tag
        value = self.decoder.decode(tag, list(per_tag.values()))
        # read-complete: announce, then return the decoded value.
        op.phase = "done"
        assert self._md_sender is not None
        self._md_sender.md_meta_send(
            ReadCompletePayload(
                reader_pid=str(self.pid),
                read_id=op.op_id,
                tag=op.target_tag,
                seq=self._op_counter,  # reads are sequential: the current one's number
            ),
            op_id=op.op_id,
        )
        self._current = None
        if self.history is not None:
            self.history.respond(op.op_id, self.now, value=value, tag=tag)
        if op.callback is not None:
            op.callback(value, tag)

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        if self._current is not None and self.history is not None:
            self.history.mark_failed(self._current.op_id)
