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

The operation id doubles as the globally unique read identifier the
paper's "additional notes" prescribe, so stale history entries at the
servers cannot interfere with later reads by the same client.  Op ids, one
operation at a time and history recording are
:class:`repro.core.client.RegisterClient`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.consistency.history import READ
from repro.consistency.stream import HistorySink
from repro.core.client import RegisterClient
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


@dataclass(slots=True)
class _ReadOperation:
    """In-flight state of one read operation."""

    op_id: str = ""
    phase: str = "get"  # "get" -> "value"
    get_responses: Dict[str, Tag] = field(default_factory=dict)
    target_tag: Optional[Tag] = None
    # tag -> {server index -> coded element}
    collected: Dict[Tag, Dict[int, CodedElement]] = field(default_factory=dict)


class SodaReader(RegisterClient):
    """A SODA read client."""

    def __init__(
        self,
        pid: str,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        history: HistorySink,
        *,
        decode_threshold: Optional[int] = None,
        decoder: Optional[CachedDecoder] = None,
    ) -> None:
        super().__init__(pid, servers_in_order, history)
        self.f = f
        self.code = code
        self.majority = len(self.servers) // 2 + 1
        #: Number of distinct coded elements (for one tag) needed to decode:
        #: ``k`` for SODA, ``k + 2e`` for SODAerr.
        self.decode_threshold = decode_threshold if decode_threshold is not None else code.k
        #: The cluster's shared memoizing decoder, or a private one.
        self.decoder = decoder if decoder is not None else CachedDecoder(code)
        self._md_sender: Optional[MDSender] = None
        self.handlers = {ReadValueResponse: self._on_element}

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._md_sender = MDSender(self, self.servers, self.f)

    def start_read(self) -> str:
        """Invoke a read; returns the operation id (also the protocol-level
        read identifier registered at the servers)."""
        op_id = self._begin(READ, _ReadOperation())
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
        self._end(value, tag)
