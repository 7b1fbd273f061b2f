"""The ABD algorithm (Attiya, Bar-Noy, Dolev) in its MWMR form.

ABD is the classical replication-based emulation of an atomic register:
every server stores a full copy of the value together with a tag, and every
operation touches a majority quorum.

* **Write**: (1) query all servers for their tags, wait for a majority,
  pick the maximum and form the new tag ``(z_max + 1, w)``; (2) send the
  ``(tag, value)`` pair to all servers, wait for a majority of
  acknowledgements.
* **Read**: (1) query all servers for their ``(tag, value)`` pairs, wait
  for a majority and select the pair with the maximum tag; (2) *write back*
  that pair to all servers and wait for a majority of acknowledgements
  before returning the value (the write-back is what makes concurrent reads
  atomic rather than merely regular).

Costs (normalized to the value size): the write sends the full value to all
``n`` servers (cost ``n``); the read receives up to ``n`` full values in its
first phase and writes the chosen value back to all ``n`` servers; each
server permanently stores one full value, so the total storage cost is
``n``.  These are the Table I, row 1 figures the paper quotes (the paper
quotes the dominant ``n`` term; the measured read cost also includes the
write-back traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.consistency.history import READ, WRITE
from repro.consistency.stream import HistorySink
from repro.core.client import RegisterClient
from repro.core.tags import TAG_ZERO, Tag, max_tag
from repro.erasure.mds import MDSCode
from repro.erasure.replication import ReplicationCode
from repro.metrics.costs import StorageTracker
from repro.runtime.cluster import RegisterCluster
from repro.sim.process import Process


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class AbdQueryRequest:
    """Phase-1 query (both reads and writes): ask for the stored tag.

    Reads also need the stored value, so servers reply with both; the value
    payload is what makes the read's first phase cost ``~n`` units."""

    op_id: str
    include_value: bool
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class AbdQueryResponse:
    op_id: str
    tag: Tag
    value: Optional[bytes]
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class AbdStoreRequest:
    """Phase-2 store (write) or write-back (read): replace older versions."""

    op_id: str
    tag: Tag
    value: bytes
    data_units: float = 1.0


@dataclass(slots=True, unsafe_hash=True)
class AbdStoreAck:
    op_id: str
    tag: Tag
    data_units: float = 0.0


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class AbdServer(Process):
    """An ABD replica: stores one full ``(tag, value)`` pair."""

    def __init__(
        self,
        pid: str,
        *,
        initial_value: bytes = b"",
        initial_tag: Tag = TAG_ZERO,
        storage_tracker: Optional[StorageTracker] = None,
    ) -> None:
        super().__init__(pid)
        self.tag = initial_tag
        self.value = initial_value
        self.storage_tracker = storage_tracker

    def attach(self, simulation) -> None:
        super().attach(simulation)
        if self.storage_tracker is not None:
            self.storage_tracker.update(self.pid, 1.0)

    def on_message(self, sender: str, message: object) -> None:
        mtype = type(message)
        if mtype is AbdQueryRequest:
            value = self.value if message.include_value else None
            self.send(
                sender,
                AbdQueryResponse(
                    message.op_id,
                    self.tag,
                    value,
                    1.0 if message.include_value else 0.0,
                ),
            )
        elif mtype is AbdStoreRequest:
            if message.tag > self.tag:
                self.tag = message.tag
                self.value = message.value
                if self.storage_tracker is not None:
                    self.storage_tracker.update(self.pid, 1.0)
            self.send(sender, AbdStoreAck(message.op_id, message.tag))


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _AbdWrite:
    value: bytes
    op_id: str = ""
    phase: str = "query"
    responses: Dict[str, Tag] = field(default_factory=dict)
    tag: Optional[Tag] = None
    acks: set = field(default_factory=set)


class AbdWriter(RegisterClient):
    """An ABD write client."""

    def __init__(self, pid: str, servers: Sequence[str], history: HistorySink) -> None:
        super().__init__(pid, servers, history)
        self.majority = len(self.servers) // 2 + 1

    def start_write(self, value: bytes) -> str:
        op_id = self._begin(WRITE, _AbdWrite(value), value)
        self.send_many(self.servers, AbdQueryRequest(op_id=op_id, include_value=False))
        return op_id

    def on_message(self, sender: str, message: object) -> None:
        op = self._current
        if op is None:
            return
        mtype = type(message)
        if mtype is AbdQueryResponse and message.op_id == op.op_id:
            if op.phase != "query":
                return
            op.responses[sender] = message.tag
            if len(op.responses) < self.majority:
                return
            op.tag = max_tag(op.responses.values()).next_for(str(self.pid))
            op.phase = "store"
            self.send_many(
                self.servers, AbdStoreRequest(op_id=op.op_id, tag=op.tag, value=op.value)
            )
        elif mtype is AbdStoreAck and message.op_id == op.op_id:
            if op.phase != "store" or message.tag != op.tag:
                return
            op.acks.add(sender)
            if len(op.acks) >= self.majority:
                self._end(None, op.tag)


@dataclass(slots=True)
class _AbdRead:
    op_id: str = ""
    phase: str = "query"
    responses: Dict[str, tuple] = field(default_factory=dict)
    tag: Optional[Tag] = None
    value: Optional[bytes] = None
    acks: set = field(default_factory=set)


class AbdReader(RegisterClient):
    """An ABD read client (query + write-back)."""

    def __init__(self, pid: str, servers: Sequence[str], history: HistorySink) -> None:
        super().__init__(pid, servers, history)
        self.majority = len(self.servers) // 2 + 1

    def start_read(self) -> str:
        op_id = self._begin(READ, _AbdRead())
        self.send_many(self.servers, AbdQueryRequest(op_id=op_id, include_value=True))
        return op_id

    def on_message(self, sender: str, message: object) -> None:
        op = self._current
        if op is None:
            return
        mtype = type(message)
        if mtype is AbdQueryResponse and message.op_id == op.op_id:
            if op.phase != "query":
                return
            op.responses[sender] = (message.tag, message.value)
            if len(op.responses) < self.majority:
                return
            best_tag = max_tag(t for t, _ in op.responses.values())
            best_value = next(v for t, v in op.responses.values() if t == best_tag)
            op.tag, op.value = best_tag, best_value
            op.phase = "writeback"
            self.send_many(
                self.servers,
                AbdStoreRequest(op_id=op.op_id, tag=best_tag, value=best_value),
            )
        elif mtype is AbdStoreAck and message.op_id == op.op_id:
            if op.phase != "writeback" or message.tag != op.tag:
                return
            op.acks.add(sender)
            if len(op.acks) >= self.majority:
                self._end(op.value, op.tag)


# ----------------------------------------------------------------------
# cluster façade
# ----------------------------------------------------------------------
class AbdCluster(RegisterCluster):
    """An ``n``-replica ABD deployment tolerating ``f <= (n-1)/2`` crashes."""

    protocol_name = "ABD"
    # ABD writers ship the full value; nothing reads the shared encoder
    # cache, so pre-encoding workload batches would be pure waste.
    warm_encoding_effective = False

    def _build_code(self) -> MDSCode:
        # Replication is the degenerate [n, 1] code; it is used only for the
        # uniform cost accounting (each replica holds one "coded element" of
        # size 1).
        return ReplicationCode(self.n)

    def _build_decoder(self):
        # ABD reads return full replicated values; nothing ever decodes.
        return None

    def _make_server(self, index: int, pid: str) -> AbdServer:
        return AbdServer(
            pid,
            initial_value=self.initial_value,
            storage_tracker=self.storage,
        )

    def _make_writer(self, pid: str) -> AbdWriter:
        return AbdWriter(pid, self.server_ids, self.history)

    def _make_reader(self, pid: str) -> AbdReader:
        return AbdReader(pid, self.server_ids, self.history)

    # ------------------------------------------------------------------
    # paper-facing theoretical quantities (Table I, row 1)
    # ------------------------------------------------------------------
    def theoretical_storage_cost(self) -> float:
        return float(self.n)
