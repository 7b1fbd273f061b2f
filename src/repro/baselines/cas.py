"""The Coded Atomic Storage (CAS) algorithm of Cadambe et al. [1].

CAS is the erasure-coded baseline the paper compares against.  It uses an
``[n, k]`` MDS code with ``k = n - 2f`` and quorums of size
``ceil((n + k) / 2) = n - f``.  Each operation has three phases for writes
and two for reads:

* **Write**: *query* the servers for their highest finalized tag (quorum),
  form the new tag; *pre-write* one coded element to each server (quorum of
  acks); *finalize* the tag (quorum of acks).  Only finalized tags are
  visible to readers, which is what makes concurrent reads safe even though
  different servers may hold elements of different pending writes.
* **Read**: *query* for the highest finalized tag; *finalize* that tag at
  the servers, which reply with their coded element for it if they hold
  one; decode once ``k`` elements arrive (the quorum intersection argument
  guarantees at least ``k`` of the responding servers do hold it).

Communication cost per operation is ``n / k = n / (n - 2f)`` data units.
CAS never removes old coded elements, so its storage cost grows with the
number of writes — that is exactly the weakness CASGC (garbage collection,
see :mod:`repro.baselines.casgc`) and SODA address.

This implementation is reconstructed from the algorithm description in [1]
(no open-source comparator is available offline); it is intentionally kept
close to the above phase structure so the measured costs reflect the
protocol rather than implementation shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set

from repro.consistency.history import READ, WRITE
from repro.consistency.stream import HistorySink
from repro.core.client import RegisterClient
from repro.core.tags import TAG_ZERO, Tag, max_tag
from repro.erasure.batch import CachedDecoder, CachedEncoder
from repro.erasure.mds import CodedElement, MDSCode
from repro.erasure.rs import ReedSolomonCode
from repro.metrics.costs import StorageTracker
from repro.runtime.cluster import RegisterCluster
from repro.sim.process import Process


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class CasQueryRequest:
    """Ask a server for its highest *finalized* tag."""

    op_id: str
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class CasQueryResponse:
    op_id: str
    tag: Tag
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class CasPreWriteRequest:
    """Store one coded element under ``tag`` with the 'pre' label."""

    op_id: str
    tag: Tag
    element: CodedElement
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class CasPreWriteAck:
    op_id: str
    tag: Tag
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class CasFinalizeRequest:
    """Mark ``tag`` as finalized.  ``reply_with_element`` is set by readers,
    which need the coded elements back to decode."""

    op_id: str
    tag: Tag
    reply_with_element: bool
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class CasFinalizeAck:
    op_id: str
    tag: Tag
    element: Optional[CodedElement]
    server_index: int
    data_units: float = 0.0


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _StoredVersion:
    element: Optional[CodedElement]
    finalized: bool


class CasServer(Process):
    """A CAS / CASGC storage server.

    ``gc_depth`` controls garbage collection: ``None`` keeps every version
    (plain CAS); an integer ``delta`` keeps coded elements only for the
    ``delta + 1`` highest *finalized-or-pending* tags (CASGC).  Metadata
    (tags, labels) is always kept — only coded elements are dropped, which
    is what the storage cost model counts.
    """

    def __init__(
        self,
        pid: str,
        index: int,
        code: MDSCode,
        *,
        initial_element: Optional[CodedElement] = None,
        gc_depth: Optional[int] = None,
        storage_tracker: Optional[StorageTracker] = None,
    ) -> None:
        super().__init__(pid)
        self.index = index
        self.code = code
        self.gc_depth = gc_depth
        self.storage_tracker = storage_tracker
        self.versions: Dict[Tag, _StoredVersion] = {}
        # Incremental views of ``versions`` so the hot paths stay O(1) as
        # the version map grows over a long run: the max finalized tag
        # (every query used to scan all versions) and the set of tags that
        # still hold a coded element (storage accounting used to sum over
        # all versions, GC used to sort them).
        self._max_finalized: Tag = TAG_ZERO
        self._with_elements: Set[Tag] = set()
        if initial_element is not None:
            self.versions[TAG_ZERO] = _StoredVersion(element=initial_element, finalized=True)
            self._with_elements.add(TAG_ZERO)
        self.gc_evictions = 0

    # -- storage accounting ---------------------------------------------
    @property
    def stored_data_units(self) -> float:
        return len(self._with_elements) * self.code.element_data_units

    def _notify_storage(self) -> None:
        if self.storage_tracker is not None:
            self.storage_tracker.update(self.pid, self.stored_data_units)

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._notify_storage()

    # -- request handling -------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        mtype = type(message)
        if mtype is CasQueryRequest:
            self.send(sender, CasQueryResponse(message.op_id, self._max_finalized))
        elif mtype is CasPreWriteRequest:
            existing = self.versions.get(message.tag)
            if existing is None:
                self.versions[message.tag] = _StoredVersion(
                    element=message.element, finalized=False
                )
                self._with_elements.add(message.tag)
            elif existing.element is None:
                existing.element = message.element
                self._with_elements.add(message.tag)
            self._garbage_collect()
            self._notify_storage()
            self.send(sender, CasPreWriteAck(message.op_id, message.tag))
        elif mtype is CasFinalizeRequest:
            version = self.versions.get(message.tag)
            if version is None:
                version = _StoredVersion(element=None, finalized=True)
                self.versions[message.tag] = version
            else:
                version.finalized = True
            if message.tag > self._max_finalized:
                self._max_finalized = message.tag
            self._garbage_collect()
            self._notify_storage()
            element = version.element if message.reply_with_element else None
            self.send(
                sender,
                CasFinalizeAck(
                    message.op_id,
                    message.tag,
                    element,
                    self.index,
                    self.code.element_data_units if element is not None else 0.0,
                ),
            )

    # -- garbage collection (CASGC only) ----------------------------------
    def _garbage_collect(self) -> None:
        if self.gc_depth is None:
            return
        # ``_with_elements`` is bounded by gc_depth + 1 + in-flight writes,
        # so this sort stays O(delta log delta) however long the run is.
        tags_with_elements = sorted(self._with_elements, reverse=True)
        for tag in tags_with_elements[self.gc_depth + 1 :]:
            self.versions[tag].element = None
            self._with_elements.discard(tag)
            self.gc_evictions += 1


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _CasWrite:
    value: bytes
    op_id: str = ""
    phase: str = "query"
    query_responses: Dict[str, Tag] = field(default_factory=dict)
    tag: Optional[Tag] = None
    prewrite_acks: Set[str] = field(default_factory=set)
    finalize_acks: Set[str] = field(default_factory=set)


class CasWriter(RegisterClient):
    """A CAS write client (query / pre-write / finalize)."""

    def __init__(
        self,
        pid: str,
        servers: Sequence[str],
        code: MDSCode,
        quorum_size: int,
        history: HistorySink,
        encoder: Optional[CachedEncoder] = None,
    ) -> None:
        super().__init__(pid, servers, history)
        self.code = code
        self.quorum = quorum_size
        #: The cluster's shared memoizing encoder, or a private one.
        self.encoder = CachedEncoder(code) if encoder is None else encoder

    def start_write(self, value: bytes) -> str:
        op_id = self._begin(WRITE, _CasWrite(value), value)
        self.send_many(self.servers, CasQueryRequest(op_id=op_id))
        return op_id

    def on_message(self, sender: str, message: object) -> None:
        op = self._current
        if op is None:
            return
        mtype = type(message)
        if mtype is CasQueryResponse and message.op_id == op.op_id:
            if op.phase != "query":
                return
            op.query_responses[sender] = message.tag
            if len(op.query_responses) < self.quorum:
                return
            op.tag = max_tag(op.query_responses.values()).next_for(str(self.pid))
            op.phase = "prewrite"
            units = self.code.element_data_units
            for server, element in zip(self.servers, self.encoder.encode(op.value)):
                self.send(server, CasPreWriteRequest(op.op_id, op.tag, element, units))
        elif mtype is CasPreWriteAck and message.op_id == op.op_id:
            if op.phase != "prewrite" or message.tag != op.tag:
                return
            op.prewrite_acks.add(sender)
            if len(op.prewrite_acks) < self.quorum:
                return
            op.phase = "finalize"
            self.send_many(
                self.servers,
                CasFinalizeRequest(op_id=op.op_id, tag=op.tag, reply_with_element=False),
            )
        elif mtype is CasFinalizeAck and message.op_id == op.op_id:
            if op.phase != "finalize" or message.tag != op.tag:
                return
            op.finalize_acks.add(sender)
            if len(op.finalize_acks) >= self.quorum:
                self._end(None, op.tag)


@dataclass(slots=True)
class _CasRead:
    op_id: str = ""
    phase: str = "query"  # "query" -> "collect"
    query_responses: Dict[str, Tag] = field(default_factory=dict)
    tag: Optional[Tag] = None
    elements: Dict[int, CodedElement] = field(default_factory=dict)


class CasReader(RegisterClient):
    """A CAS read client (query / finalize-and-collect)."""

    def __init__(
        self,
        pid: str,
        servers: Sequence[str],
        code: MDSCode,
        quorum_size: int,
        history: HistorySink,
        decoder: Optional[CachedDecoder] = None,
    ) -> None:
        super().__init__(pid, servers, history)
        self.code = code
        self.quorum = quorum_size
        #: The cluster's shared memoizing decoder, or a private one.
        self.decoder = decoder if decoder is not None else CachedDecoder(code)

    def start_read(self) -> str:
        op_id = self._begin(READ, _CasRead())
        self.send_many(self.servers, CasQueryRequest(op_id=op_id))
        return op_id

    def on_message(self, sender: str, message: object) -> None:
        op = self._current
        if op is None:
            return
        mtype = type(message)
        if mtype is CasQueryResponse and message.op_id == op.op_id:
            if op.phase != "query":
                return
            op.query_responses[sender] = message.tag
            if len(op.query_responses) < self.quorum:
                return
            op.tag = max_tag(op.query_responses.values())
            op.phase = "collect"
            self.send_many(
                self.servers,
                CasFinalizeRequest(op_id=op.op_id, tag=op.tag, reply_with_element=True),
            )
        elif mtype is CasFinalizeAck and message.op_id == op.op_id:
            if op.phase != "collect" or message.tag != op.tag:
                return
            if message.element is not None:
                op.elements[message.element.index] = message.element
            if len(op.elements) >= self.code.k:
                value = self.decoder.decode(op.tag, list(op.elements.values()))
                self._end(value, op.tag)


# ----------------------------------------------------------------------
# cluster façade
# ----------------------------------------------------------------------
class CasCluster(RegisterCluster):
    """An ``n``-server CAS deployment tolerating ``f`` crashes (``k = n - 2f``)."""

    protocol_name = "CAS"

    #: Garbage-collection depth; ``None`` disables GC (plain CAS).
    gc_depth: Optional[int] = None

    def _validate_parameters(self) -> None:
        super()._validate_parameters()
        if self.n - 2 * self.f < 1:
            raise ValueError(
                f"CAS requires k = n - 2f >= 1, got n={self.n}, f={self.f}"
            )

    @property
    def k(self) -> int:
        return self.n - 2 * self.f

    @property
    def quorum_size(self) -> int:
        """``ceil((n + k) / 2)`` — with ``k = n - 2f`` this is ``n - f``."""
        return -(-(self.n + self.k) // 2)

    def _build_code(self) -> MDSCode:
        return ReedSolomonCode(self.n, self.n - 2 * self.f)

    def _make_server(self, index: int, pid: str) -> CasServer:
        return CasServer(
            pid,
            index,
            self.code,
            initial_element=self.initial_elements[index],
            gc_depth=self.gc_depth,
            storage_tracker=self.storage,
        )

    def _make_writer(self, pid: str) -> CasWriter:
        return CasWriter(
            pid, self.server_ids, self.code, self.quorum_size, self.history, self.encoder
        )

    def _make_reader(self, pid: str) -> CasReader:
        return CasReader(
            pid, self.server_ids, self.code, self.quorum_size, self.history, self.decoder
        )

    # ------------------------------------------------------------------
    # paper-facing theoretical quantities
    # ------------------------------------------------------------------
    def theoretical_storage_cost(self, versions: Optional[int] = None) -> float:
        """Plain CAS keeps every version: the storage cost after ``versions``
        completed writes is ``(versions + 1) * n / (n - 2f)`` (the ``+ 1``
        accounts for the initial value)."""
        if versions is None:
            versions = len([w for w in self.full_history().writes() if w.is_complete])
        return (versions + 1) * self.n / (self.n - 2 * self.f)
