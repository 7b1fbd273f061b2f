"""The SODA server automaton (Fig. 5 of the paper).

Server state (Section IV):

* ``(t, c_s)`` — the locally stored tag and coded element; at most one
  version is ever stored, which is what gives SODA its ``n/(n-f)`` total
  storage cost.
* ``Rc`` — the set of currently registered readers, as pairs
  ``(read identifier, requested tag)``.
* ``H`` — a set of ``(tag, server index, read identifier)`` triples
  tracking which servers sent which coded elements to which readers, used
  to eventually unregister readers (including failed ones).

The server reacts to five inputs: WRITE-GET and READ-GET queries,
md-value-deliver (a new write's coded element), and the three MD-META
payloads READ-VALUE, READ-COMPLETE and READ-DISPERSE.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.message_disperse import MDSender, MDServerEngine
from repro.core.messages import (
    ReadCompletePayload,
    ReadDispersePayload,
    ReadGetRequest,
    ReadGetResponse,
    ReadValuePayload,
    ReadValueResponse,
    WriteAck,
    WriteGetRequest,
    WriteGetResponse,
)
from repro.core.tags import TAG_ZERO, Tag
from repro.erasure.batch import CachedEncoder
from repro.erasure.mds import CodedElement, MDSCode
from repro.metrics.costs import StorageTracker
from repro.sim.failures import DiskErrorModel
from repro.sim.process import Process


@dataclass(slots=True)
class RegisteredReader:
    """One entry of the ``Rc`` set."""

    reader_pid: str
    read_id: str
    tag: Tag
    seq: int


class RegistrationLog:
    """When each read was first registered and last unregistered, over all
    the servers sharing the log — the ``[T1, T2]`` of the paper's ``delta_w``
    (Section V-B).  One entry per read for as long as the log lives, so a
    cluster keeps one only beside a keep-everything history."""

    def __init__(self) -> None:
        # read id -> [T1, latest unregistration, servers still registered]
        self._reads: Dict[str, list] = {}

    def registered(self, read_id: str, now: float) -> None:
        self._reads.setdefault(read_id, [now, now, 0])[2] += 1

    def unregistered(self, read_id: str, now: float) -> None:
        entry = self._reads[read_id]
        entry[1] = now
        entry[2] -= 1

    def window(self, read_id: str, now: float) -> Optional[Tuple[float, float]]:
        """``(T1, T2)``, with ``now`` for ``T2`` while some server still has
        the read registered; ``None`` for a read no server registered."""
        entry = self._reads.get(read_id)
        if entry is None:
            return None
        return entry[0], now if entry[2] else entry[1]


class SodaServer(Process):
    """A SODA storage server.

    Parameters
    ----------
    pid:
        Process id (e.g. ``"s3"``).
    index:
        Position in the global server order; the server stores coded
        element ``index`` of each value.
    servers_in_order:
        All server pids, in the global total order assumed by the paper.
    f:
        Crash-fault tolerance the cluster is configured for.
    code:
        The ``[n, k]`` MDS code in use.
    initial_element:
        The coded element of the initial value ``v0`` stored at start-up.
    storage_tracker:
        Optional :class:`~repro.metrics.costs.StorageTracker` notified
        whenever the amount of locally stored coded data changes.
    registration_log:
        Optional :class:`RegistrationLog` told of every registration and
        unregistration (the servers themselves keep nothing per finished
        read).
    disk_error_model:
        Model for silent local disk read errors.  Plain SODA uses a
        disabled model; SODAerr injects errors through it.
    unregister_threshold:
        Number of distinct coded elements (for one tag) that must have been
        sent to a registered reader before the server stops relaying to it
        (``k`` for SODA, ``k + 2e`` for SODAerr).
    encoder:
        The cluster-shared :class:`~repro.erasure.batch.CachedEncoder`
        handed to the MD-VALUE engine so dispersal-set servers do not each
        re-encode the same value (a server constructed alone gets a
        private one).
    """

    def __init__(
        self,
        pid: str,
        index: int,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        *,
        initial_element: Optional[CodedElement] = None,
        initial_tag: Tag = TAG_ZERO,
        storage_tracker: Optional[StorageTracker] = None,
        registration_log: Optional[RegistrationLog] = None,
        disk_error_model: Optional[DiskErrorModel] = None,
        unregister_threshold: Optional[int] = None,
        encoder: Optional[CachedEncoder] = None,
    ) -> None:
        super().__init__(pid)
        self.index = index
        self.servers_in_order = list(servers_in_order)
        self.f = f
        self.code = code
        self.tag: Tag = initial_tag
        self.element: Optional[CodedElement] = initial_element
        self.registered: Dict[str, RegisteredReader] = {}
        # The paper's ``H`` set of (tag, server index, read id) triples,
        # indexed read id -> tag -> {server indices} so the unregistration
        # threshold is an O(1) set-size check and dropping a finished read
        # is one dict pop.  The flat-set representation used to make every
        # READ-DISPERSE an O(|H|) scan — quadratic over a long run.
        self.history_index: Dict[str, Dict[Tag, Set[int]]] = {}
        # Reads whose READ-COMPLETE overtook their READ-VALUE registration.
        # Kept separate from the genuine history entries: a (TAG_ZERO, index,
        # read_id) sentinel in the history would collide with the real
        # entry recorded when the initial value (tag TAG_ZERO) is relayed.
        self.completed_reads: Set[str] = set()
        # The reads this server is completely done with (unregistered, or
        # registration cancelled because READ-COMPLETE came first): late
        # READ-DISPERSE messages for them are dropped instead of
        # re-accumulating history entries that nothing would ever clean up
        # again.  A reader's reads are sequential and numbered, so they are a
        # watermark per reader — every read up to it — plus the few
        # ``(reader, seq)`` that finished here out of order above it, which
        # the watermark absorbs as the gap closes: O(readers), not O(reads).
        self._done_upto: Dict[str, int] = defaultdict(int)
        self._done_above: Set[Tuple[str, int]] = set()
        self.storage_tracker = storage_tracker
        self.registration_log = registration_log
        self.disk_errors = disk_error_model or DiskErrorModel.disabled()
        self.unregister_threshold = (
            unregister_threshold if unregister_threshold is not None else code.k
        )
        self._md_engine = MDServerEngine(
            server=self,
            server_index=index,
            servers_in_order=servers_in_order,
            f=f,
            code=code,
            on_value_deliver=self._on_md_value_deliver,
            on_meta_deliver=self._on_md_meta_deliver,
            encoder=encoder,
        )
        # MD-VALUE / MD-META traffic (the bulk of a server's deliveries)
        # goes straight from the event loop to the engine's handlers.
        self.handlers = self._md_engine.handler_map()
        # Metadata payload dispatch for _on_md_meta_deliver, same scheme.
        self._meta_handlers = {
            ReadValuePayload: self._on_read_value,
            ReadCompletePayload: self._on_read_complete,
            ReadDispersePayload: self._on_read_disperse,
        }
        self._md_sender: Optional[MDSender] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, simulation) -> None:  # noqa: D102 - see Process.attach
        super().attach(simulation)
        self._md_sender = MDSender(self, self.servers_in_order, self.f)
        if self.storage_tracker is not None:
            self.storage_tracker.update(self.pid, self.stored_data_units)

    @property
    def md_sender(self) -> MDSender:
        if self._md_sender is None:
            raise RuntimeError("server is not attached to a simulation yet")
        return self._md_sender

    @property
    def stored_data_units(self) -> float:
        """Normalized size of the coded data currently stored locally."""
        return self.code.element_data_units if self.element is not None else 0.0

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        # Only the tag queries, which are answered to their sender, land
        # here; message-disperse traffic is bound in ``self.handlers``.
        mtype = type(message)
        if mtype is WriteGetRequest:
            self.send(sender, WriteGetResponse(message.op_id, self.tag))
        elif mtype is ReadGetRequest:
            self.send(sender, ReadGetResponse(message.op_id, self.tag))
        # Any other message type is not for a SODA server; ignore silently
        # (the simulator never produces such messages in practice).

    # ------------------------------------------------------------------
    # md-value-deliver (Fig. 5, response 3)
    # ------------------------------------------------------------------
    def _on_md_value_deliver(
        self, tag: Tag, element: CodedElement, origin: str, op_id: str
    ) -> None:
        # Relay the fresh coded element to every registered reader whose
        # requested tag it satisfies, and let the other servers know via
        # READ-DISPERSE so they can count towards unregistration.
        for reg in list(self.registered.values()):
            if tag >= reg.tag:
                self._send_element_to_reader(reg, tag, element)
        # Store the element if it is newer than the local version.
        if tag > self.tag:
            self.tag = tag
            self.element = element
            if self.storage_tracker is not None:
                self.storage_tracker.update(self.pid, self.stored_data_units)
        # Acknowledge to the writer.
        self.send(origin, WriteAck(op_id, tag, self.index))

    # ------------------------------------------------------------------
    # MD-META deliveries (Fig. 5, responses 4-6)
    # ------------------------------------------------------------------
    def _on_md_meta_deliver(self, payload: object, origin: str, op_id: str) -> None:
        handler = self._meta_handlers.get(type(payload))
        if handler is not None:
            handler(payload)

    def _on_read_value(self, payload: ReadValuePayload) -> None:
        if payload.read_id in self.completed_reads:
            # The READ-COMPLETE for this read has already been processed
            # (it overtook the registration request); do not register.
            self.completed_reads.discard(payload.read_id)
            self._finish_read(payload.reader_pid, payload.seq)
            self.history_index.pop(payload.read_id, None)
            return
        reg = RegisteredReader(
            payload.reader_pid, payload.read_id, payload.tag, payload.seq
        )
        self.registered[payload.read_id] = reg
        if self.registration_log is not None:
            self.registration_log.registered(payload.read_id, self.now)
        if self.element is not None and self.tag >= payload.tag:
            local_element = self._local_disk_read()
            self._send_element_to_reader(reg, self.tag, local_element)

    def _on_read_complete(self, payload: ReadCompletePayload) -> None:
        reg = self.registered.get(payload.read_id)
        if reg is not None:
            self._unregister(reg)
        elif not (
            payload.seq <= self._done_upto[payload.reader_pid]
            or (payload.reader_pid, payload.seq) in self._done_above
        ):  # not over here (the same test as in _on_read_disperse)
            # Registration has not arrived yet; remember the completion so
            # that the late READ-VALUE does not (re-)register the reader.
            # (If this server already unregistered the read via the relay
            # threshold, its READ-VALUE was processed long ago and will not
            # recur — adding a marker then would leak one entry per read.)
            self.completed_reads.add(payload.read_id)

    def _on_read_disperse(self, payload: ReadDispersePayload) -> None:
        if payload.seq <= self._done_upto[payload.reader_pid] or (
            self._done_above
            and (payload.reader_pid, payload.seq) in self._done_above
        ):
            # The read is over as far as this server is concerned; tracking
            # stragglers would only re-grow history nothing cleans up.
            return
        self._note_history(payload.tag, payload.server_index, payload.read_id)
        reg = self.registered.get(payload.read_id)
        if reg is None:
            return
        sent_for_tag = self.history_index[payload.read_id][payload.tag]
        if len(sent_for_tag) >= self.unregister_threshold:
            # Enough distinct coded elements of one tag have reached the
            # reader; it can decode, so stop relaying to it.
            self._unregister(reg)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _send_element_to_reader(
        self, reg: RegisteredReader, tag: Tag, element: CodedElement
    ) -> None:
        self.send(
            reg.reader_pid,
            ReadValueResponse(
                reg.read_id, tag, element, self.index, self.code.element_data_units
            ),
        )
        self._note_history(tag, self.index, reg.read_id)
        self.md_sender.md_meta_send(
            ReadDispersePayload(
                tag, self.index, reg.read_id, reg.reader_pid, reg.seq
            ),
            op_id=reg.read_id,
        )

    def _local_disk_read(self) -> CodedElement:
        """Fetch the locally stored coded element from "disk".

        This is the only place where SODAerr's silent read errors can
        occur; relayed elements from concurrent writes never touch the
        local disk (Section VI).
        """
        element = self.element
        assert element is not None
        data = self.disk_errors.read(self.pid, element.data)
        if data is element.data:  # read back intact (always, for plain SODA)
            return element
        return CodedElement(index=element.index, data=data)

    def _note_history(self, tag: Tag, server_index: int, read_id: str) -> None:
        self.history_index.setdefault(read_id, {}).setdefault(tag, set()).add(
            server_index
        )

    def _unregister(self, reg: RegisteredReader) -> None:
        del self.registered[reg.read_id]
        if self.registration_log is not None:
            self.registration_log.unregistered(reg.read_id, self.now)
        self._finish_read(reg.reader_pid, reg.seq)
        self.history_index.pop(reg.read_id, None)

    def _finish_read(self, reader_pid: str, seq: int) -> None:
        """This server is done with the ``seq``-th read of ``reader_pid``."""
        upto = self._done_upto
        if seq == upto[reader_pid] + 1:
            above = self._done_above
            while above and (reader_pid, seq + 1) in above:
                seq += 1
                above.remove((reader_pid, seq))
            upto[reader_pid] = seq
        elif seq > upto[reader_pid]:
            # An earlier read of this reader is not over here yet.
            self._done_above.add((reader_pid, seq))

    # ------------------------------------------------------------------
    # introspection for tests and experiments
    # ------------------------------------------------------------------
    @property
    def registered_readers(self) -> Dict[str, RegisteredReader]:
        return dict(self.registered)

    @property
    def per_read_entries(self) -> int:
        """Entries of per-read state held now: registrations, history,
        READ-COMPLETE-first markers and reads finished out of order."""
        return (
            len(self.registered)
            + len(self.history_index)
            + len(self.completed_reads)
            + len(self._done_above)
        )

    @property
    def history_entries(self) -> Set[Tuple[Tag, int, str]]:
        """The paper's flat ``H`` set view of the indexed history."""
        return {
            (tag, server_index, read_id)
            for read_id, per_tag in self.history_index.items()
            for tag, indices in per_tag.items()
            for server_index in indices
        }
