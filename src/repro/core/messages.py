"""Protocol messages for SODA / SODAerr and the message-disperse primitives.

Every message is a plain slotted dataclass with typed equality and a field
hash, as are the CAS/ABD messages and ``CodedElement``.  One object is
shared by every destination of a ``send_many`` and by every relay hop, so
**no handler may assign to a message it sent or received**.  That rule is
not enforced per field at construction (``frozen=True`` cost ~0.8 us on each
of 34 constructions per SODA operation): the suite checks it on watched runs
of all protocols (``tests/sent_payloads.py``), and the per-event sites build
messages positionally, with the field order pinned by
``tests/core/test_messages.py`` — docs/perf.md, "Construction per event".

Two attributes drive the cost accounting of Section II-h:

* ``data_units`` — normalized payload size: ``1.0`` for a full value,
  ``1/k`` for a coded element, ``0.0`` for pure metadata;
* ``op_id`` — the client operation the message is sent on behalf of, used
  by :class:`repro.metrics.costs.CommunicationCostTracker`.

Message identifiers for the message-disperse primitives are
``(sender pid, counter)`` pairs (the paper's ``MID = S x N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.tags import Tag
from repro.erasure.mds import CodedElement

#: Unique identifier of one message-disperse invocation.
MessageId = Tuple[str, int]


# ----------------------------------------------------------------------
# client <-> server query phases (metadata only)
# ----------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class WriteGetRequest:
    """write-get phase: the writer asks a server for its local tag."""

    op_id: str
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class WriteGetResponse:
    """A server's reply to :class:`WriteGetRequest` with its stored tag."""

    op_id: str
    tag: Tag
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class ReadGetRequest:
    """read-get phase: the reader asks a server for its local tag."""

    op_id: str
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class ReadGetResponse:
    """A server's reply to :class:`ReadGetRequest` with its stored tag."""

    op_id: str
    tag: Tag
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class WriteAck:
    """Acknowledgement a server sends to the writer after the corresponding
    coded element has been delivered to it by MD-VALUE (Fig. 5, response 3)."""

    op_id: str
    tag: Tag
    server_index: int
    data_units: float = 0.0


@dataclass(slots=True, unsafe_hash=True)
class ReadValueResponse:
    """A coded element relayed from a server to a registered reader.

    Sent both when the reader registers (the server's locally stored
    element) and every time a concurrent write's element is delivered at
    the server while the reader is registered.
    """

    op_id: str  # the read operation's identifier
    tag: Tag
    element: CodedElement
    server_index: int
    data_units: float = 0.0


# ----------------------------------------------------------------------
# MD-VALUE primitive (Section III-A)
# ----------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class MDValueFull:
    """The ``"full"`` message: carries the whole value to the first f+1 servers."""

    mid: MessageId
    tag: Tag
    value: bytes
    origin: str  # pid of the process that invoked md-value-send
    op_id: str
    data_units: float = 1.0


@dataclass(slots=True, unsafe_hash=True)
class MDValueCoded:
    """The ``"coded"`` message: carries one coded element to one server."""

    mid: MessageId
    tag: Tag
    element: CodedElement
    origin: str
    op_id: str
    data_units: float = 0.0


# ----------------------------------------------------------------------
# MD-META primitive payloads (Section III-B)
# ----------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class ReadValuePayload:
    """READ-VALUE: register reader ``read_id`` (process ``reader_pid``) for
    tags greater than or equal to ``tag``.  ``seq`` numbers the reader's
    reads 1, 2, ... (they are sequential), which lets a server remember the
    reads it is done with as one watermark per reader."""

    reader_pid: str
    read_id: str
    tag: Tag
    seq: int


@dataclass(slots=True, unsafe_hash=True)
class ReadCompletePayload:
    """READ-COMPLETE: the read ``read_id`` finished; unregister it."""

    reader_pid: str
    read_id: str
    tag: Tag
    seq: int


@dataclass(slots=True, unsafe_hash=True)
class ReadDispersePayload:
    """READ-DISPERSE: server ``server_index`` sent the coded element of
    ``tag`` to reader ``read_id``, the ``seq``-th read of ``reader_pid``
    (server-to-server bookkeeping)."""

    tag: Tag
    server_index: int
    read_id: str
    reader_pid: str
    seq: int


@dataclass(slots=True, unsafe_hash=True)
class MDMeta:
    """Envelope for a metadata payload dispersed via MD-META."""

    mid: MessageId
    payload: object
    origin: str
    op_id: str
    data_units: float = 0.0
