"""Communication and storage cost accounting.

The paper normalizes every cost to the size of the stored value: a full
value is 1 unit, a coded element of an ``[n, k]`` code is ``1/k`` units and
metadata is free (Section II-h).  Protocol messages expose their size via a
``data_units`` attribute and the client operation they serve via ``op_id``;
the trackers below simply aggregate those attributes.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.sim.network import MessageRecord, Network


class CommunicationCostTracker:
    """Attributes message payload sizes to client operations.

    Attach to a network with :meth:`attach`; afterwards
    :meth:`cost_of` returns the total data units sent on behalf of an
    operation (by any process — client, server relays, primitive traffic).
    """

    def __init__(self) -> None:
        # One float per attributed operation: the data units sent for it.
        self._per_op: Dict[Hashable, float] = {}

    def attach(self, network: Network) -> "CommunicationCostTracker":
        # The first tracker per network is accounted inline on the send
        # fast path (no per-message listener call); later trackers fall
        # back to the listener interface.  Aggregates are identical.
        if not network.attach_cost_tracker(self):
            network.on_send(self.record)
        return self

    def record(self, record: MessageRecord) -> None:
        op = record.op_id
        if op is not None:
            self._per_op[op] = self._per_op.get(op, 0.0) + record.data_units

    def cost_of(self, op_id: Hashable) -> float:
        """Total data units transmitted on behalf of ``op_id``."""
        return self._per_op.get(op_id, 0.0)

    def costs(self) -> Dict[Hashable, float]:
        return dict(self._per_op)


class StorageTracker:
    """Tracks the total coded data stored across servers.

    Servers call :meth:`update` whenever the amount of coded data they hold
    changes (storing a new element, garbage-collecting old versions, ...).
    The tracker maintains the current total and the running maximum — the
    paper's worst-case total storage cost.
    """

    def __init__(self) -> None:
        self._per_server: Dict[Hashable, float] = {}
        self.max_total_units = 0.0

    def update(self, server_id: Hashable, data_units: float) -> None:
        """Record that ``server_id`` currently stores ``data_units`` of data."""
        if data_units < 0:
            raise ValueError("stored data cannot be negative")
        self._per_server[server_id] = data_units
        total = self.current_total
        if total > self.max_total_units:
            self.max_total_units = total

    @property
    def current_total(self) -> float:
        return sum(self._per_server.values())

    def peak(self) -> float:
        """The worst-case total storage cost observed so far."""
        return self.max_total_units
