"""The register-client lifecycle every protocol's writers and readers share.

The paper judges atomicity on the history of invocation and response steps
of *well-formed* clients (Section II): a client runs one operation at a
time, and a crashed client starts none.  :class:`RegisterClient` is that
contract, written once.  It names each operation ``write:<pid>:<n>`` /
``read:<pid>:<n>`` (``n`` counts the client's operations), records the
invocation in the cluster's sink before the protocol's first send, records
the response after its last send, and marks an operation that is in flight
when its client crashes as failed.  The protocol clients — SODA's (Figs. 3
and 4), SODAerr's, ABD's and CAS's — keep only their phases.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.consistency.stream import HistorySink
from repro.sim.process import Process


class RegisterClient(Process):
    """A well-formed client of an atomic register.

    A subclass starts an operation with :meth:`_begin`, handing it the
    operation's protocol state (any object with an ``op_id`` attribute),
    and ends it with :meth:`_end`; between the two the state is
    ``self._current``.
    """

    def __init__(self, pid: str, servers: Sequence[str], history: HistorySink) -> None:
        super().__init__(pid)
        self.servers = list(servers)
        self.history = history
        self._current: Optional[Any] = None
        self._op_counter = 0

    @property
    def busy(self) -> bool:
        return self._current is not None

    def _begin(self, kind: str, op: Any, value: Optional[bytes] = None) -> str:
        """Make ``op`` the in-flight ``kind`` operation and record its
        invocation; returns its id.  Refused while another operation is in
        flight or after a crash."""
        if self._current is not None:
            raise RuntimeError(f"{self.pid} already has {self._current.op_id} in flight")
        if self._crashed:
            raise RuntimeError(f"{self.pid} has crashed")
        self._op_counter += 1
        op.op_id = op_id = f"{kind}:{self.pid}:{self._op_counter}"
        self._current = op
        self.history.invoke(op_id, kind, str(self.pid), self.now, value)
        return op_id

    def _end(self, value: Optional[bytes], tag: Any) -> None:
        """Finish the in-flight operation, returning ``value`` (reads) under
        ``tag``; called after the protocol's last send."""
        op_id = self._current.op_id
        self._current = None
        self.history.respond(op_id, self.now, value, tag)

    def on_crash(self) -> None:
        if self._current is not None:
            self.history.mark_failed(self._current.op_id)
