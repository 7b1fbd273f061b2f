"""The SODA cluster façade.

Wires ``n`` :class:`~repro.core.soda.server.SodaServer` processes,
writer and reader clients and the metrics trackers to a simulation.  SODA
uses an ``[n, k]`` MDS code with ``k = n - f`` and tolerates up to
``f <= (n-1)/2`` server crashes (Section IV).
"""

from __future__ import annotations

from typing import Optional

from repro.consistency.history import History
from repro.core.soda.reader import SodaReader
from repro.core.soda.server import RegistrationLog, SodaServer
from repro.core.soda.writer import SodaWriter
from repro.erasure.mds import MDSCode
from repro.erasure.rs import ReedSolomonCode
from repro.runtime.cluster import RegisterCluster
from repro.sim.failures import DiskErrorModel


class SodaCluster(RegisterCluster):
    """An ``n``-server SODA deployment tolerating ``f`` crashes."""

    protocol_name = "SODA"

    #: The servers' shared log behind :meth:`measured_delta_w`, kept exactly
    #: when the whole history is (``None`` under a streaming sink): per-read
    #: results live as long as the sink that can be asked about them.
    registrations: Optional[RegistrationLog] = None

    def _validate_parameters(self) -> None:
        super()._validate_parameters()
        if self.n - self.f < 1:
            raise ValueError("k = n - f must be at least 1")

    # ------------------------------------------------------------------
    # protocol wiring
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.n - self.f

    def _build_code(self) -> MDSCode:
        return ReedSolomonCode(self.n, self.n - self.f)

    def _disk_error_model(self) -> DiskErrorModel:
        """Plain SODA assumes error-free local reads."""
        return DiskErrorModel.disabled()

    def _unregister_threshold(self) -> int:
        return self.code.k

    def _decode_threshold(self) -> int:
        return self.code.k

    def _make_server(self, index: int, pid: str) -> SodaServer:
        if self.registrations is None and isinstance(self.history, History):
            self.registrations = RegistrationLog()
        return SodaServer(
            pid=pid,
            index=index,
            servers_in_order=self.server_ids,
            f=self.f,
            code=self.code,
            initial_element=self.initial_elements[index],
            storage_tracker=self.storage,
            registration_log=self.registrations,
            disk_error_model=self._disk_error_model(),
            unregister_threshold=self._unregister_threshold(),
            encoder=self.encoder,
        )

    def _make_writer(self, pid: str) -> SodaWriter:
        return SodaWriter(pid, self.server_ids, self.f, self.code, self.history)

    def _make_reader(self, pid: str) -> SodaReader:
        return SodaReader(
            pid,
            self.server_ids,
            self.f,
            self.code,
            self.history,
            decode_threshold=self._decode_threshold(),
            decoder=self.decoder,
        )

    # ------------------------------------------------------------------
    # measured quantities
    # ------------------------------------------------------------------
    def measured_delta_w(self, read_op_id: str) -> int:
        """The measured ``delta_w`` for one read: the number of write
        operations whose execution interval overlaps ``[T1, T2]``, where
        ``T1`` is the earliest time any server registered the read and
        ``T2`` the latest time a server unregistered it (Section V-B).

        The paper phrases ``delta_w`` as the writes *initiated* during
        ``[T1, T2]``; we additionally count writes that were already in
        flight at ``T1`` (their coded elements can still be relayed to the
        registered reader and therefore contribute to the read's cost),
        which keeps the measured cost and the Theorem 5.6 bound directly
        comparable.  If some server never unregistered the read (e.g. the
        execution was truncated), the current simulated time is used as
        ``T2``.
        """
        history = self.full_history()  # raises where there is no log either
        window = self.registrations.window(read_op_id, self.sim.now)
        if window is None:
            return 0
        t1, t2 = window
        count = 0
        for w in history.writes():
            ends = w.responded_at if w.responded_at is not None else float("inf")
            if w.invoked_at <= t2 and ends >= t1:
                count += 1
        return count

    # ------------------------------------------------------------------
    # paper-facing theoretical quantities (used in experiment reports)
    # ------------------------------------------------------------------
    def theoretical_storage_cost(self) -> float:
        """Theorem 5.3: total storage cost ``n / (n - f)``."""
        return self.n / (self.n - self.f)
