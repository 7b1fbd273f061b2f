"""The SODAerr cluster façade.

Uses an ``[n, k]`` MDS code with ``k = n - f - 2e``.  Local disk reads at
the servers go through a :class:`~repro.sim.failures.DiskErrorModel`, so
experiments can inject up to ``e`` silent corruptions per read and verify
that reads still return the correct value (Theorems 6.1/6.2) at the storage
cost of Theorem 6.3.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.soda.cluster import SodaCluster
from repro.core.sodaerr.reader import SodaErrReader
from repro.erasure.batch import CachedDecoder
from repro.erasure.mds import MDSCode
from repro.erasure.rs import ReedSolomonCode
from repro.sim.failures import DiskErrorModel


class SodaErrCluster(SodaCluster):
    """An ``n``-server SODAerr deployment tolerating ``f`` crashes and ``e``
    erroneous coded elements per read."""

    protocol_name = "SODAerr"

    def __init__(
        self,
        n: int,
        f: int,
        e: int,
        *,
        error_probability: float = 0.0,
        error_prone_servers: Optional[Iterable[int]] = None,
        max_total_errors: Optional[int] = None,
        **cluster_kwargs,
    ) -> None:
        if e < 0:
            raise ValueError("e must be non-negative")
        self.e = e
        self._error_probability = error_probability
        self._error_prone_server_indices = (
            list(error_prone_servers) if error_prone_servers is not None else None
        )
        self._max_total_errors = max_total_errors
        self._shared_disk_error_model: Optional[DiskErrorModel] = None
        super().__init__(n, f, **cluster_kwargs)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def _validate_parameters(self) -> None:
        if self.f > (self.n - 1) // 2:
            raise ValueError(
                f"SODAerr requires f <= (n-1)/2, got n={self.n}, f={self.f}"
            )
        if self.n - self.f - 2 * self.e < 1:
            raise ValueError(
                f"k = n - f - 2e must be at least 1, got n={self.n}, f={self.f}, e={self.e}"
            )

    @property
    def k(self) -> int:
        return self.n - self.f - 2 * self.e

    def _build_code(self) -> MDSCode:
        return ReedSolomonCode(self.n, self.n - self.f - 2 * self.e)

    # ------------------------------------------------------------------
    # error injection
    # ------------------------------------------------------------------
    @property
    def disk_error_model(self) -> DiskErrorModel:
        """The shared disk-error model used by every server."""
        if self._shared_disk_error_model is None:
            error_prone = None
            if self._error_prone_server_indices is not None:
                error_prone = [
                    self.server_ids[i] for i in self._error_prone_server_indices
                ]
            # Default cap: never inject more errors than a single read can
            # tolerate unless the experiment explicitly overrides the cap.
            self._shared_disk_error_model = DiskErrorModel(
                self.sim.spawn_rng(),
                error_probability=self._error_probability,
                error_prone_servers=error_prone,
                max_total_errors=self._max_total_errors,
            )
        return self._shared_disk_error_model

    def _disk_error_model(self) -> DiskErrorModel:
        return self.disk_error_model

    def _unregister_threshold(self) -> int:
        return self.code.k + 2 * self.e

    def _decode_threshold(self) -> int:
        return self.code.k + 2 * self.e

    def _build_decoder(self) -> CachedDecoder:
        # Memoize the errors-and-erasures decode per (tag, element-set):
        # Phi^-1_err is the most expensive per-read operation in the
        # repository, and concurrent reads of one version repeat it with
        # byte-identical inputs (the ROADMAP's "SODAerr decode gap").
        return CachedDecoder(self.code, max_errors=self.e)

    def _make_reader(self, pid: str) -> SodaErrReader:
        return SodaErrReader(
            pid, self.server_ids, self.f, self.code, self.e, self.history, self.decoder
        )

    # ------------------------------------------------------------------
    # paper-facing theoretical quantities (Theorem 6.3)
    # ------------------------------------------------------------------
    def theoretical_storage_cost(self) -> float:
        return self.n / (self.n - self.f - 2 * self.e)
