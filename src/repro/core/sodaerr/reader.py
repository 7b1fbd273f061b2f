"""The SODAerr reader (Fig. 6, reader side).

Identical to the SODA reader except that it waits for ``k + 2e`` coded
elements of one tag and decodes with the errors-and-erasures decoder, which
tolerates up to ``e`` silently corrupted elements among them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.consistency.stream import HistorySink
from repro.core.soda.reader import SodaReader
from repro.erasure.batch import CachedDecoder
from repro.erasure.mds import MDSCode


class SodaErrReader(SodaReader):
    """A SODAerr read client tolerating up to ``e`` erroneous elements."""

    def __init__(
        self,
        pid: str,
        servers_in_order: Sequence[str],
        f: int,
        code: MDSCode,
        e: int,
        history: HistorySink,
        decoder: Optional[CachedDecoder] = None,
    ) -> None:
        if e < 0:
            raise ValueError("e must be non-negative")
        # ``Phi^-1_err``: ``max_errors=e`` makes the decoder reconstruct from
        # ``k + 2e`` elements, up to ``e`` of which may be corrupted.
        super().__init__(
            pid,
            servers_in_order,
            f,
            code,
            history,
            decode_threshold=code.k + 2 * e,
            decoder=decoder if decoder is not None else CachedDecoder(code, max_errors=e),
        )
        self.e = e
