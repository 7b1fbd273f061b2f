"""Replication as a degenerate ``[n, 1]`` MDS code.

The ABD baseline (Attiya–Bar-Noy–Dolev) stores a full copy of the value at
every server.  Expressing replication through the same
:class:`~repro.erasure.mds.MDSCode` interface lets every protocol in this
repository share one storage/communication cost accounting path: a
"coded element" of the replication code is simply the whole value
(``data_units == 1``), so the total storage cost of ``n`` replicas is ``n``
units, matching the paper's Table I row for ABD.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List

import numpy as np

from repro.erasure.mds import CodedElement, DecodingError, MDSCode


class ReplicationCode(MDSCode):
    """The trivial ``[n, 1]`` code: every coded element is the full value."""

    def __init__(self, n: int) -> None:
        super().__init__(n, 1)

    def encode(self, value: bytes) -> List[CodedElement]:
        framed = self._frame_bytes((value,))
        return [CodedElement(index=i, data=framed) for i in range(self.n)]

    def decode(self, elements: Iterable[CodedElement]) -> bytes:
        available = self._collect(elements)
        if not available:
            raise DecodingError("need at least one replica to decode")
        data = next(iter(available.values()))
        return self._unframe(np.frombuffer(data, dtype=np.uint8))

    def decode_with_errors(
        self, elements: Iterable[CodedElement], max_errors: int
    ) -> bytes:
        """Majority vote across replicas: tolerates up to ``max_errors``
        corrupted replicas provided at least ``max_errors + 1`` correct
        replicas are supplied."""
        if max_errors < 0:
            raise ValueError("max_errors must be non-negative")
        available = self._collect(elements)
        if len(available) < 2 * max_errors + 1:
            raise DecodingError(
                f"need at least 2e+1 = {2 * max_errors + 1} replicas to out-vote "
                f"{max_errors} corrupted ones, got {len(available)}"
            )
        counts = Counter(available.values())
        data, votes = counts.most_common(1)[0]
        if votes < len(available) - max_errors:
            raise DecodingError(
                "no replica value has a sufficient majority "
                f"({votes} votes out of {len(available)})"
            )
        return self._unframe(np.frombuffer(data, dtype=np.uint8))
