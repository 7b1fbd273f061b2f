"""Matrix-based MDS code with a systematic Vandermonde generator matrix.

This backend implements the same :class:`~repro.erasure.mds.MDSCode`
interface as :class:`~repro.erasure.rs.ReedSolomonCode` but performs all
decoding by linear algebra over GF(2^8):

* erasure-only decoding solves a ``k x k`` system for any ``k`` available
  elements (exactly like the Reed–Solomon fast path);
* errors-and-erasures decoding uses a combinatorial decode-and-verify
  strategy: decode from a candidate ``k``-subset, re-encode, and accept the
  candidate iff it agrees with at least ``|available| - e`` of the available
  elements.  For an MDS code this threshold uniquely identifies the true
  value when at most ``e`` elements are corrupted.

The combinatorial decoder is exponential in ``e`` in the worst case, but
``e`` is a small constant in the SODAerr setting (the paper's motivating
example uses one or two error-prone disks); it mainly serves as an
independent cross-check of the algebraic Reed–Solomon decoder in the
property-based tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.erasure.gf import GF256, default_field
from repro.erasure.linear import DEFAULT_DECODE_CACHE_SIZE, LinearCode
from repro.erasure.matrix import systematic_generator
from repro.erasure.mds import CodedElement, DecodingError


class VandermondeCode(LinearCode):
    """A systematic ``[n, k]`` MDS code built from a Vandermonde matrix.

    Encoding, erasure decoding and the batched encode_many/decode_many
    pipeline come from :class:`~repro.erasure.linear.LinearCode`; this class
    adds only the generator construction and the combinatorial
    errors-and-erasures decoder.
    """

    def __init__(
        self,
        n: int,
        k: int,
        field: GF256 | None = None,
        *,
        decode_cache_size: int = DEFAULT_DECODE_CACHE_SIZE,
    ) -> None:
        super().__init__(n, k)
        if n > 255:
            raise ValueError(f"GF(2^8) Vandermonde codes support n <= 255, got {n}")
        field = field or default_field()
        # (k x n) generator; transpose gives the (n x k) encode matrix.
        self._generator = systematic_generator(field, n, k)
        self._init_linear(
            field,
            self._generator.T.copy(),
            decode_cache_size=decode_cache_size,
        )

    def _rows_for(
        self, available: Dict[int, bytes], indices: Tuple[int, ...]
    ) -> np.ndarray:
        return self._gather_rows(
            (available,), indices, self._stripe_length(available)
        )[0]

    # ------------------------------------------------------------------
    # errors-and-erasures decoding (combinatorial decode-and-verify)
    # ------------------------------------------------------------------
    def decode_with_errors(
        self, elements: Iterable[CodedElement], max_errors: int
    ) -> bytes:
        if max_errors < 0:
            raise ValueError("max_errors must be non-negative")
        available = self._collect(elements)
        if len(available) < self.k + 2 * max_errors:
            raise DecodingError(
                f"need at least k + 2e = {self.k + 2 * max_errors} elements, "
                f"got {len(available)}"
            )
        if max_errors == 0:
            return self.decode([CodedElement(i, d) for i, d in available.items()])
        self._check_indices(available)

        indices = sorted(available)
        threshold = len(indices) - max_errors
        for subset in combinations(indices, self.k):
            candidate_rows = self._rows_for(available, subset)
            inverse = self._decode_matrix(tuple(subset))
            message = self.field.matmul(inverse, candidate_rows)
            codeword = self.field.matmul(self._encode_matrix, message)
            agreements = sum(
                1
                for idx in indices
                if codeword[idx].tobytes() == available[idx]
            )
            if agreements >= threshold:
                return self._unframe(message)
        raise DecodingError(
            f"no candidate decoding agrees with at least {threshold} of the "
            f"{len(indices)} supplied elements (more than {max_errors} errors?)"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def generator_matrix(self) -> np.ndarray:
        """The ``k x n`` systematic generator matrix."""
        return self._generator.copy()
