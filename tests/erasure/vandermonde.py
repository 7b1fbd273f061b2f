"""A second MDS code, kept beside the tests as an independent cross-check of
:class:`~repro.erasure.rs.ReedSolomonCode`.

Nothing under ``src/`` runs it: the protocols use one systematic RS(n, k)
code.  This code implements the same :class:`~repro.erasure.mds.MDSCode`
interface but builds its generator from a Vandermonde matrix and decodes
by linear algebra over GF(2^8) only:

* erasure-only decoding solves a ``k x k`` system for any ``k`` available
  elements (the shared :class:`~repro.erasure.linear.LinearCode` path);
* errors-and-erasures decoding uses a combinatorial decode-and-verify
  strategy: decode from a candidate ``k``-subset, re-encode, and accept the
  candidate iff it agrees with at least ``|available| - e`` of the available
  elements.  For an MDS code this threshold uniquely identifies the true
  value when at most ``e`` elements are corrupted.

The combinatorial decoder is exponential in ``e``, which is a small
constant in every test.  Test modules in this directory import it as
``from vandermonde import VandermondeCode``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.erasure.gf import GF256, default_field
from repro.erasure.linear import DEFAULT_DECODE_CACHE_SIZE, LinearCode
from repro.erasure.matrix import gauss_jordan_invert
from repro.erasure.mds import CodedElement, DecodingError


def vandermonde(field: GF256, rows: int, cols: int, xs: list[int] | None = None) -> np.ndarray:
    """A ``rows x cols`` Vandermonde matrix ``V[i, j] = x_i^j``.

    ``xs`` are the evaluation points; they default to consecutive powers of
    the field generator (``alpha^0, alpha^1, ...``), which are pairwise
    distinct for ``rows <= 255`` and therefore yield an MDS generator matrix.
    """
    if xs is None:
        xs = [field.alpha_pow(i) for i in range(rows)]
    if len(xs) != rows:
        raise ValueError("need exactly one evaluation point per row")
    if len(set(xs)) != rows:
        raise ValueError("evaluation points must be pairwise distinct")
    V = np.zeros((rows, cols), dtype=np.uint8)
    for i, x in enumerate(xs):
        acc = 1
        for j in range(cols):
            V[i, j] = acc
            acc = field.mul(acc, x)
    return V


def systematic_generator(field: GF256, n: int, k: int) -> np.ndarray:
    """A systematic ``k x n`` MDS generator matrix.

    Built from a ``n x k`` Vandermonde matrix ``V`` (with distinct
    evaluation points) by right-multiplying with the inverse of its first
    ``k`` rows, i.e. the returned matrix ``G`` (shape ``k x n``, column ``i``
    producing coded element ``i``) satisfies ``G[:, :k] = I`` and every
    ``k x k`` column submatrix is invertible.
    """
    if not (1 <= k <= n <= 255):
        raise ValueError(f"require 1 <= k <= n <= 255, got n={n} k={k}")
    V = vandermonde(field, n, k)  # n x k
    top_inv = gauss_jordan_invert(field, V[:k, :])
    encode_matrix = field.matmul(V, top_inv)  # n x k, first k rows identity
    return encode_matrix.T.copy()  # k x n


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

    @property
    def generator_matrix(self) -> np.ndarray:
        """The ``k x n`` systematic generator matrix."""
        return self._generator.copy()
