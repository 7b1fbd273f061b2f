"""Shared machinery for matrix-defined (linear) MDS codes.

A linear code — the classical Reed–Solomon code here, and the Vandermonde
cross-check code the tests keep — encodes by one matrix product
``G @ message`` and decodes erasures by inverting the ``k x k`` submatrix
of ``G`` selected by the available element indices.  :class:`LinearCode`
hosts that shared pipeline:

* single-value ``encode`` / ``decode``;
* batched ``encode_many`` / ``decode_many`` that frame same-sized values
  into one ``(batch, k, stripe)`` block per
  :meth:`~repro.erasure.gf.GF256.matmul_many` call, which shares the
  per-call overhead of small values over the batch;
* a systematic encode matrix (identity on top, as both codes build)
  is detected once: only the ``n - k`` parity rows are ever multiplied, and
  the first ``k`` coded elements are slices of the framed bytes;
* a bounded LRU cache of inverted decode submatrices — there are C(n, k)
  distinct index sets, which grows combinatorially for large ``n``, so an
  unbounded cache is a memory leak in long crash-heavy runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.erasure.gf import KERNEL_BLOCK, GF256
from repro.erasure.matrix import gauss_jordan_invert, identity
from repro.erasure.mds import CodedElement, DecodingError, MDSCode

#: Default bound on cached inverted decode submatrices per code instance.
DEFAULT_DECODE_CACHE_SIZE = 128


class LinearCode(MDSCode):
    """An ``[n, k]`` MDS code defined by an ``n x k`` encode matrix.

    Subclasses construct their encode matrix and then call
    :meth:`_init_linear`; everything else (encoding, erasure decoding, the
    batched variants and the decode-matrix cache) is shared.
    """

    def _init_linear(
        self,
        field: GF256,
        encode_matrix: np.ndarray,
        *,
        decode_cache_size: int = DEFAULT_DECODE_CACHE_SIZE,
    ) -> None:
        if decode_cache_size < 1:
            raise ValueError("decode_cache_size must be at least 1")
        self.field = field
        self._encode_matrix = np.asarray(encode_matrix, dtype=np.uint8)
        if self._encode_matrix.shape != (self.n, self.k):
            raise ValueError(
                f"encode matrix must have shape ({self.n}, {self.k}), "
                f"got {self._encode_matrix.shape}"
            )
        self._decode_cache_size = decode_cache_size
        self._decode_cache: "OrderedDict[Tuple[int, ...], np.ndarray]" = OrderedDict()
        # The rows encoding has to multiply: all n of them in general, only
        # the n - k parity rows under an identity block — the first k coded
        # elements are then the rows of the frame itself.
        systematic = np.array_equal(self._encode_matrix[: self.k], identity(self.k))
        self._coding_rows = np.ascontiguousarray(
            self._encode_matrix[self.k if systematic else 0 :]
        )

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, value: bytes) -> List[CodedElement]:
        """Encode ``value`` into ``n`` coded elements of equal size."""
        return self._encode_group((value,))[0]

    def encode_many(self, values: Sequence[bytes]) -> List[List[CodedElement]]:
        """Encode a batch of values, same-sized ones together.

        Values of one size go through the kernel :meth:`batch_step` at a
        time: a batch of small values — concurrent writers in a namespace,
        the hot case — is one call, large values go one by one.  The output
        is byte-identical to calling :meth:`encode` per value.
        """
        by_size: Dict[int, List[int]] = {}
        for position, value in enumerate(values):
            by_size.setdefault(len(value), []).append(position)
        out: List[List[CodedElement]] = [None] * len(values)  # type: ignore[list-item]
        for size, positions in by_size.items():
            step = self.batch_step(self.element_size(size))
            for start in range(0, len(positions), step):
                chunk = positions[start : start + step]
                group = self._encode_group([values[position] for position in chunk])
                for position, elements in zip(chunk, group):
                    out[position] = elements
        return out

    def batch_step(self, stripe: int) -> int:
        """How many values of ``stripe``-byte elements share a kernel call:
        one block's worth of framed bytes (:data:`~repro.erasure.gf.KERNEL_BLOCK`),
        which the kernel combines in one go.  This is the only place that
        decides it, for encoding, decoding and the codec front's pre-encode
        (:meth:`~repro.erasure.batch.CachedEncoder.warm`) alike.

        Batching exists to share per-call overhead among small values.
        Large ones gain nothing from it — the kernel walks them value by
        value anyway — and lose to it: buffers for a whole batch of them
        are mapped fresh and faulted in on every call, while one value's
        buffers are small enough for the allocator to hand back warm.
        """
        return max(1, KERNEL_BLOCK // (self.k * stripe))

    def _encode_group(self, values: Sequence[bytes]) -> List[List[CodedElement]]:
        """Encode equal-length values: frame them in one buffer, multiply
        the coding rows through it, slice the systematic elements off it."""
        k = self.k
        framed = self._frame_bytes(values)
        stripe = self.element_size(len(values[0]))
        stacked = np.frombuffer(framed, dtype=np.uint8).reshape(len(values), k, stripe)
        coded = self.field.matmul_many(self._coding_rows, stacked)
        first = self.n - coded.shape[1]  # k when systematic, else 0
        out = []
        for b, rows in enumerate(coded):
            start = b * k * stripe
            elements = [
                CodedElement(i, framed[start + i * stripe : start + (i + 1) * stripe])
                for i in range(first)
            ]
            elements += [
                CodedElement(first + i, row.tobytes())
                for i, row in enumerate(rows)
            ]
            out.append(elements)
        return out

    # ------------------------------------------------------------------
    # erasure-only decoding
    # ------------------------------------------------------------------
    def decode(self, elements: Iterable[CodedElement]) -> bytes:
        """Reconstruct the value from any ``k`` (or more) correct elements."""
        available = self._collect(elements)
        indices, stripe = self._decoding_plan(available)
        received = self._gather_rows((available,), indices, stripe)[0]
        inverse = self._decode_matrix(indices)
        message = self.field.matmul(inverse, received)
        return self._unframe(message)

    def decode_many(
        self, element_sets: Sequence[Iterable[CodedElement]]
    ) -> List[bytes]:
        """Decode a batch of element collections, batching the matmuls.

        Collections that share the same index set and stripe length (the
        common case in scenario sweeps, where all reads of a run see the
        same surviving servers) are decoded :meth:`batch_step` at a time
        by one kernel call.  Results come back in input order and are
        byte-identical to calling :meth:`decode` per collection.
        """
        collected = [self._collect(els) for els in element_sets]
        groups: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
        plans: List[Tuple[Tuple[int, ...], int]] = []
        for position, available in enumerate(collected):
            plan = self._decoding_plan(available)
            plans.append(plan)
            groups.setdefault(plan, []).append(position)
        results: List[bytes] = [b""] * len(collected)
        for (indices, stripe), positions in groups.items():
            inverse = self._decode_matrix(indices)
            step = self.batch_step(stripe)
            for start in range(0, len(positions), step):
                chunk = positions[start : start + step]
                stacked = self._gather_rows(
                    [collected[position] for position in chunk], indices, stripe
                )
                messages = self.field.matmul_many(inverse, stacked)
                for position, message in zip(chunk, messages):
                    results[position] = self._unframe(message)
        return results

    # ------------------------------------------------------------------
    # shared decode helpers
    # ------------------------------------------------------------------
    def _decoding_plan(
        self, available: Dict[int, bytes]
    ) -> Tuple[Tuple[int, ...], int]:
        """Validate an element mapping and pick ``(indices, stripe)`` for it."""
        if len(available) < self.k:
            raise DecodingError(
                f"need at least k={self.k} coded elements, got {len(available)}"
            )
        self._check_indices(available)
        indices = tuple(sorted(available))[: self.k]
        return indices, self._stripe_length(available)

    @staticmethod
    def _gather_rows(
        collections: Sequence[Dict[int, bytes]], indices: Tuple[int, ...], stripe: int
    ) -> np.ndarray:
        """The ``indices`` elements of each collection as one read-only
        ``(len(collections), len(indices), stripe)`` block (a single join)."""
        joined = b"".join(
            [available[idx] for available in collections for idx in indices]
        )
        return np.frombuffer(joined, dtype=np.uint8).reshape(
            len(collections), len(indices), stripe
        )

    def _decode_matrix(self, indices: Tuple[int, ...]) -> np.ndarray:
        """Inverse of the ``k x k`` encode submatrix for ``indices`` (LRU-cached)."""
        cache = self._decode_cache
        cached = cache.get(indices)
        if cached is not None:
            cache.move_to_end(indices)
            return cached
        sub = self._encode_matrix[list(indices), :]
        inverse = gauss_jordan_invert(self.field, sub)
        cache[indices] = inverse
        if len(cache) > self._decode_cache_size:
            cache.popitem(last=False)
        return inverse

    def _check_indices(self, available: Dict[int, bytes]) -> None:
        sizes = {len(d) for d in available.values()}
        if len(sizes) > 1:
            raise DecodingError(f"coded elements have inconsistent sizes: {sizes}")
        bad = [i for i in available if not 0 <= i < self.n]
        if bad:
            raise DecodingError(f"element indices out of range [0, {self.n}): {bad}")

    @staticmethod
    def _stripe_length(available: Dict[int, bytes]) -> int:
        return len(next(iter(available.values())))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def encode_matrix(self) -> np.ndarray:
        """The ``n x k`` encode matrix (row ``i`` yields codeword symbol ``i``)."""
        return self._encode_matrix.copy()

    @property
    def decode_cache_size(self) -> int:
        """Number of currently cached inverted decode submatrices."""
        return len(self._decode_cache)
