"""The MDS code interface shared by every protocol in this reproduction.

An ``[n, k]`` MDS code splits a value of (normalized) size 1 into ``k``
elements and produces ``n`` coded elements of size ``1/k`` each, such that
any ``k`` of them suffice to reconstruct the value (Section II-g of the
paper).  The SODAerr variant additionally requires decoding from ``k + 2e``
elements of which up to ``e`` are silently corrupted (Section VI).

Values are arbitrary byte strings.  Concrete codes share a common framing:
the value is prefixed with a 4-byte big-endian length header and
zero-padded so it splits evenly into ``k`` rows; each coded element is one
row of the encoded matrix.  The header lets ``decode`` recover the exact
original bytes regardless of padding.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

_LENGTH_HEADER = struct.Struct(">I")


class DecodingError(ValueError):
    """Raised when a value cannot be reconstructed from the given elements."""


@dataclass(slots=True, unsafe_hash=True)
class CodedElement:
    """A single coded element: the ``index``-th symbol of the codeword.

    ``index`` identifies which server the element is destined for / came
    from (0-based), which the decoder needs to know (the paper assumes the
    decoder is "aware of the index set I", Section II-g).
    """

    index: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


class MDSCode(ABC):
    """Abstract ``[n, k]`` MDS code over byte-string values."""

    def __init__(self, n: int, k: int) -> None:
        if not (1 <= k <= n):
            raise ValueError(f"require 1 <= k <= n, got n={n}, k={k}")
        self._n = n
        self._k = k

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Code length: number of coded elements / servers."""
        return self._n

    @property
    def k(self) -> int:
        """Code dimension: number of elements needed to reconstruct."""
        return self._k

    @property
    def element_data_units(self) -> float:
        """Normalized size of one coded element (the paper's ``1/k`` units)."""
        return 1.0 / self._k

    # ------------------------------------------------------------------
    # framing helpers shared by the concrete codes
    # ------------------------------------------------------------------
    def element_size(self, value_length: int) -> int:
        """Bytes in each coded element of a ``value_length``-byte value."""
        return -(-(_LENGTH_HEADER.size + value_length) // self._k)  # ceil

    def _frame_bytes(self, values: Sequence[bytes]) -> bytes:
        """The frames of equal-length ``values`` back to back, in one join.

        A frame is the length header, the value and zero padding up to
        ``k`` rows of :meth:`element_size` bytes.
        """
        length = len(values[0])
        header = _LENGTH_HEADER.pack(length)
        padding = bytes(
            self._k * self.element_size(length) - _LENGTH_HEADER.size - length
        )
        return b"".join(
            [piece for value in values for piece in (header, value, padding)]
        )

    @staticmethod
    def _unframe(rows: np.ndarray) -> bytes:
        """Inverse of :meth:`_frame_bytes` on one frame's rows: strip padding
        using the length header."""
        flat = np.ascontiguousarray(rows, dtype=np.uint8).reshape(-1)
        if flat.size < _LENGTH_HEADER.size:
            raise DecodingError("decoded data shorter than the length header")
        (length,) = _LENGTH_HEADER.unpack_from(flat)
        payload = flat[_LENGTH_HEADER.size : _LENGTH_HEADER.size + length]
        if payload.size != length:
            raise DecodingError(
                f"decoded data truncated: header says {length} bytes, got {payload.size}"
            )
        return payload.tobytes()

    @staticmethod
    def _collect(elements: Iterable[CodedElement]) -> Dict[int, bytes]:
        """Normalise an element collection to an index -> data mapping.

        Duplicate indices must agree; conflicting duplicates raise
        :class:`DecodingError` (they indicate a protocol bug upstream).
        """
        out: Dict[int, bytes] = {}
        for el in elements:
            if el.index in out and out[el.index] != el.data:
                raise DecodingError(
                    f"conflicting data supplied for coded element {el.index}"
                )
            out[el.index] = el.data
        return out

    # ------------------------------------------------------------------
    # abstract API
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, value: bytes) -> List[CodedElement]:
        """Encode ``value`` into ``n`` coded elements (Phi in the paper)."""

    @abstractmethod
    def decode(self, elements: Iterable[CodedElement]) -> bytes:
        """Reconstruct the value from at least ``k`` correct elements (Phi^-1)."""

    # The frozen bench/calibrate.py calls this by name with ``max_errors=``.
    @abstractmethod
    def decode_with_errors(
        self, elements: Iterable[CodedElement], max_errors: int
    ) -> bytes:
        """Reconstruct from ``>= k + 2*max_errors`` elements, up to
        ``max_errors`` of which may be silently corrupted (Phi^-1_err)."""

    # ------------------------------------------------------------------
    # batched pipeline
    # ------------------------------------------------------------------
    def batch_step(self, stripe: int) -> int:
        """How many values with ``stripe``-byte coded elements one kernel
        call of :meth:`encode_many` / :meth:`decode_many` takes together.
        1 — the answer of a code without a batched kernel — means batching
        such values saves nothing over encoding them one by one."""
        return 1

    # In-tree only ``CachedEncoder.warm`` batches encodes; the frozen
    # bench/calibrate.py also calls this by name.
    def encode_many(self, values: Sequence[bytes]) -> List[List[CodedElement]]:
        """Encode a batch of values; element ``[i][j]`` is value ``i``'s
        ``j``-th coded element.

        The default implementation simply loops; matrix-backed codes
        override it to frame same-sized values into one block so a single
        GF(2^8) kernel call shares its overhead over the batch.
        Implementations must produce results byte-identical to per-value
        :meth:`encode`.
        """
        return [self.encode(value) for value in values]

    # In-tree only ``CachedDecoder.decode_many`` (itself kept for the frozen
    # bench/spans.py) reaches this; bench/calibrate.py calls it by name.
    def decode_many(
        self, element_sets: Sequence[Iterable[CodedElement]]
    ) -> List[bytes]:
        """Decode a batch of element collections, one value per collection.

        Same contract as :meth:`encode_many`: overrides may batch the work
        but must match per-collection :meth:`decode` byte for byte.
        """
        return [self.decode(elements) for elements in element_sets]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self._n}, k={self._k})"


def corrupt(element: CodedElement, xor_mask: int = 0xA5) -> CodedElement:
    """Return a corrupted copy of an element (used by tests and benchmarks;
    the SODAerr disk-error injector, ``DiskErrorModel.read``, corrupts raw
    bytes with its own copy of this).  The corruption is guaranteed to
    change the data (an all-zero mask is rejected)."""
    if xor_mask == 0:
        raise ValueError("xor_mask must be non-zero to actually corrupt data")
    data = bytes(b ^ xor_mask for b in element.data)
    if not data:
        data = bytes([xor_mask & 0xFF])
    return CodedElement(index=element.index, data=data)

