"""Classical Reed–Solomon ``[n, k]`` codes over GF(2^8).

This is the MDS code used by SODA (erasure-only decoding from any ``k``
coded elements) and SODAerr (errors-and-erasures decoding from ``k + 2e``
coded elements of which up to ``e`` are silently corrupted).

Construction
------------
The code is the classical (shortened) Reed–Solomon code with generator
polynomial ``g(x) = prod_{j=0}^{n-k-1} (x - alpha^j)``.  A value is framed
(length header + zero padding, see :class:`repro.erasure.mds.MDSCode`),
reshaped into a ``k x stripe`` byte matrix, and every byte column is
encoded independently into an ``n``-symbol codeword; coded element ``i`` is
row ``i`` of the resulting ``n x stripe`` matrix.  Encoding is systematic:
elements ``0..k-1`` carry the framed value verbatim, elements ``k..n-1``
carry parity.

Encoding and erasure-only decoding are expressed as matrix products over
GF(2^8) so the work is vectorised along the (long) value axis.
Errors-and-erasures decoding follows the textbook pipeline — syndromes,
erasure locator, modified (Forney) syndromes, Berlekamp–Massey, Chien
search, Forney's magnitude formula — and is cross-checked in the test suite
against an independent combinatorial decode-and-verify implementation.

Position/locator convention: codeword symbol ``i`` (0-based, 0 is the first
systematic symbol) is the coefficient of ``x^(n-1-i)`` of the codeword
polynomial, so its locator is ``X_i = alpha^(n-1-i)``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.erasure import poly
from repro.erasure.gf import GF256, default_field
from repro.erasure.linear import DEFAULT_DECODE_CACHE_SIZE, LinearCode
from repro.erasure.mds import CodedElement, DecodingError


class ReedSolomonCode(LinearCode):
    """A systematic ``[n, k]`` Reed–Solomon code over GF(2^8).

    Parameters
    ----------
    n:
        Code length (number of servers); must satisfy ``k <= n <= 255``.
    k:
        Code dimension (number of elements sufficient for reconstruction).
    field:
        Optional field instance (tests exercise alternative primitive
        polynomials); defaults to the shared GF(2^8) instance.
    decode_cache_size:
        Bound on the LRU cache of inverted decode submatrices (there are
        C(n, k) distinct index sets, far too many to cache unboundedly).
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
            raise ValueError(f"Reed-Solomon over GF(2^8) supports n <= 255, got {n}")
        self.field = field or default_field()
        self._nparity = n - k
        self._generator_poly = self._build_generator_poly()
        # Systematic encode matrix (n, k) plus the shared linear-code
        # pipeline (encode/decode, batched variants, decode-matrix cache).
        self._init_linear(
            self.field,
            self._build_encode_matrix(),
            decode_cache_size=decode_cache_size,
        )
        # Syndrome matrix: shape (n-k, n); S = syndrome_matrix @ received.
        self._syndrome_matrix = self._build_syndrome_matrix()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_generator_poly(self) -> List[int]:
        """``g(x) = prod_{j=0}^{n-k-1} (x - alpha^j)`` (descending coefficients)."""
        roots = [self.field.alpha_pow(j) for j in range(self._nparity)]
        return poly.from_roots(self.field, roots)

    def _encode_column_systematic(self, message: Sequence[int]) -> List[int]:
        """Encode one k-symbol column by polynomial division (reference path)."""
        if len(message) != self.k:
            raise ValueError(f"message must have exactly k={self.k} symbols")
        if self._nparity == 0:
            return list(message)
        shifted = list(message) + [0] * self._nparity
        remainder = poly.mod(self.field, shifted, self._generator_poly)
        parity = [0] * (self._nparity - len(remainder)) + list(remainder)
        return list(message) + parity

    def _build_encode_matrix(self) -> np.ndarray:
        """Derive the systematic generator matrix by encoding the unit vectors."""
        G = np.zeros((self.n, self.k), dtype=np.uint8)
        for i in range(self.k):
            unit = [0] * self.k
            unit[i] = 1
            codeword = self._encode_column_systematic(unit)
            G[:, i] = codeword
        return G

    def _build_syndrome_matrix(self) -> np.ndarray:
        """``A[j, i] = alpha^(j * (n - 1 - i))`` so that ``S_j = sum_i r_i A[j, i]``."""
        A = np.zeros((max(self._nparity, 1), self.n), dtype=np.uint8)
        for j in range(self._nparity):
            for i in range(self.n):
                A[j, i] = self.field.pow(self.field.alpha_pow(self.n - 1 - i), j)
        return A[: self._nparity] if self._nparity else np.zeros((0, self.n), dtype=np.uint8)

    def _locator(self, position: int) -> int:
        """The error locator ``X_i = alpha^(n-1-i)`` of codeword position ``i``."""
        return self.field.alpha_pow(self.n - 1 - position)

    # Encoding, erasure-only decoding (Phi^-1) and the batched
    # encode_many/decode_many pipeline are inherited from LinearCode.

    # ------------------------------------------------------------------
    # public API: errors-and-erasures decoding (Phi^-1_err)
    # ------------------------------------------------------------------
    def decode_with_errors(
        self, elements: Iterable[CodedElement], max_errors: int
    ) -> bytes:
        """Reconstruct from ``>= k + 2*max_errors`` elements with up to
        ``max_errors`` silent corruptions among them.

        The missing positions are treated as erasures; the decoding radius
        requirement ``2*errors + erasures <= n - k`` is checked up front.
        """
        if max_errors < 0:
            raise ValueError("max_errors must be non-negative")
        available = self._collect(elements)
        if len(available) < self.k + 2 * max_errors:
            raise DecodingError(
                f"need at least k + 2e = {self.k + 2 * max_errors} elements, "
                f"got {len(available)}"
            )
        self._check_indices(available)
        if max_errors == 0:
            return self.decode(
                [CodedElement(i, d) for i, d in available.items()]
            )
        erasure_positions = [i for i in range(self.n) if i not in available]
        if 2 * max_errors + len(erasure_positions) > self._nparity:
            raise DecodingError(
                f"decoding radius exceeded: 2*{max_errors} errors + "
                f"{len(erasure_positions)} erasures > n-k = {self._nparity}"
            )
        stripe = self._stripe_length(available)
        received = np.zeros((self.n, stripe), dtype=np.uint8)
        for idx, data in available.items():
            received[idx] = np.frombuffer(data, dtype=np.uint8)

        syndromes = self.field.matmul(self._syndrome_matrix, received)  # (2t, stripe)
        dirty_columns = np.nonzero(np.any(syndromes != 0, axis=0))[0]
        if dirty_columns.size == 0:
            return self._unframe(received[: self.k, :])

        # Stripe-level fast path: element corruption (disk faults, the
        # `corrupt` helper) dirties every byte of an element, so all dirty
        # columns typically share one errata pattern.  Locate the errata on
        # the first dirty column only, erasure-decode the whole stripe from
        # clean rows, and verify the re-encoded codeword against every
        # retained row — sound by MDS distance, see the helper.  Any
        # mismatch (per-column error patterns DO differ) falls back to the
        # per-column pipeline below, byte-identical to the pre-fast-path
        # behaviour either way.
        message = self._decode_stripe_with_errors(
            received, available, syndromes, dirty_columns, erasure_positions, max_errors
        )
        if message is None:
            corrected = received.copy()
            for col in dirty_columns:
                column_syndromes = [int(s) for s in syndromes[:, col]]
                corrected[:, col] = self._correct_column(
                    received[:, col], column_syndromes, erasure_positions, max_errors
                )
            message = corrected[: self.k, :]
        return self._unframe(message)

    def _decode_stripe_with_errors(
        self,
        received: np.ndarray,
        available: dict,
        syndromes: np.ndarray,
        dirty_columns: np.ndarray,
        erasure_positions: Sequence[int],
        max_errors: int,
    ) -> np.ndarray | None:
        """Whole-stripe errors-and-erasures decode under a shared-errata
        hypothesis; returns the ``(k, stripe)`` message or ``None``.

        The errata positions located on the *first* dirty column are taken
        as the hypothesis for the whole stripe.  Decoding is then a plain
        erasure decode from ``k`` rows outside the hypothesised error set,
        verified by re-encoding: the result ``D`` agrees with the received
        stripe on every retained row, and the true codeword ``C`` differs
        from the received stripe only on true-error rows, so ``D`` and
        ``C`` can disagree on at most ``2*max_errors + erasures <= n - k``
        positions — fewer than the MDS distance ``n - k + 1`` — forcing
        ``D == C`` whenever the verification passes, even if the hypothesis
        named the wrong rows.  Verification failure returns ``None`` (the
        caller falls back to per-column decoding), never a wrong answer.
        """
        first = int(dirty_columns[0])
        column_syndromes = [int(s) for s in syndromes[:, first]]
        try:
            errata_positions, _ = self._locate_errata(
                column_syndromes, erasure_positions, max_errors
            )
        except DecodingError:
            return None
        error_rows = set(errata_positions) - set(erasure_positions)
        keep = [i for i in sorted(available) if i not in error_rows]
        if len(keep) < self.k:
            return None
        indices = tuple(keep[: self.k])
        inverse = self._decode_matrix(indices)
        message = self.field.matmul(inverse, received[list(indices), :])
        codeword = self.field.matmul(self._encode_matrix, message)
        if not np.array_equal(codeword[keep], received[keep]):
            return None
        return message

    # ------------------------------------------------------------------
    # per-column errors-and-erasures machinery
    # ------------------------------------------------------------------
    def _correct_column(
        self,
        column: np.ndarray,
        syndromes: List[int],
        erasure_positions: Sequence[int],
        max_errors: int,
    ) -> np.ndarray:
        """Correct a single byte column given its (non-zero) syndromes."""
        field = self.field
        nparity = self._nparity
        errata_positions, psi = self._locate_errata(
            syndromes, erasure_positions, max_errors
        )
        omega = self._poly_mul_asc(syndromes, psi)[:nparity]
        psi_derivative = self._derivative_asc(psi)
        corrected = column.copy()
        for pos in errata_positions:
            X = self._locator(pos)
            X_inv = field.inv(X)
            denom = self._eval_asc(psi_derivative, X_inv)
            if denom == 0:
                raise DecodingError("Forney denominator vanished (repeated locator?)")
            magnitude = field.mul(X, field.div(self._eval_asc(omega, X_inv), denom))
            corrected[pos] ^= magnitude

        # Sanity: the corrected column must be a codeword.
        check = self.field.matmul(self._syndrome_matrix, corrected[:, None])
        if np.any(check != 0):
            raise DecodingError("correction failed: residual syndromes are non-zero")
        return corrected

    def _locate_errata(
        self,
        syndromes: List[int],
        erasure_positions: Sequence[int],
        max_errors: int,
    ) -> tuple[List[int], List[int]]:
        """Locate errata from one column's syndromes.

        Runs the erasure locator / Forney syndromes / Berlekamp–Massey /
        Chien pipeline and returns ``(errata_positions, psi)`` where ``psi``
        is the combined (ascending) errata locator polynomial.  Raises
        :class:`DecodingError` when the pattern is outside the declared
        radius or the locator fails its structural checks.
        """
        erasure_locators = [self._locator(p) for p in erasure_positions]
        gamma = self._locator_poly(erasure_locators)  # ascending

        modified = self._modified_syndromes(syndromes, gamma)
        lam = self._berlekamp_massey(modified)
        num_errors = len(lam) - 1
        if num_errors > max_errors:
            raise DecodingError(
                f"located {num_errors} errors, more than the declared bound "
                f"{max_errors}"
            )
        psi = self._poly_mul_asc(lam, gamma)
        errata_positions = self._chien_search(psi)
        if len(errata_positions) != len(psi) - 1:
            raise DecodingError(
                "errata locator polynomial does not split over the code positions"
            )
        if not set(erasure_positions) <= set(errata_positions):
            raise DecodingError("erasure positions are not roots of the errata locator")
        extra = set(errata_positions) - set(erasure_positions)
        if len(extra) > max_errors:
            raise DecodingError(
                f"found {len(extra)} error positions, more than the bound {max_errors}"
            )
        return errata_positions, psi

    def _locator_poly(self, locators: Sequence[int]) -> List[int]:
        """``prod_l (1 - X_l x)`` as an ascending coefficient list."""
        gamma = [1]
        for X in locators:
            gamma = self._poly_mul_asc(gamma, [1, X])
        return gamma

    def _modified_syndromes(self, syndromes: List[int], gamma: List[int]) -> List[int]:
        """Forney syndromes ``T_i = sum_d Gamma_d S_(i + rho - d)``.

        The erasure contributions cancel, leaving a plain syndrome sequence
        of length ``(n-k) - rho`` for the (unknown-location) errors only.
        """
        rho = len(gamma) - 1
        nparity = self._nparity
        out: List[int] = []
        for i in range(nparity - rho):
            acc = 0
            for d, g in enumerate(gamma):
                acc ^= self.field.mul(g, syndromes[i + rho - d])
            out.append(acc)
        return out

    def _berlekamp_massey(self, syndromes: Sequence[int]) -> List[int]:
        """Massey's algorithm: minimal LFSR (ascending error locator) for the
        given syndrome sequence."""
        field = self.field
        lam = [1]
        prev = [1]
        L = 0
        m = 1
        b = 1
        for i, s in enumerate(syndromes):
            delta = s
            for j in range(1, L + 1):
                if j < len(lam):
                    delta ^= field.mul(lam[j], syndromes[i - j])
            if delta == 0:
                m += 1
                continue
            shifted = [0] * m + [field.mul(c, field.div(delta, b)) for c in prev]
            updated = self._poly_add_asc(lam, shifted)
            if 2 * L <= i:
                prev = lam
                L = i + 1 - L
                b = delta
                m = 1
            else:
                m += 1
            lam = updated
        # Trim trailing zero coefficients (highest-degree terms).
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        if len(lam) - 1 > L:
            lam = lam[: L + 1]
        return lam

    def _chien_search(self, psi: Sequence[int]) -> List[int]:
        """Positions ``i`` whose locator inverse is a root of ``psi``."""
        roots = []
        for i in range(self.n):
            X_inv = self.field.inv(self._locator(i))
            if self._eval_asc(psi, X_inv) == 0:
                roots.append(i)
        return roots

    # -- small ascending-order polynomial helpers (decoder-local) -------
    def _poly_mul_asc(self, p: Sequence[int], q: Sequence[int]) -> List[int]:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            for j, c in enumerate(q):
                if c == 0:
                    continue
                out[i + j] ^= self.field.mul(a, c)
        return out

    @staticmethod
    def _poly_add_asc(p: Sequence[int], q: Sequence[int]) -> List[int]:
        out = [0] * max(len(p), len(q))
        for i, a in enumerate(p):
            out[i] ^= a
        for i, c in enumerate(q):
            out[i] ^= c
        return out

    def _eval_asc(self, p: Sequence[int], x: int) -> int:
        acc = 0
        for c in reversed(p):
            acc = self.field.mul(acc, x) ^ c
        return acc

    @staticmethod
    def _derivative_asc(p: Sequence[int]) -> List[int]:
        """Formal derivative of an ascending-order polynomial over GF(2^m)."""
        out = [0] * max(len(p) - 1, 1)
        for j in range(1, len(p)):
            if j % 2 == 1:
                out[j - 1] = p[j]
        return out
