"""Arithmetic in the finite field GF(2^8).

The Reed–Solomon codes used throughout this reproduction operate symbol-wise
over GF(2^8) with the AES/Rijndael reduction polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B).  The field is small enough that a full
256 x 256 multiplication table (64 KiB, built once per field instance) makes
every bulk operation a single numpy fancy-index gather — no zero masks, no
boolean temporaries — which is where virtually all of the CPU time goes.
Exp/log tables are kept alongside for division, powers and inverses.

Only one field size is needed by the paper (values are byte strings and each
coded element is a byte string), but the implementation is written against an
explicit primitive polynomial so alternative polynomials can be used in
tests.

Kernel backends
---------------
Each field instance carries one of two interchangeable bulk-kernel
backends — byte-identical, differing only in how the per-coefficient
table product is computed:

``native``
    :data:`KERNELS`, a C extension (:class:`repro.native.CompiledModule`,
    built once per user at first use) with one entry, ``matmul_many``,
    consuming the same product table: a 16-lane ``pshufb`` split-table
    product on SSSE3-capable x86-64 hosts and a scalar table walk
    elsewhere.  The default wherever a C toolchain (or a cached build) is
    present.
``numpy``
    The portable fallback and the reference the tests compare ``native``
    against: one ``take`` per non-trivial coefficient against a 256-byte
    row of the full 64 KiB product table, run over cache-sized blocks of
    the operand (:data:`KERNEL_BLOCK`) so an input row's index is built
    once and reused by every output row.  ``mul_vec`` always runs here.

(A third, pure-numpy 4-bit split-table backend was removed in PR 13: it
benched below the default table kernel on every committed row and nothing
depended on it.)

The process-wide default backend (:func:`default_backend`) is ``native``
when the compiled kernels load and ``numpy``, silently, when they do not —
``KERNELS.describe()`` names the reason.  That is the rule every module of
:data:`repro.native.NATIVE` resolves by, and there is no override: a host
without a C toolchain (or a process run with ``CC=/bin/false`` and an empty
``REPRO_GF_NATIVE_CACHE``) gets ``numpy``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional

import numpy as np

from repro.native import CompiledModule

# Default primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x + 1.
DEFAULT_PRIMITIVE_POLY = 0x11B
#: The generator element used to build the exp/log tables.
DEFAULT_GENERATOR = 0x03

FIELD_SIZE = 256
ORDER = FIELD_SIZE - 1  # multiplicative group order

#: The interchangeable bulk-kernel backends (see the module docstring).
GF_BACKENDS = ("numpy", "native")

#: Bytes of one input row the numpy kernel works on at a time.  Its ``intp``
#: index is eight times that (256 KiB), which with the output rows it feeds
#: stays inside a private L2 while every output row reuses it.
KERNEL_BLOCK = 32 * 1024

#: The ``native`` backend's C source.  ``matmul_many(A, table, stacked, out,
#: batch, m, p, q)`` writes ``out[b] = A @ stacked[b]`` for every ``b`` of
#: the batch, walking the (coefficient, row) loop with the same 0/1
#: shortcuts as the numpy kernel and the full product ``table`` for the
#: rest.  On x86-64 with SSSE3 a row product is a 16-lane split-table
#: ``pshufb``: the lane tables are the coefficient's table row sampled at
#: ``x`` and ``x << 4``, and ``row[b] == row[b & 0xF] ^ row[(b >> 4) << 4]``
#: by GF-linearity over XOR, so it is bit-identical to the table walk.
C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

static void row_xor(uint8_t *dst, const uint8_t *src, Py_ssize_t q)
{
    for (Py_ssize_t i = 0; i < q; i++)
        dst[i] ^= src[i];
}

static void row_mul_xor_scalar(uint8_t *dst, const uint8_t *src,
                               const uint8_t *row, Py_ssize_t q)
{
    for (Py_ssize_t i = 0; i < q; i++)
        dst[i] ^= row[src[i]];
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

__attribute__((target("ssse3")))
static void row_mul_xor_ssse3(uint8_t *dst, const uint8_t *src,
                              const uint8_t *row, Py_ssize_t q)
{
    uint8_t lo_tab[16], hi_tab[16];
    for (int x = 0; x < 16; x++) {
        lo_tab[x] = row[x];
        hi_tab[x] = row[x << 4];
    }
    const __m128i tlo = _mm_loadu_si128((const __m128i *)lo_tab);
    const __m128i thi = _mm_loadu_si128((const __m128i *)hi_tab);
    const __m128i mask = _mm_set1_epi8(0x0f);
    Py_ssize_t i = 0;
    for (; i + 16 <= q; i += 16) {
        __m128i b = _mm_loadu_si128((const __m128i *)(src + i));
        __m128i lo = _mm_and_si128(b, mask);
        __m128i hi = _mm_and_si128(_mm_srli_epi16(b, 4), mask);
        __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                     _mm_shuffle_epi8(thi, hi));
        __m128i d = _mm_loadu_si128((const __m128i *)(dst + i));
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d, prod));
    }
    row_mul_xor_scalar(dst + i, src + i, row, q - i);
}

static int have_ssse3(void) { return __builtin_cpu_supports("ssse3"); }
#else
static int have_ssse3(void) { return 0; }
#endif

static void matmul(const uint8_t *A, const uint8_t *table, const uint8_t *B,
                   uint8_t *out, Py_ssize_t m, Py_ssize_t p, Py_ssize_t q,
                   int fast)
{
    memset(out, 0, (size_t)m * (size_t)q);
    for (Py_ssize_t j = 0; j < p; j++) {
        const uint8_t *brow = B + j * q;
        for (Py_ssize_t i = 0; i < m; i++) {
            const uint8_t coeff = A[i * p + j];
            if (coeff == 0)
                continue;
            uint8_t *orow = out + i * q;
            if (coeff == 1) {
                row_xor(orow, brow, q);
                continue;
            }
            const uint8_t *trow = table + (Py_ssize_t)coeff * 256;
#if defined(__x86_64__) && defined(__GNUC__)
            if (fast) {
                row_mul_xor_ssse3(orow, brow, trow, q);
                continue;
            }
#endif
            row_mul_xor_scalar(orow, brow, trow, q);
        }
    }
}

/* a * b * c, or -1 when one is negative or the product overflows */
static Py_ssize_t size(Py_ssize_t a, Py_ssize_t b, Py_ssize_t c)
{
    if (a < 0 || b < 0 || c < 0 || (b && a > PY_SSIZE_T_MAX / b))
        return -1;
    return c && a * b > PY_SSIZE_T_MAX / c ? -1 : a * b * c;
}

static PyObject *matmul_many(PyObject *self, PyObject *args)
{
    Py_buffer A, table, stacked, out;
    Py_ssize_t batch, m, p, q;
    if (!PyArg_ParseTuple(args, "y*y*y*w*nnnn", &A, &table, &stacked, &out,
                          &batch, &m, &p, &q))
        return NULL;
    PyObject *result = NULL;
    if (A.len != size(1, m, p) || table.len != 256 * 256
            || stacked.len != size(batch, p, q) || out.len != size(batch, m, q))
        PyErr_SetString(PyExc_ValueError,
                        "matmul_many: a buffer's length does not match the shape");
    else {
        const int fast = have_ssse3();
        for (Py_ssize_t b = 0; b < batch; b++)
            matmul((const uint8_t *)A.buf, (const uint8_t *)table.buf,
                   (const uint8_t *)stacked.buf + b * p * q,
                   (uint8_t *)out.buf + b * m * q, m, p, q, fast);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&A), PyBuffer_Release(&table);
    PyBuffer_Release(&stacked), PyBuffer_Release(&out);
    return result;
}

static PyMethodDef methods[] = {
    {"matmul_many", matmul_many, METH_VARARGS, "out[b] = A @ stacked[b] over GF(2^8)"},
    {NULL, NULL, 0, NULL}};
static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT, "_repro_gf_kernels", NULL, -1, methods};

PyMODINIT_FUNC PyInit__repro_gf_kernels(void) { return PyModule_Create(&definition); }
"""

KERNELS = CompiledModule("_repro_gf_kernels", C_SOURCE, "gf backend", "numpy")


class GF256:
    """The finite field GF(2^8).

    Parameters
    ----------
    primitive_poly:
        Reduction polynomial (degree 8, expressed as an integer bit mask).
    generator:
        A primitive element; powers of it enumerate all non-zero field
        elements and define the exp/log tables.
    backend:
        Bulk-kernel backend for ``mul_vec``/``matmul``/``matmul_many`` —
        one of :data:`GF_BACKENDS`.  ``"native"`` raises ``RuntimeError``
        when the compiled kernels cannot be built on this host.

    Notes
    -----
    Elements are plain Python ints (or numpy uint8 arrays for the
    vectorised operations) in ``range(256)``.  Addition and subtraction are
    both XOR.
    """

    __slots__ = (
        "primitive_poly",
        "generator",
        "backend",
        "exp",
        "log",
        "_inv",
        "_mul_table",
        "_mul_flat",
        "_native",
    )

    def __init__(
        self,
        primitive_poly: int = DEFAULT_PRIMITIVE_POLY,
        generator: int = DEFAULT_GENERATOR,
        *,
        backend: str = "numpy",
    ) -> None:
        if primitive_poly >> 8 != 1:
            raise ValueError(
                f"primitive polynomial must have degree 8, got {primitive_poly:#x}"
            )
        if backend not in GF_BACKENDS:
            raise ValueError(
                f"unknown GF backend {backend!r}; expected one of {GF_BACKENDS}"
            )
        self.primitive_poly = primitive_poly
        self.generator = generator
        exp = np.zeros(2 * ORDER, dtype=np.uint8)
        log = np.zeros(FIELD_SIZE, dtype=np.int64)
        x = 1
        seen: set[int] = set()
        for i in range(ORDER):
            exp[i] = x
            log[x] = i
            seen.add(x)
            x = self._slow_mul(x, generator)
        if x != 1 or len(seen) != ORDER:
            raise ValueError(
                f"{generator:#x} is not a primitive element for polynomial "
                f"{primitive_poly:#x}"
            )
        # Duplicate the table so exp[a + b] never needs a modulo for a, b < ORDER.
        exp[ORDER:] = exp[:ORDER]
        self.exp = exp
        self.log = log
        inv = np.zeros(FIELD_SIZE, dtype=np.uint8)
        for a in range(1, FIELD_SIZE):
            inv[a] = exp[ORDER - log[a]]
        self._inv = inv
        # Full 256 x 256 product table (64 KiB).  Row/column 0 stay zero, so
        # the vectorised kernels need no zero masks at all: MUL[a, b] is the
        # product for every (a, b) pair, including zeros.
        mul_table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
        nz_log = log[1:]
        mul_table[1:, 1:] = exp[nz_log[:, None] + nz_log[None, :]]
        self._mul_table = mul_table
        # Flat view for 1D take-based gathers (row-major: index = a*256 + b).
        self._mul_flat = mul_table.reshape(-1)
        self.backend = backend
        # The compiled kernels consume self._mul_table directly, so their
        # products are the same table lookups the numpy backend gathers.
        self._native = KERNELS.load() if backend == "native" else None

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def _slow_mul(self, a: int, b: int) -> int:
        """Carry-less multiplication with reduction; used only to build tables."""
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & 0x100:
                a ^= self.primitive_poly
        return result

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction (identical to addition in characteristic 2)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via the product table."""
        return int(self._mul_table[a, b])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises ``ZeroDivisionError`` if b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) - int(self.log[b])) % ORDER])

    def inv(self, a: int) -> int:
        """Multiplicative inverse of ``a``; raises ``ZeroDivisionError`` for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
        return int(self._inv[a])

    def pow(self, a: int, exponent: int) -> int:
        """``a`` raised to an arbitrary (possibly negative) integer power."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        e = (int(self.log[a]) * exponent) % ORDER
        return int(self.exp[e])

    def alpha_pow(self, exponent: int) -> int:
        """The generator raised to ``exponent`` (mod the group order)."""
        return int(self.exp[exponent % ORDER])

    # ------------------------------------------------------------------
    # vectorised operations on numpy uint8 arrays
    # ------------------------------------------------------------------
    def mul_vec(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """Element-wise product of two uint8 arrays (or array and scalar).

        One gather into the (flattened) 256 x 256 product table, on every
        backend; the index arrays broadcast against each other exactly like
        ``a * b``.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        idx = a.astype(np.intp)
        idx <<= 8
        idx += b
        # mode="wrap" skips per-element bounds checks; indices built from two
        # uint8 operands are always within the 65536-entry table.
        return self._mul_flat.take(idx, mode="wrap")

    def scale_vec(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every element of ``a`` by a scalar (one row-table gather)."""
        a = np.asarray(a, dtype=np.uint8)
        return self._mul_table[scalar].take(a, mode="wrap")

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product over GF(2^8).

        ``A`` has shape ``(m, p)`` and ``B`` shape ``(p, q)``; the result has
        shape ``(m, q)``.  The inner accumulation is XOR.  This is
        :meth:`matmul_many` on a batch of one.
        """
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"incompatible shapes {A.shape} x {B.shape}")
        return self.matmul_many(A, B[None])[0]

    def matmul_many(
        self,
        A: np.ndarray,
        stacked: np.ndarray,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply one matrix to a whole batch of same-shape operands.

        ``A`` has shape ``(m, p)`` and ``stacked`` shape ``(batch, p, q)``;
        returns ``(batch, m, q)`` with slice ``b`` equal to ``A @ stacked[b]``.
        ``stacked`` may be read-only or non-contiguous; it is read in place.

        On the numpy backend a batch whose rows fit one block together
        (``batch * q <= KERNEL_BLOCK``) is combined in one go; anything
        larger is walked value by value, so how many short rows share a
        call is the caller's decision (the codec's is
        ``LinearCode.batch_step``).

        ``out``, when given, must be a C-contiguous ``(batch, m, q)`` uint8
        array; the result is written into it and it is returned.
        """
        A = np.asarray(A, dtype=np.uint8)
        stacked = np.asarray(stacked, dtype=np.uint8)
        if A.ndim != 2 or stacked.ndim != 3 or A.shape[1] != stacked.shape[1]:
            raise ValueError(
                f"incompatible shapes {A.shape} x {stacked.shape}; expected "
                "(m, p) x (batch, p, q)"
            )
        batch, p, q = stacked.shape
        m = A.shape[0]
        if out is None:
            out = np.empty((batch, m, q), dtype=np.uint8)
        elif (
            out.shape != (batch, m, q)
            or out.dtype != np.uint8
            or not out.flags["C_CONTIGUOUS"]
        ):
            raise ValueError(
                f"out must be C-contiguous uint8 of shape {(batch, m, q)}"
            )
        if out.size == 0:
            return out
        if self.backend == "native":
            # One C call for the whole batch, contiguous in and out.
            self._native.matmul_many(
                np.ascontiguousarray(A),
                self._mul_table,
                np.ascontiguousarray(stacked),
                out,
                batch,
                m,
                p,
                q,
            )
            return out
        coeffs = A.tolist()
        if batch > 1 and batch * q <= KERNEL_BLOCK:
            # Short rows that fit one block together: every value at once
            # through a strided view, a handful of numpy calls in all, not
            # a handful per value.
            block = np.empty((m, batch, q), dtype=np.uint8)
            self._combine_block(coeffs, stacked.transpose(1, 0, 2), block)
            out[:] = block.transpose(1, 0, 2)
            return out
        # One value at a time, a block of columns at a time, straight from
        # its input rows into its output rows.
        for b in range(batch):
            for c in range(0, q, KERNEL_BLOCK):
                self._combine_block(
                    coeffs,
                    stacked[b, :, c : c + KERNEL_BLOCK],
                    out[b, :, c : c + KERNEL_BLOCK],
                )
        return out

    def _combine_block(
        self, coeffs: List[List[int]], rows: np.ndarray, acc: np.ndarray
    ) -> None:
        """``acc[i] = XOR_j coeffs[i][j] * rows[j]`` on one cache-sized block.

        ``rows[j]`` and ``acc[i]`` are equal-shape blocks of at most
        ``KERNEL_BLOCK`` bytes (``acc[i]`` contiguous).  A product is one
        ``take`` from the coefficient's 256-byte table row, and ``take``
        wants ``intp`` indices: handed ``uint8`` it converts them on every
        call, so each input row is widened once here and the index reused
        for every output row while it is cache-resident.  The first
        contribution to an output row is written, not XORed into zeros;
        coefficients 0 and 1 never gather (decoding from systematic
        elements is mostly copies).
        """
        table = self._mul_table
        written = [False] * len(coeffs)
        product = None
        for j, row in enumerate(rows):
            index = None
            for i, coeff_row in enumerate(coeffs):
                coeff = coeff_row[j]
                if coeff == 0:
                    continue
                target = acc[i]
                if not written[i]:
                    written[i] = True
                    if coeff == 1:
                        np.copyto(target, row)
                    else:
                        if index is None:
                            index = row.astype(np.intp, order="C")
                        np.take(table[coeff], index, out=target, mode="wrap")
                    continue
                if coeff == 1:
                    np.bitwise_xor(target, row, out=target)
                    continue
                if index is None:
                    index = row.astype(np.intp, order="C")
                if product is None:
                    product = np.empty(target.shape, dtype=np.uint8)
                # mode="wrap" skips the bounds check: every index is a byte.
                np.take(table[coeff], index, out=product, mode="wrap")
                np.bitwise_xor(target, product, out=target)
        for i, done in enumerate(written):
            if not done:
                acc[i].fill(0)

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------
    def elements(self) -> Iterable[int]:
        """Iterate over every field element (0..255)."""
        return range(FIELD_SIZE)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GF256(primitive_poly={self.primitive_poly:#x}, "
            f"generator={self.generator:#x}, backend={self.backend!r})"
        )


def available_backends() -> List[str]:
    """The subset of :data:`GF_BACKENDS` usable on this host."""
    return list(GF_BACKENDS) if default_backend() == "native" else ["numpy"]


def default_backend() -> str:
    """The backend new :func:`default_field` instances use: ``"native"``
    when the compiled kernels load (a cached build) or build, else
    ``"numpy"``."""
    return "native" if KERNELS.availability_error() is None else "numpy"


@lru_cache(maxsize=None)
def _field_for_backend(backend: str) -> GF256:
    return GF256(backend=backend)


def default_field() -> GF256:
    """A process-wide shared GF(2^8) instance with the default polynomial.

    One instance is cached per backend, so a test that hides the compiled
    kernels mid-process is handed the cached numpy field without
    rebuilding tables.
    """
    return _field_for_backend(default_backend())
