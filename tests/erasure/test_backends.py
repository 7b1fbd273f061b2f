"""Differential kernel-equivalence fuzz across the GF(2^8) backends.

The numpy (full 256x256 table) and native (compiled C kernels)
backends must produce byte-identical results for every bulk operation —
the backend choice is a pure speed knob, never a semantics knob.  These
tests pit the backends against each other on random inputs for every
code in the repository, including the errors-and-erasures decoder and a
field built on an alternative primitive polynomial, so a backend that
silently diverges (kernel indexing bug, SIMD lane mix-up) fails loudly
here rather than as a corrupted coded element deep inside a protocol
run.
"""

import warnings

import numpy as np
import pytest

from vandermonde import VandermondeCode

from repro.erasure.gf import (
    GF256,
    GF_BACKENDS,
    KERNELS,
    available_backends,
    default_backend,
    default_field,
)
from repro.erasure.mds import corrupt
from repro.erasure.rs import ReedSolomonCode
from repro.native import CACHE_ENV_VAR

BACKENDS = available_backends()

needs_native = pytest.mark.skipif(
    KERNELS.availability_error() is not None,
    reason="native GF backend unavailable (no C toolchain)",
)

#: The ``twin`` fixture's tests run with the kernels compiled and hidden.
TWINS = ("gf backend",)

#: (primitive polynomial, generator) pairs: the repository default (AES
#: polynomial 0x11B, generator 0x03) and the other common GF(2^8)
#: construction (0x11D, generator 0x02) to prove the kernels are not
#: accidentally specialised to one table's contents.
FIELD_PARAMS = [(0x11B, 0x03), (0x11D, 0x02)]


def _fields(poly: int, generator: int):
    return {
        backend: GF256(poly, generator, backend=backend) for backend in BACKENDS
    }


# ----------------------------------------------------------------------
# raw kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("poly,generator", FIELD_PARAMS)
def test_matmul_identical_across_backends(poly, generator):
    fields = _fields(poly, generator)
    rng = np.random.default_rng(11)
    for m, p, q in [(10, 5, 333), (4, 8, 64), (1, 1, 1)]:
        A = rng.integers(0, 256, (m, p), dtype=np.uint8)
        B = rng.integers(0, 256, (p, q), dtype=np.uint8)
        reference = fields["numpy"].matmul(A, B)
        for backend, field in fields.items():
            assert np.array_equal(field.matmul(A, B), reference), backend


@pytest.mark.parametrize("poly,generator", FIELD_PARAMS)
def test_matmul_many_identical_across_backends(poly, generator):
    fields = _fields(poly, generator)
    rng = np.random.default_rng(13)
    A = rng.integers(0, 256, (10, 5), dtype=np.uint8)
    stacked = rng.integers(0, 256, (7, 5, 211), dtype=np.uint8)
    reference = np.stack(
        [fields["numpy"].matmul(A, stacked[b]) for b in range(stacked.shape[0])]
    )
    for backend, field in fields.items():
        assert np.array_equal(field.matmul_many(A, stacked), reference), backend
        # The out= scratch path must write the same bytes.
        out = np.empty_like(reference)
        returned = field.matmul_many(A, stacked, out=out)
        assert returned is out
        assert np.array_equal(out, reference), backend


def test_matmul_many_validates_shapes():
    field = GF256()
    A = np.zeros((10, 5), dtype=np.uint8)
    with pytest.raises(ValueError):
        field.matmul_many(A, np.zeros((3, 4, 7), dtype=np.uint8))  # p mismatch
    with pytest.raises(ValueError):
        field.matmul_many(A, np.zeros((5, 7), dtype=np.uint8))  # not 3-D
    with pytest.raises(ValueError):
        field.matmul_many(
            A,
            np.zeros((3, 5, 7), dtype=np.uint8),
            out=np.zeros((3, 10, 8), dtype=np.uint8),  # wrong q
        )
    empty = field.matmul_many(A, np.zeros((0, 5, 7), dtype=np.uint8))
    assert empty.shape == (0, 10, 7)


@needs_native
def test_the_kernel_refuses_buffers_that_do_not_match_the_shape():
    """The C entry checks every length against ``(batch, m, p, q)``."""
    kernels = KERNELS.load()
    table = GF256(backend="native")._mul_table
    A, stacked, out = bytes(6), bytes(2 * 3 * 5), bytearray(2 * 2 * 5)
    kernels.matmul_many(A, table, stacked, out, 2, 2, 3, 5)  # the right shape
    for args in [
        (bytes(5), table, stacked, out, 2, 2, 3, 5),  # A short
        (A, table[:128], stacked, out, 2, 2, 3, 5),  # half a table
        (A, table, stacked[:-1], out, 2, 2, 3, 5),  # one operand byte short
        (A, table, stacked, out[:-1], 2, 2, 3, 5),  # one output byte short
        (A, table, stacked, out, 3, 2, 3, 5),  # a batch too many
        (A, table, stacked, out, -2, -2, 3, 5),  # negative sizes
        (A, table, stacked, out, 2, 2, 3, 2**62),  # an overflowing product
    ]:
        with pytest.raises(ValueError, match="does not match the shape"):
            kernels.matmul_many(*args)
    with pytest.raises(TypeError):  # the output must be writable
        kernels.matmul_many(A, table, stacked, bytes(20), 2, 2, 3, 5)


# ----------------------------------------------------------------------
# whole codecs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code_cls", [ReedSolomonCode, VandermondeCode])
@pytest.mark.parametrize("n,k", [(6, 4), (10, 5)])
def test_codec_byte_identical_across_backends(code_cls, n, k):
    rng = np.random.default_rng(17)
    codes = {
        backend: code_cls(n, k, field=GF256(backend=backend))
        for backend in BACKENDS
    }
    for size in (0, 1, 17, 1024, 4097):
        value = bytes(rng.integers(0, 256, size, dtype=np.uint8))
        reference = codes["numpy"].encode(value)
        subset_indices = sorted(rng.choice(n, size=k, replace=False))
        for backend, code in codes.items():
            elements = code.encode(value)
            assert elements == reference, backend
            subset = [elements[i] for i in subset_indices]
            assert code.decode(subset) == value, backend
            batch = code.encode_many([value, value, b"x" + value])
            assert batch[0] == reference, backend
            assert batch[1] == reference, backend


@pytest.mark.parametrize("poly,generator", FIELD_PARAMS)
def test_decode_with_errors_identical_across_backends(poly, generator):
    """SODAerr's Phi^-1_err on every backend, under three corruption
    shapes: none (clean syndromes), e whole-element corruptions (the
    stripe fast path), and corruptions hitting different rows in
    different columns (forces the fast path's verification to fail and
    the per-column fallback to run)."""
    n, k, e = 10, 4, 2
    rng = np.random.default_rng(19)
    value = bytes(rng.integers(0, 256, 2048, dtype=np.uint8))
    codes = {
        backend: ReedSolomonCode(n, k, field=GF256(poly, generator, backend=backend))
        for backend in BACKENDS
    }
    clean = codes["numpy"].encode(value)[: k + 2 * e]

    whole_element = [
        corrupt(el) if el.index < e else el for el in clean
    ]
    # Different error rows in different columns: element 0 corrupted only
    # in byte 0, element 1 corrupted only in byte 1.  Column 0's errata
    # hypothesis (row 0) cannot verify column 1 (row 1 is wrong there).
    split_rows = list(clean)
    split_rows[0] = type(clean[0])(
        clean[0].index, bytes([clean[0].data[0] ^ 0x5A]) + clean[0].data[1:]
    )
    split_rows[1] = type(clean[1])(
        clean[1].index,
        clean[1].data[:1] + bytes([clean[1].data[1] ^ 0x5A]) + clean[1].data[2:],
    )

    for received in (clean, whole_element, split_rows):
        for backend, code in codes.items():
            assert code.decode_with_errors(received, max_errors=e) == value, backend


# ----------------------------------------------------------------------
# backend selection plumbing
# ----------------------------------------------------------------------
def test_backend_listing_and_selection():
    assert set(BACKENDS) <= set(GF_BACKENDS)
    assert "numpy" in BACKENDS
    assert GF_BACKENDS == ("numpy", "native")
    assert default_backend() in BACKENDS
    with pytest.raises(ValueError):
        GF256(backend="fortran")
    # The removed 4-bit split-table backend is no longer a selectable value.
    with pytest.raises(ValueError, match="unknown GF backend"):
        GF256(backend="split")


@needs_native
def test_native_backend_selected_field():
    assert default_backend() == "native"
    assert default_field().backend == "native"


# ----------------------------------------------------------------------
# the default: native when it loads, numpy (silently) when not
# ----------------------------------------------------------------------
class TestDefaultResolution:
    def test_native_when_the_kernels_load_numpy_quietly_when_not(self, twin):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_backend() == ("native" if twin == "native" else "numpy")
            assert default_field().backend == default_backend()
        if twin == "native":
            assert KERNELS.describe() == "native"
            assert available_backends() == ["numpy", "native"]
        else:
            assert KERNELS.describe() == "numpy (native unavailable: no C toolchain)"
            assert available_backends() == ["numpy"]

    def test_marker_file_is_honoured(self, monkeypatch, tmp_path):
        """A host whose build failed once resolves to numpy from the marker
        alone — quietly, and without compiling again."""
        marker = tmp_path / f"{KERNELS._source_digest()}.unavailable"
        marker.write_text("C toolchain unavailable or build failed: cc: not found\n")
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(KERNELS, "_loaded", None)
        monkeypatch.setattr(KERNELS, "_error", None)

        def compile_(*args):
            raise AssertionError("a compile was attempted")

        monkeypatch.setattr(KERNELS, "_compile", compile_)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_backend() == "numpy"
        assert "cc: not found" in KERNELS.describe()
        assert str(marker) in KERNELS.describe()
