"""Compiled GF(2^8) kernels (the ``native`` backend).

This module builds a tiny C extension at runtime via :mod:`cffi` and exposes
it to :class:`repro.erasure.gf.GF256` behind two entry points:

* :func:`load` — compile (or reuse a cached build of) the extension and
  return its ``(ffi, lib)`` pair; raises ``RuntimeError`` — and nothing
  else — with the reason when the kernels cannot be provided on this host.
* :func:`is_available` / :func:`availability_error` — probe without raising,
  so callers (the default backend resolution, CI build steps, skipif marks)
  can fall back to the pure-numpy kernels cleanly.

The C kernels consume the exact same 256 x 256 product table the numpy
backend gathers from, so every backend is byte-identical by construction:
``gf_matmul`` walks the (coefficient, row) loop with the same 0/1 shortcuts
as ``GF256.matmul``, replacing the per-row numpy ``take`` with either a
scalar table walk or — on x86-64 hosts with SSSE3 — a 16-lane ``pshufb``
split-table product (two 16-byte lane tables derived per coefficient from
the full table row; ``lo[x] = row[x]``, ``hi[x] = row[x << 4]``, product =
``lo[b & 0xF] ^ hi[b >> 4]`` by linearity of GF multiplication over XOR).
The SIMD path is compiled only under ``__x86_64__`` + GCC/Clang and selected
at runtime via ``__builtin_cpu_supports``; every other host uses the scalar
loop, still well ahead of a Python-side gather for matmul shapes.

Build cache
-----------
The ~2 s compile is paid once per source revision per user, not per
process: the extension is published into a content-addressed directory
(hash of the C source, python tag) under ``$XDG_CACHE_HOME`` / ``~/.cache``
— or, when neither can be written, a uid-named directory under the system
temp dir; ``REPRO_GF_NATIVE_CACHE`` names the directory outright.  The
directory is created ``0700`` and nothing is imported from a directory or
file another uid owns: ``native`` is the default backend, so this path runs
in every process that encodes a value.  A cached file that does not load
(truncated, foreign) is rebuilt once; a build that fails leaves a
``<digest>.unavailable`` marker holding the reason, so the workers of a pool
on a host without a C toolchain read one line each and do not each retry the
compile.  Delete the marker to try again.  The machinery is
:class:`CompiledModule`, which compiles in a child process, so the build
tooling's imports and memory and the compiler's output stay out of the
process that asked; :mod:`repro.sim.run_loop` builds the simulator's run
loop and :mod:`repro.consistency.checker_core` the checker's per-operation
path with it too, each in the directory of its own digest (a directory named
by ``REPRO_GF_NATIVE_CACHE`` holds all three, each failed build its own
marker).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
import threading
from types import ModuleType
from typing import Optional, Tuple

MODULE_NAME = "_repro_gf_native"
#: Environment variable naming the build directory outright.
CACHE_ENV_VAR = "REPRO_GF_NATIVE_CACHE"

CDEF = """
void gf_matmul(const unsigned char *A, const unsigned char *table,
               const unsigned char *B, unsigned char *out,
               long m, long p, long q);
void gf_mul_vec(const unsigned char *table, const unsigned char *a,
                const unsigned char *b, unsigned char *out, long n);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

static void row_xor(uint8_t *dst, const uint8_t *src, long q)
{
    for (long i = 0; i < q; i++)
        dst[i] ^= src[i];
}

static void row_mul_xor_scalar(uint8_t *dst, const uint8_t *src,
                               const uint8_t *row, long q)
{
    for (long i = 0; i < q; i++)
        dst[i] ^= row[src[i]];
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* 16-lane split-table product: two pshufb gathers + one XOR per 16 bytes.
 * The lane tables are the coefficient's table row sampled at x and x<<4;
 * row[b] == row[b & 0xF] ^ row[(b >> 4) << 4] by GF-linearity over XOR,
 * so the SIMD product is bit-identical to the scalar table walk. */
__attribute__((target("ssse3")))
static void row_mul_xor_ssse3(uint8_t *dst, const uint8_t *src,
                              const uint8_t *row, long q)
{
    uint8_t lo_tab[16], hi_tab[16];
    for (int x = 0; x < 16; x++) {
        lo_tab[x] = row[x];
        hi_tab[x] = row[x << 4];
    }
    const __m128i tlo = _mm_loadu_si128((const __m128i *)lo_tab);
    const __m128i thi = _mm_loadu_si128((const __m128i *)hi_tab);
    const __m128i mask = _mm_set1_epi8(0x0f);
    long i = 0;
    for (; i + 16 <= q; i += 16) {
        __m128i b = _mm_loadu_si128((const __m128i *)(src + i));
        __m128i lo = _mm_and_si128(b, mask);
        __m128i hi = _mm_and_si128(_mm_srli_epi16(b, 4), mask);
        __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                     _mm_shuffle_epi8(thi, hi));
        __m128i d = _mm_loadu_si128((const __m128i *)(dst + i));
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d, prod));
    }
    for (; i < q; i++)
        dst[i] ^= row[src[i]];
}

static int have_ssse3(void)
{
    return __builtin_cpu_supports("ssse3");
}
#else
static int have_ssse3(void)
{
    return 0;
}
#endif

void gf_matmul(const unsigned char *A, const unsigned char *table,
               const unsigned char *B, unsigned char *out,
               long m, long p, long q)
{
    memset(out, 0, (size_t)m * (size_t)q);
    const int fast = have_ssse3();
    for (long j = 0; j < p; j++) {
        const uint8_t *brow = B + j * q;
        for (long i = 0; i < m; i++) {
            const uint8_t coeff = A[i * p + j];
            if (coeff == 0)
                continue;
            uint8_t *orow = out + i * q;
            if (coeff == 1) {
                row_xor(orow, brow, q);
                continue;
            }
            const uint8_t *trow = table + (long)coeff * 256;
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

void gf_mul_vec(const unsigned char *table, const unsigned char *a,
                const unsigned char *b, unsigned char *out, long n)
{
    for (long i = 0; i < n; i++)
        out[i] = table[(long)a[i] * 256 + b[i]];
}
"""


def _creatable(path: str) -> bool:
    """Whether ``path`` exists, or could be created, as a writable directory."""
    while not os.path.lexists(path):
        parent = os.path.dirname(path)
        if parent == path:
            return False
        path = parent
    return os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)


def _uid() -> Optional[int]:
    # A platform without uids has no other user to distrust.
    return os.getuid() if hasattr(os, "getuid") else None


def _require_owned(path: str) -> None:
    uid = _uid()
    if uid is None:
        return
    owner = os.stat(path).st_uid
    if owner != uid:
        raise RuntimeError(
            f"refusing to import a compiled module from {path}: it is owned by "
            f"uid {owner}, not by the current uid {uid}"
        )


class CompiledModule:
    """A C extension built from ``source`` at first use into the build cache
    above.  ``compile_code`` is Python code run in a child process with the
    arguments ``build_dir source_path name``: it compiles ``source``
    (written to ``source_path``) into the extension module ``name`` inside
    ``build_dir`` and prints the built file's path last."""

    def __init__(self, name: str, source: str, compile_code: str) -> None:
        self.name = name
        self._source = source
        self._compile_code = compile_code
        self._lock = threading.Lock()
        self._loaded: Optional[ModuleType] = None
        self._error: Optional[str] = None

    def _source_digest(self) -> str:
        return hashlib.sha256(self._source.encode()).hexdigest()[:16]

    def _cache_dir(self) -> str:
        """The directory this source revision's build (or its marker) lives in."""
        override = os.environ.get(CACHE_ENV_VAR)
        if override:
            return override
        leaf = (
            f"{self._source_digest()}-py{sys.version_info.major}{sys.version_info.minor}"
        )
        user_cache = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(user_cache):  # unset, or relative and so to be ignored
            user_cache = os.path.join(os.path.expanduser("~"), ".cache")
        if os.path.isabs(user_cache) and _creatable(user_cache):
            return os.path.join(user_cache, "repro-gf-native", leaf)
        # One level, so the only directory above it that is not ours is the
        # temp dir itself, whose sticky bit keeps other users from renaming it.
        return os.path.join(
            tempfile.gettempdir(), f"repro-gf-native-uid{_uid()}-{leaf}"
        )

    def _find_extension(self, directory: str) -> Optional[str]:
        for name in sorted(os.listdir(directory)):
            if name.startswith(self.name) and name.endswith((".so", ".pyd")):
                return os.path.join(directory, name)
        return None

    def _load_extension(self, path: str) -> ModuleType:
        """Import the extension at ``path`` (in a directory already checked
        to be ours); ``ImportError`` when it is not this module."""
        _require_owned(path)
        spec = importlib.util.spec_from_file_location(self.name, path)
        if spec is None or spec.loader is None:  # pragma: no cover - loader quirk
            raise ImportError(f"no loader for {path}")
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except OSError as exc:
            raise ImportError(f"{path} is not the compiled {self.name}: {exc}") from exc
        return module

    def _build(self, build_dir: str) -> str:
        import signal  # imported here: only a cold build needs them
        import subprocess

        source = os.path.join(build_dir, "source.c")
        with open(source, "w") as handle:
            handle.write(self._source)
        done = subprocess.run(
            [sys.executable, "-c", self._compile_code, build_dir, source, self.name],
            capture_output=True,
            text=True,
        )
        if done.returncode == -signal.SIGINT:  # ^C, not a toolchain to record
            raise KeyboardInterrupt
        if done.returncode != 0:
            raise RuntimeError((done.stderr.strip().splitlines() or ["no output"])[-1])
        return done.stdout.strip().splitlines()[-1]

    def _compile(self, cache_dir: str, marker: str) -> str:
        """Build the extension and publish it into ``cache_dir``; returns its path."""
        if importlib.util.find_spec("cffi") is None:  # both builds run on cffi
            raise RuntimeError("cffi is not installed")
        # A fresh directory inside the cache: same filesystem, so publishing
        # is one atomic rename of the finished file.  A concurrent builder's
        # rename lands the same bytes; a process that has the old file
        # mapped keeps it.
        build_dir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
        try:
            try:
                built = self._build(build_dir)
            except Exception as exc:  # the child's failure, or the cache's
                reason = f"C toolchain unavailable or build failed: {exc}"
                with open(marker, "w") as handle:
                    handle.write(reason + "\n")
                raise RuntimeError(reason) from exc
            published = os.path.join(cache_dir, os.path.basename(built))
            os.replace(built, published)
            return published
        finally:
            shutil.rmtree(build_dir, ignore_errors=True)

    def _provide(self) -> ModuleType:
        cache_dir = self._cache_dir()
        marker = os.path.join(cache_dir, f"{self._source_digest()}.unavailable")
        try:
            os.makedirs(cache_dir, mode=0o700, exist_ok=True)
            _require_owned(cache_dir)
            cached = self._find_extension(cache_dir)
            if cached is not None:
                try:
                    return self._load_extension(cached)
                except ImportError:
                    # Truncated or foreign: out of the way, then one rebuild.
                    os.unlink(cached)
            elif os.path.exists(marker):
                with open(marker) as handle:
                    reason = handle.read().strip()
                raise RuntimeError(
                    f"{reason} (recorded in {marker}; delete it to retry)"
                )
            return self._load_extension(self._compile(cache_dir, marker))
        except (OSError, ImportError) as exc:
            raise RuntimeError(f"build cache {cache_dir} is unusable: {exc}") from exc

    def load(self) -> ModuleType:
        """The compiled module, built on first use; ``RuntimeError`` with the
        reason, and nothing else, when it cannot be provided (kept, so a
        process tries once)."""
        with self._lock:
            if self._loaded is not None:
                return self._loaded
            if self._error is not None:
                raise RuntimeError(self._error)
            try:
                self._loaded = self._provide()
            except RuntimeError as exc:
                self._error = str(exc)
                raise
            return self._loaded

    def availability_error(self) -> Optional[str]:
        """``None`` when the module loads, else the human-readable reason."""
        try:
            self.load()
        except RuntimeError as exc:
            return str(exc)
        return None


#: Compiles a plain CPython extension (the run loop, the checker core): the
#: source file argv[2] into module argv[3] in argv[1]; prints the built path.
EXTENSION_COMPILE = (
    "import sys; from cffi import ffiplatform as p; "
    "print(p.compile(sys.argv[1], p.get_extension(*sys.argv[2:])))"
)

#: Compiles the kernels: ``CDEF`` declares, and the source file (``CDEF``'s
#: prototypes, then ``C_SOURCE``) defines, what ``lib`` exposes.
_COMPILE = (
    "import sys; from cffi import FFI; ffi = FFI(); ffi.cdef(%r); "
    "ffi.set_source(sys.argv[3], open(sys.argv[2]).read(), "
    "extra_compile_args=['-O3']); print(ffi.compile(tmpdir=sys.argv[1]))" % CDEF
)

KERNELS = CompiledModule(MODULE_NAME, CDEF + C_SOURCE, _COMPILE)


def load() -> Tuple[object, object]:
    """Return the compiled ``(ffi, lib)`` pair, building it on first use.

    Raises ``RuntimeError`` (with the underlying reason) when the native
    backend cannot be provided on this host.
    """
    module = KERNELS.load()
    return module.ffi, module.lib


#: ``None`` when the native backend loads, else the human-readable reason.
availability_error = KERNELS.availability_error


def is_available() -> bool:
    """True when the compiled backend can be built (or is already cached)."""
    return availability_error() is None
