"""The compiled kernels' build cache: where it lives, what it refuses, and
that every way it can fail ends as a named reason, never an exception.

``native`` is the default backend, so ``gf_native.load`` runs in every
process that encodes a value: a crash here is a crash on import for every
user whose cache directory is in a bad state.  One real compile is paid
per module (the ``built`` fixture, which is also the "directory exists but
holds no extension" case); every other test copies its output.
"""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.erasure import gf_native

needs_native = pytest.mark.skipif(
    not gf_native.is_available(),
    reason="native GF backend unavailable (no C toolchain / cffi)",
)


@pytest.fixture
def fresh(monkeypatch):
    """``gf_native`` as a new process finds it: nothing loaded, no error kept."""
    monkeypatch.setattr(gf_native.KERNELS, "_loaded", None)
    monkeypatch.setattr(gf_native.KERNELS, "_error", None)


@pytest.fixture
def cache(fresh, monkeypatch, tmp_path):
    directory = tmp_path / "cache"
    monkeypatch.setenv(gf_native.CACHE_ENV_VAR, str(directory))
    return directory


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One real build, into a cache directory that already exists, empty."""
    directory = tmp_path_factory.mktemp("prebuilt")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf_native.KERNELS, "_loaded", None)
        patch.setattr(gf_native.KERNELS, "_error", None)
        patch.setenv(gf_native.CACHE_ENV_VAR, str(directory))
        ffi, lib = gf_native.load()
    return directory, lib


def _marker(directory):
    return directory / f"{gf_native.KERNELS._source_digest()}.unavailable"


def _no_compile(*args):
    raise AssertionError("a compile was attempted")


def _copy_of(built_directory):
    """A stand-in for ``_compile`` that publishes the module's one real build."""

    def compile_(cache_dir, marker):
        source = gf_native.KERNELS._find_extension(str(built_directory))
        return shutil.copy(source, cache_dir)

    return compile_


def _kernel_works(lib_pair):
    ffi, lib = lib_pair
    table = np.arange(65536, dtype=np.uint16).astype(np.uint8).reshape(256, 256)
    a = np.array([3], dtype=np.uint8)
    b = np.array([5], dtype=np.uint8)
    out = np.empty(1, dtype=np.uint8)
    lib.gf_mul_vec(
        ffi.from_buffer(table), ffi.from_buffer(a), ffi.from_buffer(b),
        ffi.from_buffer(out), 1,
    )
    return out[0] == table[3, 5]


# ----------------------------------------------------------------------
# where the cache lives
# ----------------------------------------------------------------------
class TestCacheLocation:
    def test_override_names_the_directory_outright(self, monkeypatch, tmp_path):
        monkeypatch.setenv(gf_native.CACHE_ENV_VAR, str(tmp_path / "here"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert gf_native.KERNELS._cache_dir() == str(tmp_path / "here")

    def test_xdg_cache_home_then_home_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv(gf_native.CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        under_xdg = gf_native.KERNELS._cache_dir()
        assert under_xdg.startswith(str(tmp_path / "xdg" / "repro-gf-native"))
        assert gf_native.KERNELS._source_digest() in os.path.basename(under_xdg)
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert gf_native.KERNELS._cache_dir().startswith(
            str(tmp_path / "home" / ".cache" / "repro-gf-native")
        )

    @pytest.mark.skipif(
        not hasattr(os, "getuid") or os.getuid() == 0,
        reason="root can write anywhere",
    )
    def test_unwritable_home_falls_back_to_a_uid_named_temp_directory(
        self, monkeypatch, tmp_path
    ):
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        monkeypatch.delenv(gf_native.CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(locked / "cache"))
        assert f"repro-gf-native-uid{os.getuid()}-" in gf_native.KERNELS._cache_dir()

    def test_relative_xdg_cache_home_is_ignored(self, monkeypatch, tmp_path):
        monkeypatch.delenv(gf_native.CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert gf_native.KERNELS._cache_dir().startswith(str(tmp_path / ".cache"))

    def test_no_home_at_all_falls_back_to_the_temp_directory(self, monkeypatch):
        monkeypatch.delenv(gf_native.CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        assert "repro-gf-native-uid" in os.path.basename(gf_native.KERNELS._cache_dir())

    @needs_native
    def test_directory_is_created_private(self, cache, built, monkeypatch):
        monkeypatch.setattr(gf_native.KERNELS, "_compile", _copy_of(built[0]))
        assert not cache.exists()
        gf_native.load()
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700


# ----------------------------------------------------------------------
# every failure is a reason
# ----------------------------------------------------------------------
@needs_native
class TestLoadFailuresAreReasons:
    def test_existing_directory_without_an_extension_is_built_into(self, built):
        """ISSUE 16 (a): ``os.replace`` of a build directory onto an
        existing cache directory failed, the build was deleted, and the
        import of the deleted file escaped ``load()``."""
        directory, lib = built
        assert gf_native.KERNELS._find_extension(str(directory)) is not None
        # Only the extension is published; the build directory is gone.
        assert [p.name for p in directory.iterdir()] == [
            os.path.basename(gf_native.KERNELS._find_extension(str(directory)))
        ]
        assert lib is not None

    def test_truncated_cached_file_is_rebuilt_once(self, cache, built, monkeypatch):
        """ISSUE 16 (b): ``ImportError: file too short``."""
        cache.mkdir()
        good = gf_native.KERNELS._find_extension(str(built[0]))
        bad = cache / os.path.basename(good)
        bad.write_bytes(open(good, "rb").read()[:100])
        calls = []
        copy = _copy_of(built[0])
        monkeypatch.setattr(
            gf_native.KERNELS, "_compile", lambda *a: calls.append(a) or copy(*a)
        )
        assert gf_native.availability_error() is None
        assert len(calls) == 1
        assert _kernel_works(gf_native.load())
        assert bad.stat().st_size == os.path.getsize(good)

    def test_foreign_file_that_stays_bad_is_a_reason(self, cache, monkeypatch):
        cache.mkdir()
        name = f"{gf_native.MODULE_NAME}.cpython-foreign.so"
        (cache / name).write_text("not an ELF file")

        def republish_garbage(cache_dir, marker):
            path = os.path.join(cache_dir, name)
            with open(path, "w") as handle:
                handle.write("still not an ELF file")
            return path

        monkeypatch.setattr(gf_native.KERNELS, "_compile", republish_garbage)
        reason = gf_native.availability_error()
        assert reason is not None and str(cache) in reason
        assert not gf_native.is_available()

    def test_a_file_of_another_uid_is_refused_not_rebuilt(
        self, cache, built, monkeypatch
    ):
        cache.mkdir()
        shutil.copy(gf_native.KERNELS._find_extension(str(built[0])), cache)
        monkeypatch.setattr(gf_native.KERNELS, "_compile", _no_compile)
        monkeypatch.setattr(gf_native, "_uid", lambda: os.getuid() + 1)
        reason = gf_native.availability_error()
        assert "refusing to import" in reason and "owned by uid" in reason
        # The foreign file is left alone.
        assert gf_native.KERNELS._find_extension(str(cache)) is not None

    def test_unusable_cache_directory_is_a_reason(self, fresh, monkeypatch, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv(gf_native.CACHE_ENV_VAR, str(blocker / "cache"))
        assert "is unusable" in gf_native.availability_error()


# ----------------------------------------------------------------------
# a failed build is recorded once
# ----------------------------------------------------------------------
class TestUnavailableMarker:
    @pytest.fixture
    def broken_toolchain(self, monkeypatch):
        """A compiler that fails in the build's child process; the list
        counts the children started."""
        pytest.importorskip("cffi")
        monkeypatch.setenv("CC", "/bin/false")
        attempts = []
        run = subprocess.run

        def counted(*args, **kwargs):
            attempts.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        return attempts

    def test_failed_build_writes_the_reason(self, cache, broken_toolchain):
        reason = gf_native.availability_error()
        assert "C toolchain unavailable or build failed" in reason
        assert _marker(cache).read_text().strip() == reason
        # Nothing else is left behind: no build directory, no extension.
        assert [p.name for p in cache.iterdir()] == [_marker(cache).name]
        # Within the process the reason is kept; nothing is retried.
        assert gf_native.availability_error() == reason
        assert broken_toolchain == [1]

    def test_next_process_reads_the_marker_and_does_not_compile(
        self, cache, broken_toolchain, monkeypatch
    ):
        first = gf_native.availability_error()
        # A pool worker on the same host: fresh module state, same cache.
        monkeypatch.setattr(gf_native.KERNELS, "_loaded", None)
        monkeypatch.setattr(gf_native.KERNELS, "_error", None)
        second = gf_native.availability_error()
        assert broken_toolchain == [1]
        assert second.startswith(first) and str(_marker(cache)) in second
        assert "delete it to retry" in second

    @needs_native
    def test_marker_of_another_source_revision_is_ignored(
        self, cache, built, monkeypatch
    ):
        cache.mkdir()
        (cache / "0123456789abcdef.unavailable").write_text("stale reason\n")
        monkeypatch.setattr(gf_native.KERNELS, "_compile", _copy_of(built[0]))
        assert gf_native.availability_error() is None

    @needs_native
    def test_an_extension_beside_a_marker_wins(self, cache, built, monkeypatch):
        cache.mkdir()
        shutil.copy(gf_native.KERNELS._find_extension(str(built[0])), cache)
        _marker(cache).write_text("an earlier failure\n")
        monkeypatch.setattr(gf_native.KERNELS, "_compile", _no_compile)
        assert gf_native.availability_error() is None


# ----------------------------------------------------------------------
# a cold build runs in a child process
# ----------------------------------------------------------------------
_FIRST_ENCODE = """
import sys
from repro.erasure.gf import default_backend
from repro.erasure.rs import ReedSolomonCode

ReedSolomonCode(6, 4).encode(bytes(range(32)))
assert default_backend() == "native", default_backend()
tooling = ("setuptools", "distutils")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in tooling)))
"""


@needs_native
def test_a_cold_build_leaves_the_asking_process_clean(tmp_path):
    """The first encode with an empty cache builds the kernels, under
    ``-W error``: nothing reaches the process's stderr, and the build
    tooling (setuptools, distutils) is imported only by the child that
    compiles."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    cache = tmp_path / "cache"
    cache.mkdir()
    env[gf_native.CACHE_ENV_VAR] = str(cache)
    env["PYTHONPATH"] = str(Path(gf_native.__file__).resolve().parents[2])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FIRST_ENCODE],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.strip() == ""
    assert gf_native.KERNELS._find_extension(str(cache)) is not None
