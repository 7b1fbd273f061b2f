"""The compiled tier: its registry, where the build cache lives, what it
refuses, and that every way a build can fail ends as a named reason, never
an exception.

The GF(2^8) kernels are the module built here: ``native`` is the default
backend, so ``KERNELS.load`` runs in every process that encodes a value,
and a crash here is a crash for every user whose cache directory is in a
bad state.  One real compile is paid (the ``built`` fixture, which is also
the "directory exists but holds no extension" case); every other test
copies its output.
"""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.erasure.gf import KERNELS
from repro.native import CACHE_ENV_VAR, NATIVE

needs_native = pytest.mark.skipif(
    KERNELS.availability_error() is not None,
    reason="native GF backend unavailable (no C toolchain)",
)


def test_the_registry_names_every_compiled_module():
    """``repro --version``, the tests' ``twin`` fixture and CI's
    no-toolchain job count and name the modules by iterating this."""
    assert [(m.label, m.fallback, m.name) for m in NATIVE] == [
        ("gf backend", "numpy", "_repro_gf_kernels"),
        ("run loop", "python", "_repro_run_loop"),
        ("checker core", "python", "_repro_checker_core"),
    ]
    assert len({m._source_digest() for m in NATIVE}) == 3


def test_naming_the_registry_imports_no_module():
    code = (
        "import sys\n"
        "from repro.native import NATIVE\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(native.__file__).parents[1])},
    )
    assert done.stdout.strip() == "['repro.native']", done.stderr


@pytest.fixture
def fresh(monkeypatch):
    """The kernels as a new process finds them: nothing loaded, no error kept."""
    monkeypatch.setattr(KERNELS, "_loaded", None)
    monkeypatch.setattr(KERNELS, "_error", None)


@pytest.fixture
def cache(fresh, monkeypatch, tmp_path):
    directory = tmp_path / "cache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(directory))
    return directory


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One real build, into a cache directory that already exists, empty."""
    directory = tmp_path_factory.mktemp("prebuilt")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KERNELS, "_loaded", None)
        patch.setattr(KERNELS, "_error", None)
        patch.setenv(CACHE_ENV_VAR, str(directory))
        module = KERNELS.load()
    return directory, module


def _marker(directory):
    return directory / f"{KERNELS._source_digest()}.unavailable"


def _no_compile(*args):
    raise AssertionError("a compile was attempted")


def _copy_of(built_directory):
    """A stand-in for ``_compile`` that publishes the module's one real build."""

    def compile_(cache_dir, marker):
        source = KERNELS._find_extension(str(built_directory))
        return shutil.copy(source, cache_dir)

    return compile_


def _kernel_works(module):
    table = np.arange(65536, dtype=np.uint16).astype(np.uint8).reshape(256, 256)
    out = bytearray(1)
    module.matmul_many(bytes([3]), table, bytes([5]), out, 1, 1, 1, 1)
    return out[0] == table[3, 5]


# ----------------------------------------------------------------------
# where the cache lives
# ----------------------------------------------------------------------
class TestCacheLocation:
    def test_override_names_the_directory_outright(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "here"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert KERNELS._cache_dir() == str(tmp_path / "here")

    def test_xdg_cache_home_then_home_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        under_xdg = KERNELS._cache_dir()
        assert under_xdg.startswith(str(tmp_path / "xdg" / "repro-gf-native"))
        assert KERNELS._source_digest() in os.path.basename(under_xdg)
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert KERNELS._cache_dir().startswith(
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
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(locked / "cache"))
        assert f"repro-gf-native-uid{os.getuid()}-" in KERNELS._cache_dir()

    def test_relative_xdg_cache_home_is_ignored(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert KERNELS._cache_dir().startswith(str(tmp_path / ".cache"))

    def test_no_home_at_all_falls_back_to_the_temp_directory(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        assert "repro-gf-native-uid" in os.path.basename(KERNELS._cache_dir())

    @needs_native
    def test_directory_is_created_private(self, cache, built, monkeypatch):
        monkeypatch.setattr(KERNELS, "_compile", _copy_of(built[0]))
        assert not cache.exists()
        KERNELS.load()
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
        directory, module = built
        assert KERNELS._find_extension(str(directory)) is not None
        # Only the extension is published; the build directory is gone.
        assert [p.name for p in directory.iterdir()] == [
            os.path.basename(KERNELS._find_extension(str(directory)))
        ]
        assert _kernel_works(module)

    def test_truncated_cached_file_is_rebuilt_once(self, cache, built, monkeypatch):
        """ISSUE 16 (b): ``ImportError: file too short``."""
        cache.mkdir()
        good = KERNELS._find_extension(str(built[0]))
        bad = cache / os.path.basename(good)
        bad.write_bytes(open(good, "rb").read()[:100])
        calls = []
        copy = _copy_of(built[0])
        monkeypatch.setattr(
            KERNELS, "_compile", lambda *a: calls.append(a) or copy(*a)
        )
        assert KERNELS.availability_error() is None
        assert len(calls) == 1
        assert _kernel_works(KERNELS.load())
        assert bad.stat().st_size == os.path.getsize(good)

    def test_foreign_file_that_stays_bad_is_a_reason(self, cache, monkeypatch):
        cache.mkdir()
        name = f"{KERNELS.name}-{KERNELS._source_digest()}.cpython-foreign.so"
        (cache / name).write_text("not an ELF file")

        def republish_garbage(cache_dir, marker):
            path = os.path.join(cache_dir, name)
            with open(path, "w") as handle:
                handle.write("still not an ELF file")
            return path

        monkeypatch.setattr(KERNELS, "_compile", republish_garbage)
        reason = KERNELS.availability_error()
        assert reason is not None and str(cache) in reason
        assert KERNELS.availability_error() == reason

    def test_a_file_of_another_uid_is_refused_not_rebuilt(
        self, cache, built, monkeypatch
    ):
        cache.mkdir()
        shutil.copy(KERNELS._find_extension(str(built[0])), cache)
        monkeypatch.setattr(KERNELS, "_compile", _no_compile)
        monkeypatch.setattr(native, "_uid", lambda: os.getuid() + 1)
        reason = KERNELS.availability_error()
        assert "refusing to import" in reason and "owned by uid" in reason
        # The foreign file is left alone.
        assert KERNELS._find_extension(str(cache)) is not None

    def test_unusable_cache_directory_is_a_reason(self, fresh, monkeypatch, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv(CACHE_ENV_VAR, str(blocker / "cache"))
        assert "is unusable" in KERNELS.availability_error()


# ----------------------------------------------------------------------
# a new build keeps the newest four of its module
# ----------------------------------------------------------------------
class TestPruning:
    @pytest.fixture
    def fake_build(self, fresh, monkeypatch):
        """``_build`` writes a stand-in file where the compiler would."""

        def build(build_dir):
            path = os.path.join(build_dir, _build_name(KERNELS.name, KERNELS._source_digest()))
            Path(path).write_text("a build")
            return path

        monkeypatch.setattr(KERNELS, "_build", build)

    @staticmethod
    def _stage(directory, name, digest, age):
        """A build of ``name`` at ``digest``, ``age`` seconds old."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / _build_name(name, digest)
        path.write_text("an old build")
        os.utime(path, (path.stat().st_mtime - age,) * 2)
        return path

    def test_six_builds_in_a_named_directory_leave_the_newest_four(
        self, cache, fake_build
    ):
        old = [self._stage(cache, KERNELS.name, f"{i:016x}", 100 - i) for i in range(5)]
        other = [self._stage(cache, "_repro_run_loop", f"{i:016x}", 200) for i in range(5)]
        marker = cache / "0000000000000000.unavailable"
        marker.write_text("an old failure\n")
        published = KERNELS._compile(str(cache), str(_marker(cache)))
        kept = sorted(p.name for p in cache.iterdir() if p.name.startswith(KERNELS.name))
        assert kept == sorted([os.path.basename(published), *(p.name for p in old[2:])])
        assert all(p.exists() for p in other) and marker.exists()

    def test_sibling_digest_directories_go_with_their_builds(
        self, fresh, fake_build, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        root = tmp_path / "repro-gf-native"
        old = [
            self._stage(root / f"{i:016x}-py39", KERNELS.name, f"{i:016x}", 100 - i)
            for i in range(5)
        ]
        (old[1].parent / "0000000000000001.unavailable").write_text("a failure\n")
        other = self._stage(root / f"{9:016x}-py39", "_repro_run_loop", f"{9:016x}", 200)
        cache_dir = KERNELS._cache_dir()
        os.makedirs(cache_dir)
        KERNELS._compile(cache_dir, os.path.join(cache_dir, "marker"))
        assert not old[0].parent.exists()  # empty once its build went
        assert [p.name for p in old[1].parent.iterdir()] == ["0000000000000001.unavailable"]
        assert all(p.exists() for p in old[2:]) and other.exists()
        assert KERNELS._find_extension(cache_dir) is not None

    def test_builds_of_another_uid_are_left(self, cache, fake_build, monkeypatch):
        old = [self._stage(cache, KERNELS.name, f"{i:016x}", 100 - i) for i in range(5)]
        monkeypatch.setattr(native, "_uid", lambda: os.getuid() + 1)
        monkeypatch.setattr(native, "_require_owned", lambda path: None)
        KERNELS._compile(str(cache), str(_marker(cache)))
        assert all(p.exists() for p in old)

    @needs_native
    def test_a_build_that_vanishes_before_its_import_is_rebuilt(
        self, cache, built, monkeypatch
    ):
        """Another process pruned it between ``_find_extension`` and the
        import, its directory with it."""
        cache.mkdir()
        shutil.copy(KERNELS._find_extension(str(built[0])), cache)
        find = KERNELS._find_extension

        def find_then_vanish(directory):
            found = find(directory)
            if directory == str(cache):
                shutil.rmtree(directory)
            return found

        calls = []
        copy = _copy_of(built[0])
        monkeypatch.setattr(KERNELS, "_find_extension", find_then_vanish)
        monkeypatch.setattr(KERNELS, "_compile", lambda *a: calls.append(a) or copy(*a))
        assert KERNELS.availability_error() is None
        assert len(calls) == 1 and _kernel_works(KERNELS.load())


def _build_name(name, digest):
    import sysconfig

    return f"{name}-{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"


# ----------------------------------------------------------------------
# a failed build is recorded once
# ----------------------------------------------------------------------
class TestUnavailableMarker:
    @pytest.fixture
    def broken_toolchain(self, monkeypatch):
        """A compiler that fails in the build's child process; the list
        counts the children started."""
        monkeypatch.setenv("CC", "/bin/false")
        attempts = []
        run = subprocess.run

        def counted(*args, **kwargs):
            attempts.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        return attempts

    def test_failed_build_writes_the_reason(self, cache, broken_toolchain):
        reason = KERNELS.availability_error()
        assert reason.startswith(
            "C toolchain unavailable or build failed: /bin/false exited with 1"
        )
        assert _marker(cache).read_text().strip() == reason
        # Nothing else is left behind: no build directory, no extension.
        assert [p.name for p in cache.iterdir()] == [_marker(cache).name]
        # Within the process the reason is kept; nothing is retried.
        assert KERNELS.availability_error() == reason
        assert broken_toolchain == [1]

    def test_next_process_reads_the_marker_and_does_not_compile(
        self, cache, broken_toolchain, monkeypatch
    ):
        first = KERNELS.availability_error()
        # A pool worker on the same host: fresh module state, same cache.
        monkeypatch.setattr(KERNELS, "_loaded", None)
        monkeypatch.setattr(KERNELS, "_error", None)
        second = KERNELS.availability_error()
        assert broken_toolchain == [1]
        assert second.startswith(first) and str(_marker(cache)) in second
        assert "delete it to retry" in second

    @needs_native
    def test_marker_of_another_source_revision_is_ignored(
        self, cache, built, monkeypatch
    ):
        cache.mkdir()
        (cache / "0123456789abcdef.unavailable").write_text("stale reason\n")
        monkeypatch.setattr(KERNELS, "_compile", _copy_of(built[0]))
        assert KERNELS.availability_error() is None

    @needs_native
    def test_an_extension_beside_a_marker_wins(self, cache, built, monkeypatch):
        cache.mkdir()
        shutil.copy(KERNELS._find_extension(str(built[0])), cache)
        _marker(cache).write_text("an earlier failure\n")
        monkeypatch.setattr(KERNELS, "_compile", _no_compile)
        assert KERNELS.availability_error() is None


# ----------------------------------------------------------------------
# a build is named by its source and its flags
# ----------------------------------------------------------------------
class TestDigest:
    def test_a_changed_flag_is_a_new_build(self, monkeypatch, tmp_path):
        """Editing how a module is compiled must not reuse its old build:
        another flag is another digest, so another cache directory and
        another marker."""
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        before = KERNELS._source_digest(), KERNELS._cache_dir()
        flags = native.compile_flags()
        monkeypatch.setattr(native, "compile_flags", lambda: (*flags, "-O0"))
        after = KERNELS._source_digest(), KERNELS._cache_dir()
        assert after[0] != before[0]
        assert after[1] != before[1] and after[0] in after[1]

    @needs_native
    def test_a_named_directory_does_not_serve_another_flags_build(
        self, cache, built, monkeypatch
    ):
        """``REPRO_GF_NATIVE_CACHE`` holds every revision's build in one
        directory, so the file name carries the digest too."""
        cache.mkdir()
        shutil.copy(KERNELS._find_extension(str(built[0])), cache)
        assert KERNELS._find_extension(str(cache)) is not None
        flags = native.compile_flags()
        monkeypatch.setattr(native, "compile_flags", lambda: (*flags, "-O0"))
        assert KERNELS._find_extension(str(cache)) is None

    def test_the_compiler_is_not_part_of_the_name(self, monkeypatch):
        """``CC=/bin/false`` looks for the same build, and records its
        failure under the same marker, as the default compiler."""
        before = KERNELS._source_digest()
        monkeypatch.setenv("CC", "/bin/false")
        assert native.compiler() == ["/bin/false"]
        assert KERNELS._source_digest() == before

    def test_the_flags_are_pythons_own(self):
        import sysconfig

        flags = native.compile_flags()
        assert "-I" + sysconfig.get_config_var("INCLUDEPY") in flags
        for name in ("CFLAGS", "CCSHARED"):
            assert set(sysconfig.get_config_var(name).split()) <= set(flags)


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
    ``-W error``: nothing reaches the process's stderr, and no build
    tooling (setuptools, distutils) is imported: the child that compiles
    is the compiler itself."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    cache = tmp_path / "cache"
    cache.mkdir()
    env[CACHE_ENV_VAR] = str(cache)
    env["PYTHONPATH"] = str(Path(native.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FIRST_ENCODE],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.strip() == ""
    assert KERNELS._find_extension(str(cache)) is not None
