"""The compiled tier: C extensions built at first use, and their registry.

Three modules have a C twin of their hot path, each a plain CPython
extension whose source is a Python string: the GF(2^8) kernels
(:mod:`repro.erasure.gf`), the run loop (:mod:`repro.sim.run_loop`) and the
checker core (:mod:`repro.consistency.checker_core`).  Each falls back to
code that gives the same bytes (numpy kernels, the Python loop, the Python
checker) where it cannot be built.  :data:`NATIVE` names them.

A build is one child process, the compiler (``$CC``, else sysconfig's
``CC``; ``CC=/bin/false`` fails every build) with sysconfig's ``CFLAGS``,
``CCSHARED``, include directory and ``LDSHARED`` link flags, writing
``<name><EXT_SUFFIX>`` into a content-addressed directory (the source and
those flags, the python tag) under ``$XDG_CACHE_HOME`` / ``~/.cache``, or a
uid-named one under the temp dir when neither can be written;
``REPRO_GF_NATIVE_CACHE`` names the directory outright.  Nothing is
imported from a directory or file another uid owns.  A cached file that
does not load is rebuilt once; a failed build leaves a
``<digest>.unavailable`` marker with the reason, so the workers of a pool
read one line each instead of each retrying.  Delete it to try again.
A new build keeps the newest four builds of its module and removes older
ones the current uid owns, so the cache does not grow per revision.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import shutil
import sys
import tempfile
import threading
from contextlib import suppress
from functools import lru_cache
from types import ModuleType
from typing import Iterator, List, Optional, Tuple

#: Environment variable naming the build directory outright.
CACHE_ENV_VAR = "REPRO_GF_NATIVE_CACHE"


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


def _config(name: str) -> str:
    import sysconfig  # imported here: only the first load of a module needs it

    return sysconfig.get_config_var(name) or ""


def compiler() -> List[str]:
    """``$CC`` if set, else the compiler Python was built with."""
    import shlex

    return shlex.split(os.environ.get("CC") or "") or _config("CC").split()


@lru_cache(maxsize=None)
def compile_flags() -> Tuple[str, ...]:
    """Everything the build passes the compiler but the file names."""
    cc, link = _config("CC").split(), _config("LDSHARED").split()
    link = link[len(cc) :] if link[: len(cc)] == cc else link[1:]  # its flags
    return (
        *_config("CFLAGS").split(),
        *_config("CCSHARED").split(),
        "-I" + _config("INCLUDEPY"),
        *link,
    )


class CompiledModule:
    """A C extension built from ``source`` at first use into the build cache
    above.  ``label`` and ``fallback`` name it and its Python-side twin in
    :meth:`describe`."""

    def __init__(self, name: str, source: str, label: str, fallback: str) -> None:
        self.name = name
        self.source = source
        self.label = label
        self.fallback = fallback
        self._lock = threading.Lock()
        self._loaded: Optional[ModuleType] = None
        self._error: Optional[str] = None

    def _source_digest(self) -> str:
        """Names this build: the source and every flag it is compiled with."""
        recipe = "\0".join([self.source, *compile_flags()])
        return hashlib.sha256(recipe.encode()).hexdigest()[:16]

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
        # The digest is in the file name too: a directory named outright
        # holds every revision's build.
        prefix = f"{self.name}-{self._source_digest()}"
        for name in sorted(os.listdir(directory)):
            if name.startswith(prefix) and name.endswith((".so", ".pyd")):
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
            handle.write(self.source)
        name = f"{self.name}-{self._source_digest()}{_config('EXT_SUFFIX')}"
        built = os.path.join(build_dir, name)
        command = [*compiler(), *compile_flags(), source, "-o", built]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode == -signal.SIGINT:  # ^C, not a toolchain to record
            raise KeyboardInterrupt
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"{command[0]} exited with {done.returncode}: {last}")
        return built

    def _compile(self, cache_dir: str, marker: str) -> str:
        """Build the extension and publish it into ``cache_dir``; returns its path."""
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
        finally:
            shutil.rmtree(build_dir, ignore_errors=True)
        self._prune(published)
        return published

    def _prune(self, published: str) -> None:
        """Remove this module's builds older (by mtime) than the newest four
        -- four, so two trees taking turns do not rebuild each other -- where
        the current uid owns them: in a directory named outright, files beside
        ``published``; else sibling digest directories, each once empty."""
        import glob  # imported here: only a new build needs it

        directory, uid = os.path.dirname(published), _uid()
        digest = "[0-9a-f]" * 16
        build = f"{glob.escape(self.name)}-{digest}*"
        if os.environ.get(CACHE_ENV_VAR):
            pattern = os.path.join(glob.escape(directory), build)
        else:
            parent, leaf = os.path.split(directory)
            prefix = glob.escape(leaf.split(self._source_digest())[0])
            pattern = os.path.join(glob.escape(parent), f"{prefix}{digest}-py*", build)
        builds = []
        for path in glob.glob(pattern):
            with suppress(OSError):  # gone meanwhile
                if path.endswith((".so", ".pyd")):
                    builds.append((os.lstat(path), path))
        builds.sort(key=lambda entry: entry[0].st_mtime, reverse=True)
        for status, path in builds[4:]:
            if path != published and uid in (None, status.st_uid):
                with suppress(OSError):
                    os.unlink(path)
                    if uid in (None, os.stat(os.path.dirname(path)).st_uid):
                        os.rmdir(os.path.dirname(path))  # fails unless now empty

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
                except (ImportError, FileNotFoundError):
                    # Truncated, foreign or pruned: out of the way, one rebuild.
                    with suppress(FileNotFoundError):
                        os.unlink(cached)
                    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
                    _require_owned(cache_dir)
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

    def describe(self) -> str:
        """What runs: ``native``, or the fallback and why."""
        error = self.availability_error()
        if error is None:
            return "native"
        return f"{self.fallback} (native unavailable: {error})"


class _Registry:
    """``"<module>.<attribute>"`` paths whose iteration imports each one, so
    naming the registry loads no module."""

    def __init__(self, *paths: str) -> None:
        self.paths = paths

    def __iter__(self) -> Iterator[CompiledModule]:
        for path in self.paths:
            module, attribute = path.rsplit(".", 1)
            yield getattr(importlib.import_module(module), attribute)


#: Every compiled module, in the order ``repro --version`` names them.
NATIVE = _Registry(
    "repro.erasure.gf.KERNELS",
    "repro.sim.run_loop.LOOP",
    "repro.consistency.checker_core.CORE",
)
