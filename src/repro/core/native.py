"""Build-on-first-use loader for the compiled kernel extension.

The ``native`` KERNELS backend runs the reduction cascade, the branch
step and the greedy pass from one committed C file, ``_native.c`` beside
this module, written as a CPython extension.  No build step precedes a
run: the first interpreter that asks for the backend compiles the source
with the system C compiler and caches the shared object; every later
interpreter (and every ``serve-worker`` host sharing the cache) only
imports the cached file.

* **Compile.**  ``gcc`` (or ``cc``) with the interpreter's ``sysconfig``
  include directory and numpy's, producing ``_native<EXT_SUFFIX>``.
* **Cache key.**  sha256 over the source bytes, the ABI (interpreter
  version, extension suffix, numpy version) and the compiler flags — a
  changed source or interpreter can never import a stale object.
* **Cache directory.**  ``$XDG_CACHE_HOME`` (default ``~/.cache``) under
  ``repro-native/<key>/``; when that is not writable, a per-uid
  ``repro-native-<uid>/<key>/`` directory under
  ``tempfile.gettempdir()``.
* **Ownership.**  A cached object is imported only when it, its key
  directory and that directory's parent are owned by the current user,
  are not symlinks and are not writable by group or others (the tempdir
  is shared, and its key is computable by anyone).  Directories are
  created with mode 0700; a candidate that fails the check is skipped.
* **Concurrent first builds** are safe: each builder compiles to a
  private temporary name in the cache directory and moves it into place
  with ``os.replace``, so a reader only ever sees a complete file.
* **Fallback.**  :func:`load` never raises: without a compiler (or on
  any build/import failure) it returns ``None`` and records the reason
  in :func:`load_error`.  The KERNELS registry turns that into a silent
  fallback for ``auto`` and a one-time warning for an explicit
  ``kernels="native"``.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Iterator, Optional

__all__ = [
    "SOURCE",
    "CFLAGS",
    "load",
    "load_error",
    "cache_key",
    "cache_dirs",
    "build",
    "find_compiler",
]

#: The committed C source of the extension.
SOURCE = Path(__file__).with_name("_native.c")

#: Compiler flags; part of the cache key.
CFLAGS = ("-O2", "-shared", "-fPIC", "-fno-strict-aliasing", "-DNDEBUG")

#: Module name baked into the source's ``PyInit__native``.
_MODULE = "_native"

#: Seconds a compile may take before the build is abandoned.
_BUILD_TIMEOUT_S = 120

_UNSET = object()
_module: object = _UNSET
_error: Optional[str] = None


class BuildError(RuntimeError):
    """The extension could not be compiled."""


def find_compiler() -> Optional[str]:
    """Path of the system C compiler, or ``None`` (the compiler probe)."""
    for name in ("gcc", "cc"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _ext_suffix() -> str:
    # The interpreter's EXT_SUFFIX (sysconfig), read without importing
    # sysconfig so a cache hit stays cheap.
    return importlib.machinery.EXTENSION_SUFFIXES[0]


def cache_key(source: bytes) -> str:
    """sha256 over the source, the interpreter/numpy ABI and the flags."""
    import numpy as np

    h = hashlib.sha256(source)
    for part in (sys.version, _ext_suffix(), np.__version__, *CFLAGS):
        h.update(b"\0" + part.encode())
    return h.hexdigest()


def cache_dirs(key: str) -> Iterator[Path]:
    """Candidate cache directories for ``key``, preferred first."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    yield Path(base) / "repro-native" / key
    yield Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}" / key


def _import(path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location(f"repro.core.{_MODULE}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ours(path: Path, is_dir: bool) -> bool:
    """``path`` is owned by this user, no symlink, not group/other-writable."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    kind = stat.S_ISDIR(st.st_mode) if is_dir else stat.S_ISREG(st.st_mode)
    return kind and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _trusted_dir(directory: Path) -> bool:
    """The key directory and its ``repro-native[-<uid>]`` parent are ours."""
    return _ours(directory.parent, True) and _ours(directory, True)


def _private_dir(directory: Path) -> Path:
    """Create ``directory`` (mode 0700); refuse it unless it is ours."""
    directory.parent.parent.mkdir(parents=True, exist_ok=True)
    for level in (directory.parent, directory):
        try:
            level.mkdir(mode=0o700)
        except FileExistsError:
            pass
    if not _trusted_dir(directory):
        raise PermissionError(f"{directory} is not private to this user")
    return directory


def build(directory: Path) -> Path:
    """Compile the extension into ``directory`` and return its path.

    The object is written under a temporary name in ``directory`` and
    moved into place with :func:`os.replace`, so concurrent builders both
    succeed and a reader never sees a partial file.
    """
    import sysconfig

    import numpy as np

    compiler = find_compiler()
    if compiler is None:
        raise BuildError("no C compiler (gcc or cc) on PATH")
    directory = _private_dir(directory)
    target = directory / (_MODULE + _ext_suffix())
    fd, tmp = tempfile.mkstemp(prefix=f".{_MODULE}-", suffix=".tmp",
                               dir=directory)
    os.close(fd)
    try:
        cmd = [compiler, *CFLAGS,
               "-I", sysconfig.get_paths()["include"],
               "-I", np.get_include(),
               str(SOURCE), "-o", tmp]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=_BUILD_TIMEOUT_S)
        if done.returncode != 0:
            tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
            raise BuildError(f"{compiler} exited {done.returncode}: "
                             + " | ".join(tail))
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _locate_or_build() -> Path:
    """The cached object for the current source, building it if absent."""
    key = cache_key(SOURCE.read_bytes())
    name = _MODULE + _ext_suffix()
    dirs = list(cache_dirs(key))
    for directory in dirs:
        target = directory / name
        if _trusted_dir(directory) and _ours(target, False):
            return target
    last: Optional[OSError] = None
    for directory in dirs:
        try:
            return build(directory)
        except OSError as exc:  # not writable: try the next candidate
            last = exc
    raise BuildError(f"no writable cache directory: {last}")


def load() -> Optional[ModuleType]:
    """The compiled extension module, or ``None`` when it cannot be had.

    Tried once per process; the outcome (module or failure) is cached.
    Engine parents call this before starting workers, so workers share
    the loaded module instead of probing again.
    """
    global _module, _error
    if _module is _UNSET:
        try:
            _module = _import(_locate_or_build())
            _error = None
        except (OSError, ImportError, BuildError, subprocess.SubprocessError) as exc:
            _module = None
            _error = f"{type(exc).__name__}: {exc}"
    return _module  # type: ignore[return-value]


def load_error() -> Optional[str]:
    """Why the last :func:`load` failed, or ``None``."""
    return _error
