"""Build, cache and load the compiled kinetics kernels.

:class:`~repro.crn.kinetics.MassActionKinetics` evaluates its ODE
right-hand side and Jacobian with the ``Kernel`` type of the small
CPython extension in ``_ckinetics.c``, and
:class:`~repro.crn.simulation.ssa.IncrementalPropensities` runs the
Gillespie direct-method loop with its ``Ssa`` type, whenever that
extension builds; each falls back to its numpy reference path otherwise.
Both are bitwise equal to their reference (see the kernel source for the
contract).

The extension is compiled with the installed ``gcc`` against the
interpreter's and numpy's headers, without fast-math or host-specific
flags, and linked against the ``libnpyrandom.a`` numpy ships, so the SSA
loop draws its exponentials with numpy's own code.  It goes into
``__pycache__`` next to this module.  The file name carries a hash of the
source, the flags, the extension ABI tag, the numpy version, the path of
``libnpyrandom.a`` and the compiler version, so a change to any of them
builds afresh.  A build is written to a temporary file and renamed into
place, so processes building at the same time cannot see a partial file.

Nothing is built or loaded on import: :func:`load` runs on the first
right-hand-side or Jacobian evaluation or the first SSA ``simulate``
call, whichever comes first.  When the build or the import fails,
:func:`load` warns once per process (naming the compiler command and the
tail of its error output) and returns ``None``, and every caller uses
its numpy path.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np

SOURCE = Path(__file__).with_name("_ckinetics.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
MODULE_NAME = "repro.crn._ckinetics"
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: numpy's static distributions library (``random_standard_exponential``).
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

#: Lines of compiler error output quoted in the fallback warning.
STDERR_TAIL_LINES = 12

_lock = threading.Lock()
_module: ModuleType | None = None
_failure: str | None = None


class KernelBuildError(RuntimeError):
    """The kernel could not be compiled or imported."""


def load() -> ModuleType | None:
    """The compiled kernel module, or ``None`` when it is unavailable.

    The first call in a process builds (or finds in the cache) and
    imports the extension; later calls return the same result.  The
    first failure is reported as one :class:`RuntimeWarning`.
    """
    global _module, _failure
    with _lock:
        if _module is None and _failure is None:
            try:
                _module = _import(build(CACHE_DIR))
            except (KernelBuildError, OSError) as exc:
                _failure = str(exc)
                warnings.warn(
                    "compiled kinetics kernel unavailable, using the "
                    f"numpy reference path: {_failure}", RuntimeWarning,
                    stacklevel=3)
    return _module


def build(cache_dir: Path) -> Path:
    """Path of the built extension in ``cache_dir``, compiling if needed.

    Raises :class:`KernelBuildError` when the compiler or numpy's
    ``libnpyrandom.a`` is missing or the compiler fails, and
    :class:`OSError` when the source or the cache directory cannot be
    read or written.
    """
    compiler = shutil.which("gcc")
    if compiler is None:
        raise KernelBuildError("no gcc on PATH")
    if not NPYRANDOM.is_file():
        raise KernelBuildError(f"numpy's {NPYRANDOM} is missing")
    version = _run([compiler, "--version"]).partition("\n")[0]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(CFLAGS).encode(),
                 suffix.encode(), np.__version__.encode(),
                 str(NPYRANDOM).encode(), version.encode()):
        digest.update(part)
        digest.update(b"\0")
    target = cache_dir / f"_ckinetics-{digest.hexdigest()[:16]}{suffix}"
    if target.exists():
        return target
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix=f".{target.name}.", dir=cache_dir)
    os.close(fd)
    command = [compiler, *CFLAGS,
               f"-I{sysconfig.get_paths()['include']}",
               f"-I{np.get_include()}", str(SOURCE), str(NPYRANDOM), "-o",
               partial, "-lm"]
    try:
        _run(command)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _run(command: list[str]) -> str:
    """Standard output of ``command``; failures become KernelBuildError."""
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
    except OSError as exc:
        raise KernelBuildError(f"`{' '.join(command)}` failed: {exc}") \
            from exc
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()
                         [-STDERR_TAIL_LINES:])
        raise KernelBuildError(
            f"`{' '.join(command)}` exited with status "
            f"{done.returncode}:\n{tail}")
    return done.stdout


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path,
                                                  loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except ImportError as exc:
        raise KernelBuildError(f"cannot import {path}: {exc}") from exc
    return module
