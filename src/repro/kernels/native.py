"""Build and load the compiled WarpLDA chain (``_warp.c``) on first use.

The slab phases of :mod:`repro.kernels.warp` hand their per-chunk MH chain
and proposal scatter to two C functions when this module can provide them,
and run the NumPy slab body otherwise; both tiers consume the same RNG
stream and produce byte-identical results, so the tier is not an option:
it is on exactly when a C compiler is found.

Nothing happens at import.  The first :func:`library` call compiles
``_warp.c`` with ``sysconfig``'s ``CC`` (else ``cc``) and strict IEEE flags
into ``${XDG_CACHE_HOME:-~/.cache}/repro/warp-<sha256>.so``, keyed by the
source, flags, compiler and platform, then loads it with :mod:`ctypes`
(which releases the GIL for every call).  The cache directory is created
with mode 0700 and refused if another user could write to it; the compile
writes a temporary file there and ``os.replace``-s it into place, so
processes racing on a cold cache each end up loading a complete library.
Any failure — no compiler, a compile error, an unusable cache, a load
error — leaves the tier off; :func:`status` says which.
"""

from __future__ import annotations

import os
import stat
from functools import lru_cache
from pathlib import Path
from typing import Any, List, Optional, Tuple

__all__ = ["cache_dir", "compiler", "library", "status"]

SOURCE = Path(__file__).with_name("_warp.c")
#: No -ffast-math, no -march=native: the doubles must round as NumPy's do.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# The build and load machinery (ctypes, subprocess, hashlib, ...) is
# imported on first use, so processes that never run a WarpLDA phase — the
# serving workers import repro.kernels — do not pay for it.


def compiler() -> List[str]:
    """The compiler command: ``sysconfig``'s ``CC``, else ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]


def cache_dir() -> Path:
    """``${XDG_CACHE_HOME:-~/.cache}/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _private_dir(path: Path) -> None:
    """Create ``path`` (mode 0700) and refuse it if others could write to it."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"cache dir {path} is writable by another user")


def _build(command: List[str], directory: Path) -> Path:
    import hashlib
    import subprocess
    import sysconfig
    import tempfile

    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join(
            [source, " ".join(FLAGS).encode(), " ".join(command).encode(),
             sysconfig.get_platform().encode()]
        )
    ).hexdigest()[:32]
    target = directory / f"warp-{key}.so"
    if target.exists():
        return target
    fd, scratch = tempfile.mkstemp(prefix=".warp-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [*command, *FLAGS, "-o", scratch, str(SOURCE)],
            check=True, capture_output=True, text=True, timeout=300,
        )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return target


def _bind(path: Path) -> Any:
    import ctypes

    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib = ctypes.CDLL(str(path))
    lib.warp_chain.restype = i64
    lib.warp_chain.argtypes = [i64] * 5 + [ptr] * 5 + [f64, ptr, f64] + [ptr] * 4
    lib.warp_mixture.restype = None
    lib.warp_mixture.argtypes = [i64] * 2 + [ptr] * 8
    return lib


@lru_cache(maxsize=None)
def _load() -> Tuple[Optional[Any], str]:
    """``(ctypes.CDLL or None, status)``, computed once per process."""
    import subprocess

    command = compiler()
    try:
        directory = cache_dir()
        _private_dir(directory)
        path = _build(command, directory)
        return _bind(path), f"loaded {path}"
    except FileNotFoundError as error:
        if error.filename == command[0]:
            return None, f"off: no C compiler ({command[0]!r} not found)"
        return None, f"off: {error}"
    except subprocess.CalledProcessError as error:
        detail = (error.stderr or "").strip().splitlines()
        return None, f"off: compile failed ({detail[0] if detail else error})"
    except (AttributeError, OSError, subprocess.SubprocessError) as error:
        return None, f"off: {error}"


def library() -> Optional[Any]:
    """The loaded chain library, building it on the first call; ``None`` if off."""
    return _load()[0]


def status() -> str:
    """``"loaded <path>"`` when the tier is on, else ``"off: <reason>"``."""
    return _load()[1]
