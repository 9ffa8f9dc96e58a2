"""scipy.linalg, loaded on first use, and the thread count of scipy's own OpenBLAS.

numpy serves a symmetric-graph analysis alone. scipy serves the complex
Schur factorization, the matrix exponential and Dijkstra, and importing it
costs more than importing numpy, so each module that needs scipy imports it
inside the function that calls it. scipy.linalg comes from `scipy_linalg()`,
read at call time, so a name patched on the scipy.linalg module is seen.

`single_thread_blas_on_load()`, which the CLI calls, runs scipy's bundled
OpenBLAS on one thread: at once when scipy.linalg is already loaded, and
otherwise when `scipy_linalg()` first loads it. Importing ddmnet changes no
process state.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from pathlib import Path
from types import ModuleType

_single_thread_requested = False


def scipy_linalg() -> ModuleType:
    """The scipy.linalg module, with scipy's BLAS on one thread once that was requested."""
    import scipy.linalg

    if _single_thread_requested:
        _single_thread_scipy_blas()
    return scipy.linalg


def single_thread_blas_on_load() -> None:
    """Run scipy's own OpenBLAS on one thread from the moment scipy.linalg is loaded.

    Before scipy.linalg is loaded its OpenBLAS is not mapped, so the setting
    waits for `scipy_linalg()` to load it.
    """
    global _single_thread_requested
    _single_thread_requested = True
    if "scipy.linalg" in sys.modules:
        _single_thread_scipy_blas()


def _scipy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS copy loaded from scipy's wheel, or None when there is none.

    Wheels bundle one OpenBLAS with numpy and another with scipy; a scipy that
    links the BLAS numpy uses maps none from its own directories. Linux only:
    elsewhere /proc/self/maps does not exist.
    """
    import scipy

    package = Path(scipy.__file__).resolve().parent
    wheel = tuple(f"{d}{os.sep}" for d in (package, package.with_name("scipy.libs")))
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    found = sorted(path for path in paths if path.startswith(wheel))
    return ctypes.CDLL(found[0]) if found else None


@functools.cache
def _single_thread_scipy_blas() -> None:
    """Run scipy's own OpenBLAS copy, if it has one, on one thread.

    Called only once scipy.linalg is loaded, when that copy is mapped. Each
    OpenBLAS copy keeps a thread pool as large as the CPU count, and scipy's
    serves only expm and schur here. Requests alternate between it and
    numpy's pool, so two full pools would contend for the same CPUs. numpy's
    pool, which computes every other result, keeps its default.
    """
    lib = _scipy_openblas()
    if lib is None:
        return
    for symbol in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], None
            fn(1)
            return
