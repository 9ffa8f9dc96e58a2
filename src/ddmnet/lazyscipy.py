"""scipy.linalg, loaded on first use, and the thread counts of the wheels' OpenBLAS copies.

numpy serves an analysis alone, on any graph. scipy serves the matrix
exponential and Dijkstra, and importing it costs more than importing numpy,
so each module that needs scipy imports it inside the function that calls it. scipy.linalg comes from `scipy_linalg()`,
read at call time, so a name patched on the scipy.linalg module is seen.

`single_thread_blas_on_load()`, which the CLI calls, runs scipy's bundled
OpenBLAS on one thread: at once when scipy.linalg is already loaded, and
otherwise when `scipy_linalg()` first loads it. Importing ddmnet changes no
process state.

Monte Carlo runs numpy's bundled OpenBLAS on one thread:
`single_thread_numpy_blas()` initializes each worker process, and
`numpy_blas_on_one_thread()` holds the setting while chunks run in the
calling process, so that every chunk's products give the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

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


def _wheel_openblas(package: str) -> ctypes.CDLL | None:
    """The OpenBLAS copy loaded from `package`'s wheel, or None when there is none.

    The numpy and scipy wheels each bundle their own OpenBLAS, in the package
    directory or in `<package>.libs`; a build that links a shared BLAS maps
    none from there. Linux only: elsewhere /proc/self/maps does not exist.
    """
    root = Path(importlib.import_module(package).__file__).resolve().parent
    wheel = tuple(f"{d}{os.sep}" for d in (root, root.with_name(f"{package}.libs")))
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    found = sorted(path for path in paths if path.startswith(wheel))
    return ctypes.CDLL(found[0]) if found else None


def _thread_controls(lib: ctypes.CDLL | None) -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The getter and setter of an OpenBLAS copy's thread count, or None without a copy."""
    if lib is None:
        return None
    # numpy 2.x wheels export the 64-bit-integer names, scipy's the plain ones
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def _numpy_thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """`_thread_controls` of numpy's own OpenBLAS, mapped from the moment numpy is imported."""
    return _thread_controls(_wheel_openblas("numpy"))


@functools.cache
def _single_thread_scipy_blas() -> None:
    """Run scipy's own OpenBLAS copy, if it has one, on one thread.

    Called only once scipy.linalg is loaded, when that copy is mapped. Each
    OpenBLAS copy keeps a thread pool as large as the CPU count, and scipy's
    serves only expm here. Requests alternate between it and
    numpy's pool, so two full pools would contend for the same CPUs. numpy's
    pool, which computes every other result, keeps its default outside Monte
    Carlo chunks.
    """
    threads = _thread_controls(_wheel_openblas("scipy"))
    if threads is not None:
        threads[1](1)


def single_thread_numpy_blas() -> None:
    """Run numpy's own OpenBLAS copy, if it has one, on one thread for good.

    The initializer of the Monte Carlo worker processes: the workers fill the
    CPUs between them, so a full BLAS pool in each would put two threads on
    every CPU.
    """
    threads = _numpy_thread_controls()
    if threads is not None:
        threads[1](1)


@contextlib.contextmanager
def numpy_blas_on_one_thread() -> Iterator[None]:
    """Run numpy's own OpenBLAS copy, if it has one, on one thread inside the block.

    OpenBLAS can round a product with a long inner dimension differently on
    one thread and on several. Code that must match the one-thread pool
    workers bit for bit runs in here; the previous count is restored on exit.
    """
    threads = _numpy_thread_controls()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
