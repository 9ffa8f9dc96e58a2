"""The thread count of numpy's bundled OpenBLAS, held at one in Monte Carlo.

ddmnet's linear algebra runs on the OpenBLAS copy bundled in numpy's
wheel, with that copy's default thread pool; scipy, loaded by closeness
alone, serves its shortest paths, which call no BLAS. Importing ddmnet
changes no process state.

Monte Carlo runs that copy on one thread: `single_thread_numpy_blas()`
initializes each worker process, and `numpy_blas_on_one_thread()` holds the
setting while chunks run in the calling process, so that every chunk's
products give the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


def _numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS copy loaded from numpy's wheel, or None when there is none.

    The wheel bundles it in the package directory or in `numpy.libs`; a build
    that links a shared BLAS maps none from there. Linux only: elsewhere
    /proc/self/maps does not exist.
    """
    root = Path(np.__file__).resolve().parent
    wheel = tuple(f"{d}{os.sep}" for d in (root, root.with_name("numpy.libs")))
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    found = sorted(path for path in paths if path.startswith(wheel))
    return ctypes.CDLL(found[0]) if found else None


@functools.cache
def _numpy_thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The getter and setter of the thread count of numpy's own OpenBLAS, or
    None without a copy. It is mapped from the moment numpy is imported."""
    lib = _numpy_openblas()
    if lib is None:
        return None
    # numpy 2.x wheels bundle scipy-openblas (prefixed names), 1.x wheels plain
    # OpenBLAS; 64-bit-integer builds suffix every name with 64_
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


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
