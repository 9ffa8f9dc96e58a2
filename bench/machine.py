"""Machine record and same-run reference measurements.

Library threading is left at its defaults and recorded, not set. The RNG
ceiling is the single-stream normal rate of the bit generator the simulator
actually constructs, measured in the same run as the workload.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS copy loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    return threads


def simulator_bit_generator() -> type:
    """The bit generator class that ddmnet's simulator hands to np.random.Generator."""
    from ddmnet import ModelParams, SimConfig, build_graph, simulate_ensemble

    seen: list[type] = []
    real = np.random.Generator

    def spy(bit_generator, *args, **kwargs):
        seen.append(type(bit_generator))
        return real(bit_generator, *args, **kwargs)

    np.random.Generator = spy
    try:
        cfg = SimConfig(ModelParams(), t_max=0.01, step=0.01, trajectories=2, seed=0,
                        sample_times=(0.01,))
        simulate_ensemble(build_graph(2, [(1, 2, 1.0), (2, 1, 1.0)]), cfg)
    finally:
        np.random.Generator = real
    return seen[0] if seen else np.random.PCG64


def rng_ceiling(bit_generator: type, draws: int = 1_000_000, repeats: int = 7) -> float:
    """Median normals per second of one stream drawing `draws` at a time."""
    gen = np.random.Generator(bit_generator(12345))
    out = np.empty(draws)
    gen.standard_normal(out=out)
    rates = []
    for _ in range(repeats):
        start = perf_counter()
        gen.standard_normal(out=out)
        rates.append(draws / (perf_counter() - start))
    return statistics.median(rates)


def import_seconds(root: Path, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing ddmnet.cli, after one untimed
    import that writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import ddmnet.cli"]
    subprocess.run(cmd, cwd=root, env=env, check=True)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def record(bit_generator: type, ceiling: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0))
    threads = openblas_threads()
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": threads,
        "blas_threads_within_cpus": all(t <= cpus for t in threads.values()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "rng": {"bit_generator": bit_generator.__name__,
                "ceiling_normals_per_s": ceiling},
    }
