"""Machine facts and the two hardware floors, measured when a run starts."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np

# Per-example conv GEMMs of the CNN workload: (c_out, c_in * 9, h * w).
CNN_GEMMS = ((32, 27, 1024), (32, 288, 1024), (64, 288, 256), (64, 576, 256))


def blas_info() -> dict:
    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it is not OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def rng_floor(trials: int = 5, size: int = 2_000_000) -> float:
    """f32 Philox standard_normal draws per second (median of trials)."""
    rng = np.random.Generator(np.random.Philox(12345))
    rates = []
    for _ in range(trials):
        begin = time.perf_counter()
        rng.standard_normal(size, dtype=np.float32)
        rates.append(size / (time.perf_counter() - begin))
    return statistics.median(rates)


def gemm_floor(trials: int = 5, loops: int = 10) -> float:
    """f32 GFLOP/s over the CNN's per-example conv GEMMs (median of trials)."""
    rng = np.random.default_rng(0)
    pairs = [(rng.standard_normal((m, k), dtype=np.float32), rng.standard_normal((k, n), dtype=np.float32))
             for m, k, n in CNN_GEMMS]
    flops = loops * sum(2 * m * k * n for m, k, n in CNN_GEMMS)
    rates = []
    for _ in range(trials + 1):
        begin = time.perf_counter()
        for _ in range(loops):
            for a, b in pairs:
                np.matmul(a, b)
        rates.append(flops / (time.perf_counter() - begin) / 1e9)
    return statistics.median(rates[1:])


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs: time the hypervisor ran something else."""
    with open("/proc/stat", encoding="utf-8") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total else 0.0


def facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "platform": platform.platform(),
        "rng_floor_draws_per_s": rng_floor(),
        "gemm_floor_gflop_per_s": gemm_floor(),
    }
