"""Read-only description of the machine and interpreter a result came from."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# BLAS thread-count getters of the OpenBLAS builds numpy ships or links.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count of the BLAS loaded into this process, None if unknown."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in _BLAS_GETTERS:
            if hasattr(lib, getter):
                return int(getattr(lib, getter)())
    return None


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes of cpu0 in bytes, keyed L1d, L2, L3."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind == "Instruction":
            continue
        level = (index / "level").read_text().strip()
        sizes[f"L{level}" + ("d" if kind == "Data" else "")] = _size_bytes(
            (index / "size").read_text()
        )
    return sizes


def cpu_model() -> str:
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def describe(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }
