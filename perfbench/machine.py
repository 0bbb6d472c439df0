"""The machine record printed with every run."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads")


def _blas_build() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown", "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.split()[-1].lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def record(nproc: int) -> dict:
    name, version = _blas_build()
    return {
        "nproc": nproc,
        "blas": name,
        "blas_version": version,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
