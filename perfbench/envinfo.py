"""The environment a measurement was taken in.

Printed with every run: a wall time is only comparable with another taken
at the same BLAS thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def live_blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unreadable."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "blas_threads_live": live_blas_threads(),
        "machine": platform.machine(),
    }
