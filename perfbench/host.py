"""Host description stamped into every result, and the BLAS thread pin."""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Dict, Optional

# Set in the benchmark's own environment before numpy loads, and passed to
# every program process it starts, so no run depends on the host's default
# BLAS pool size.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Write :data:`BLAS_ENV` into ``env`` (default ``os.environ``) and return it."""
    target = os.environ if env is None else env
    target.update(BLAS_ENV)
    return target


def _loaded_openblas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_block() -> Dict:
    """nproc, load at start, BLAS vendor and threads, interpreter and library versions."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _loaded_openblas_threads(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
