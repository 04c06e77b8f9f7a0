"""BLAS thread pinning and the environment block written into every result.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS reads
its thread count once, when the library loads.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

# One BLAS thread: per-pair matmuls here are small or memory-bound, so a
# second thread buys little, and a single thread keeps timings steady.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS, capped at nproc; returns the pinned value."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy is imported")
    threads = min(BLAS_THREADS, nproc())
    for var in _BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def environment(blas_threads: int, **extra) -> dict:
    """Interpreter, numpy and BLAS build, thread settings, plus `extra`."""
    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]
    blas = {
        key: {k: build[key].get(k) for k in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
        if key in build
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas,
        "blas_threads": blas_threads,
        "nproc": nproc(),
        **extra,
    }
