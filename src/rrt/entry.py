"""The ``rrt`` console command: ``rrt.cli.main`` with one BLAS thread.

``score_batch`` runs its chunks on ``score_workers()`` threads and assumes
that each runs BLAS on one thread, as the benchmark measures it; with
OpenBLAS's default of one thread per CPU, each worker would run several.
OpenBLAS reads its thread count once, when numpy loads it, so ``main`` sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before it
imports ``rrt.cli``, which imports numpy.  A user who sets any of the three
keeps their own setting.  This module imports nothing but the standard
library; ``import rrt`` and ``rrt.cli.main`` called in process leave the
environment as it is.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    from rrt.cli import main as cli_main

    return cli_main()
