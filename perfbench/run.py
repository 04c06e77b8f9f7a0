"""Benchmark of the rrt package: train, rerank and paper-rerank workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rerank --seed 1 --seconds 5 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  Standard output ends with three JSON lines:

1. ``{"environment": ...}``: Python, numpy and BLAS build, pinned BLAS
   threads, nproc, GV threads, checkpoint digest, workload and seed;
2. ``{"report": ...}``: every named metric of the workload with its unit
   (for example ``rrt_query_ms_p90``), ops attempted and failed, and the
   outcome of each output check;
3. the result: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
   ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
   ``--trace 1`` the per-layer ones.

Without ``src/rrt`` the program exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from envinfo import environment, pin_blas_threads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "rerank", "paper-rerank"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    if not (SRC / "rrt" / "__init__.py").is_file():
        print(f"rrt package not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    result, report = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(
        blas_threads,
        gv_threads=workloads.GV_THREADS,
        checkpoint_sha256=workloads.checkpoint_digest(),
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
