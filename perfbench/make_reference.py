"""Record the benchmark's reference data from the current package.

    python3 perfbench/make_reference.py --frozen-seeds 1 2 3 --paper

``--frozen-seeds`` runs ``run_benchmark(seed, include_gv=True,
gv_iterations=500)`` for each seed and records its mAPs and gates in
``data/frozen_reference.json``; for seed 1 it also keeps the trained model as
``data/rrt_frozen_seed1.rrtm`` with its provenance (config digest, seed,
final loss).  ``--paper`` records the paper-rerank scores of every pool
query in ``data/paper_reference.json``.  Scratch output goes to
``.bench_build/reference`` under the repository root.

Re-record only on purpose: the rerank and paper-rerank workloads check every
run against these files.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

from envinfo import environment, file_sha256, pin_blas_threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "reference"


def _update(path: Path, mutate) -> None:
    doc = json.loads(path.read_text()) if path.is_file() else {}
    mutate(doc)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def record_frozen(seed: int, blas_threads: int) -> None:
    import workloads as w
    from rrt.benchmark import (
        benchmark_model_config,
        benchmark_train_config,
        run_benchmark,
        train_synth_config,
    )
    from rrt.metrics import config_digest

    out_dir = WORK / f"seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    res = run_benchmark(seed, include_gv=True, gv_iterations=w.GV_ITERATIONS, out_dir=out_dir)
    maps = {
        name: {"map": rep.map, "map@100": rep.map_at[100]}
        for name, rep in res["reports"].items()
    }
    g, o, r = (maps[k]["map"] for k in ("global", "oracle", "rrt"))
    gates = {
        "global_max": g <= w.GATE_GLOBAL_MAX,
        "oracle_min": o >= w.GATE_ORACLE_MIN,
        "rrt_margin": r >= g + w.GATE_RRT_MARGIN,
    }
    with open(out_dir / "loss_history.csv") as fh:
        rows = list(csv.DictReader(fh))
    entry = {
        "maps": maps,
        "gates": gates,
        "final_loss": float(rows[-1]["loss"]),
        "steps": len(rows),
    }

    def mutate(doc):
        doc.setdefault("run_benchmark", {})[str(seed)] = entry
        doc["environment"] = environment(blas_threads)
        if seed == 1:
            shutil.copyfile(out_dir / "model.rrtm", w.CHECKPOINT)
            doc["checkpoint"] = {
                "file": w.CHECKPOINT.name,
                "sha256": file_sha256(w.CHECKPOINT),
                "seed": seed,
                "final_loss": entry["final_loss"],
                "steps": entry["steps"],
                "config_digest": config_digest(
                    {
                        "model": asdict(benchmark_model_config()),
                        "train": asdict(benchmark_train_config(seed)),
                        "train_data": asdict(train_synth_config(seed)),
                    }
                ),
                "made_by": "run_benchmark(1, include_gv=True, gv_iterations=500, out_dir=...)",
            }

    _update(w.FROZEN_REFERENCE, mutate)
    print(json.dumps({"seed": seed, **entry}), flush=True)


def record_paper(blas_threads: int) -> None:
    import workloads as w
    from rrt import retrieval, scorers

    queries, gallery, params, index = w.paper_inputs(w.FULL)
    scorer = scorers.make_rrt_scorer(params, w.FULL.paper_model, queries, gallery)
    scores = {}
    for query in queries[: w.PAPER_POOL]:
        nl = w.paper_neighbors(index, query, len(gallery))
        reranked = retrieval.rerank_topk(nl, scorer, w.RERANK_DEPTH, method="rrt")
        scores[str(query.id)] = {str(g): s for g, s in reranked.entries[: w.RERANK_DEPTH]}
        print(f"paper query {query.id}: {len(scores[str(query.id)])} scores", flush=True)
    doc = {
        "inputs": w.paper_inputs_key(w.FULL),
        "scores": scores,
        "environment": environment(blas_threads),
    }
    w.PAPER_REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Record the benchmark's reference data.")
    p.add_argument("--frozen-seeds", type=int, nargs="*", default=[])
    p.add_argument("--paper", action="store_true")
    args = p.parse_args(argv)
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    for seed in args.frozen_seeds:
        record_frozen(seed, blas_threads)
    if args.paper:
        record_paper(blas_threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
