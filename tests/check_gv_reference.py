"""GV scores of the batched RANSAC against the per-iteration SVD reference
(`oracles.gv_score_svd`) on every top-100 pair of the frozen eval sets.

    PYTHONPATH=src:tests python tests/check_gv_reference.py 1 2 3

Prints one line per seed with the number of pairs and of differing scores,
and exits 1 if any score differs.  At 500 iterations, as the benchmark runs
GV, the reference takes about a minute per seed on one core.  Tier-1 runs
`check_seed` on the first two queries of seed 1 (200 pairs).
"""

from __future__ import annotations

import sys

from oracles import gv_score_svd
from rrt.baselines import GVConfig, gv_scores
from rrt.benchmark import RERANK_DEPTH, eval_synth_config
from rrt.data import normalize_records, synth_generate
from rrt.retrieval import build_index, rank_queries

ITERATIONS = 500


def frozen_top100(seed: int, max_queries: int | None = None) -> list:
    """(query, top-100 candidate records) of the first max_queries queries
    (all by default) of the seed's frozen eval set."""
    queries, gallery, _ = synth_generate(eval_synth_config(seed))
    queries = queries[:max_queries]
    queries, gallery = normalize_records(queries), normalize_records(gallery)
    by_id = {g.id: g for g in gallery}
    lists = rank_queries(build_index(gallery), queries, k=RERANK_DEPTH)
    return [(q, [by_id[g] for g in nl.gallery_ids()]) for q, nl in zip(queries, lists)]


def check_seed(seed: int, max_queries: int | None = None) -> tuple[int, int]:
    """(pairs, differing scores) over the top-100 of the first max_queries
    queries (all by default) of the seed's frozen eval set."""
    cfg = GVConfig(iterations=ITERATIONS, seed=seed)
    pairs = differing = 0
    for q, cands in frozen_top100(seed, max_queries):
        got = gv_scores(q, cands, cfg)
        want = [gv_score_svd(q, c, cfg) for c in cands]
        pairs += len(cands)
        differing += sum(a != b for a, b in zip(got, want))
    return pairs, differing


def main(argv: list[str]) -> int:
    bad = 0
    for seed in map(int, argv or ["1"]):
        pairs, differing = check_seed(seed)
        print(f"seed {seed}: {pairs} pairs, {differing} differing scores", flush=True)
        bad += differing
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
