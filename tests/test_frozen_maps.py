"""The frozen mAPs: each frozen eval set of rrt.benchmark, rebuilt and ranked
as run_benchmark ranks it, gets exactly the map and map@100 recorded in
perfbench/data/frozen_reference.json.  That is global, oracle and aqe on
every recorded seed, and rrt and aqe+rrt on the checkpoint's seed with the
committed checkpoint.  The test only reads those files.  GV is left to
tests/check_gv_reference.py, which takes about a minute per seed."""

import hashlib
import json
from pathlib import Path

import pytest

from rrt.benchmark import AQE_ALPHA, AQE_NQE, RERANK_DEPTH, eval_synth_config
from rrt.data import normalize_records, part_prototypes, synth_generate
from rrt.metrics import build_ground_truth, evaluate_neighbors
from rrt.model import load_checkpoint
from rrt.retrieval import aqe_requery, aqe_then_rerank, build_index, knn_search, query_vector, rerank_topk
from rrt.scorers import make_oracle_scorer, make_rrt_scorer

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
FROZEN = json.loads((DATA / "frozen_reference.json").read_text())
CHECKPOINT = FROZEN["checkpoint"]


def test_checkpoint_is_the_recorded_one():
    assert hashlib.sha256((DATA / CHECKPOINT["file"]).read_bytes()).hexdigest() == CHECKPOINT["sha256"]


@pytest.mark.parametrize("seed", sorted(FROZEN["run_benchmark"], key=int))
def test_maps_equal_the_recorded_ones(seed):
    eval_cfg = eval_synth_config(int(seed))
    queries, gallery, _ = synth_generate(eval_cfg)
    queries, gallery = normalize_records(queries), normalize_records(gallery)
    index = build_index(gallery)
    global_lists = [
        knn_search(index, query_vector(index, q), k=len(gallery), query_id=q.id) for q in queries
    ]
    oracle = make_oracle_scorer(part_prototypes(eval_cfg), queries, gallery)
    lists = {
        "global": global_lists,
        "oracle": [rerank_topk(nl, oracle, RERANK_DEPTH, method="oracle") for nl in global_lists],
        "aqe": [aqe_requery(index, query_vector(index, q), q.id, AQE_NQE, AQE_ALPHA) for q in queries],
    }
    if int(seed) == CHECKPOINT["seed"]:
        params, model_cfg = load_checkpoint(DATA / CHECKPOINT["file"])
        rrt = make_rrt_scorer(params, model_cfg, queries, gallery)
        lists["rrt"] = [rerank_topk(nl, rrt, RERANK_DEPTH, method="rrt") for nl in global_lists]
        lists["aqe+rrt"] = [
            aqe_then_rerank(index, query_vector(index, q), q.id, rrt, AQE_NQE, AQE_ALPHA, RERANK_DEPTH)
            for q in queries
        ]
    gt = build_ground_truth(queries, gallery)
    want = FROZEN["run_benchmark"][seed]["maps"]
    for name, ranked in lists.items():
        rep = evaluate_neighbors(ranked, gt, map_ks=(100,), method=name)
        assert {"map": rep.map, "map@100": rep.map_at[100]} == want[name], name
