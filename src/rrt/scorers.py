"""Pairwise scorer factories for the rerank stage.

A scorer is a callable (query_id, candidate_ids) -> list of scores, closed
over the record sets; rerank_topk consumes them.  All scorers are
deterministic: the learned scorer batches candidates in forward passes, the
geometric one derives a per-pair RANSAC seed from (seed, query id, candidate
id), the oracle counts shared part-prototype assignments on synthetic data.
The learned and geometric scorers split a query's candidates into the fixed
chunks of `score_chunks` and score them with `map_in_order`, on up to
`score_workers()` threads; neither the partition nor the scores depend on
the worker count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .baselines import GVConfig, gv_scores
from .data import ImageRecord, records_by_id
from .model import (
    ModelConfig,
    ModelParams,
    check_records,
    map_in_order,
    score_batch,
    score_chunks,
)

__all__ = [
    "make_rrt_scorer",
    "make_gv_scorer",
    "make_oracle_scorer",
]


def make_rrt_scorer(
    params: ModelParams,
    cfg: ModelConfig,
    queries: Sequence[ImageRecord],
    gallery: Sequence[ImageRecord],
):
    """Pair-probability scorer over `score_batch`.  Every query and gallery
    record is checked against the model once, here (`check_records`), so a
    record the model cannot take fails when the scorer is built, whether or
    not it is ever retrieved."""
    qmap, gmap = records_by_id(queries), records_by_id(gallery)
    check_records(cfg, [*queries, *gallery])

    def scorer(query_id: int, candidate_ids: Sequence[int]) -> list[float]:
        q = qmap[query_id]
        return score_batch(params, cfg, q, [gmap[g] for g in candidate_ids])

    return scorer


def make_gv_scorer(
    queries: Sequence[ImageRecord],
    gallery: Sequence[ImageRecord],
    gv_cfg: GVConfig,
    threads: int = 1,
):
    """Inlier-count scorer over `gv_scores`: consecutive halves of a query's
    candidates (`score_chunks`) are verified on up to `score_workers()`
    threads.  `gv_scores` does not depend on how candidates fall into
    blocks, so the scores equal one `gv_scores` call over all of them.
    `threads` is ignored; it stays accepted because the benchmark's
    workloads still pass it."""
    qmap, gmap = records_by_id(queries), records_by_id(gallery)

    def scorer(query_id: int, candidate_ids: Sequence[int]) -> list[float]:
        q = qmap[query_id]
        cands = [gmap[g] for g in candidate_ids]
        parts = map_in_order(
            lambda chunk: gv_scores(q, cands[chunk], gv_cfg), score_chunks(len(cands))
        )
        return [float(s) for part in parts for s in part]

    return scorer


ORACLE_MIN_COSINE = 0.7  # a local less similar than this to every part is a distractor


def oracle_part_ids(record: ImageRecord, part_bank: np.ndarray) -> frozenset[int]:
    """Nearest-prototype assignment of a record's locals over the generator's
    part bank [n_instances, parts_per_instance, d_l]; locals whose best cosine
    falls below ORACLE_MIN_COSINE (distractors) are dropped."""
    if not len(record.vecs):
        return frozenset()
    flat = part_bank.reshape(-1, part_bank.shape[-1]).astype(np.float32)
    sims = record.vecs @ flat.T
    best = sims.argmax(axis=1)
    keep = sims[np.arange(len(best)), best] >= ORACLE_MIN_COSINE
    return frozenset(int(b) for b in best[keep])


def make_oracle_scorer(
    part_bank: np.ndarray,
    queries: Sequence[ImageRecord],
    gallery: Sequence[ImageRecord],
):
    """Shared-part-count scorer: the planted upper bound for reranking on
    synthetic data.  Every query's and gallery record's part set is found
    once, here."""
    q_parts, g_parts = (
        {i: oracle_part_ids(r, part_bank) for i, r in records_by_id(side).items()}
        for side in (queries, gallery)
    )

    def scorer(query_id: int, candidate_ids: Sequence[int]) -> list[float]:
        q_ids = q_parts[query_id]
        return [float(len(q_ids & g_parts[g])) for g in candidate_ids]

    return scorer
