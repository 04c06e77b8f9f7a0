"""Pairwise scorer factories for the rerank stage.

A scorer is a callable (query_id, candidate_ids) -> list of scores, closed
over the record sets; rerank_topk consumes them.  All scorers are
deterministic: the learned scorer batches candidates in forward passes, the
geometric one derives a per-pair RANSAC seed from (seed, query id, candidate
id), the oracle counts shared part-prototype assignments on synthetic data.
Building a scorer pins glibc's heap thresholds for the process
(`pin_heap`), so scoring keeps its peak heap.  The learned scorer splits a
query's candidates over the scoring pool (`score_batch`); the others score
them on the calling thread.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .baselines import GVConfig, gv_scores
from .data import ImageRecord, records_by_id
from .model import ModelConfig, ModelParams, check_records, pin_heap, score_batch

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
    pin_heap()

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
    """Inlier-count scorer: one `gv_scores` call per query over all its
    candidates, on the calling thread.  `threads` is ignored; it stays
    accepted because the benchmark's workloads still pass it."""
    qmap, gmap = records_by_id(queries), records_by_id(gallery)
    pin_heap()

    def scorer(query_id: int, candidate_ids: Sequence[int]) -> list[float]:
        return [float(s) for s in gv_scores(qmap[query_id], [gmap[g] for g in candidate_ids], gv_cfg)]

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
    pin_heap()

    def scorer(query_id: int, candidate_ids: Sequence[int]) -> list[float]:
        q_ids = q_parts[query_id]
        return [float(len(q_ids & g_parts[g])) for g in candidate_ids]

    return scorer
