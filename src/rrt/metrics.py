"""Retrieval metrics (AP, mAP, mAP@K, R@K), report emission, and the
locals-count ablation harness.

AP is precision-at-hit averaged over the relevant set; relevant items missing
from a ranking contribute zero.  mAP@K truncates at K and normalizes by
min(|relevant|, K).  Queries with no relevant gallery item are excluded from
aggregates (and counted), never scored as zero.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import ImageRecord, grid_dedup_count
from .errors import ConfigError
from .retrieval import NeighborList, build_index, knn_search, query_vector, rerank_topk

__all__ = [
    "build_ground_truth",
    "evaluate_neighbors",
    "emit_report",
    "config_digest",
    "ablation_locals_sweep",
]


def build_ground_truth(
    queries: Sequence[ImageRecord], gallery: Sequence[ImageRecord]
) -> dict[int, set[int]]:
    """query id -> set of same-label gallery ids (the query itself excluded)."""
    by_label: dict[int, set[int]] = {}
    for r in gallery:
        by_label.setdefault(r.label, set()).add(r.id)
    return {
        q.id: by_label.get(q.label, set()) - {q.id} for q in queries
    }


def average_precision(ranked_ids: Sequence[int], relevant: set[int]) -> float:
    """Mean of precision@k over the hit positions, normalized by |relevant|."""
    if not relevant:
        raise ValueError("average_precision needs a non-empty relevant set")
    hits = 0
    total = 0.0
    for k, gid in enumerate(ranked_ids, start=1):
        if gid in relevant:
            hits += 1
            total += hits / k
    return total / len(relevant)


def ap_at_k(ranked_ids: Sequence[int], relevant: set[int], k: int) -> float:
    """AP on the list truncated to k, normalized by min(|relevant|, k)."""
    if not relevant:
        raise ValueError("ap_at_k needs a non-empty relevant set")
    hits = 0
    total = 0.0
    for rank, gid in enumerate(ranked_ids[:k], start=1):
        if gid in relevant:
            hits += 1
            total += hits / rank
    return total / min(len(relevant), k)


def first_relevant_rank(ranked_ids: Sequence[int], relevant: set[int]) -> int | None:
    for rank, gid in enumerate(ranked_ids, start=1):
        if gid in relevant:
            return rank
    return None


def map_at_k(
    lists: Sequence[NeighborList], ground_truth: Mapping[int, set[int]], k: int
) -> float:
    vals = [
        ap_at_k(nl.gallery_ids(), ground_truth[nl.query_id], k)
        for nl in lists
        if ground_truth.get(nl.query_id)
    ]
    if not vals:
        raise ValueError("no query with a non-empty relevant set")
    return float(np.mean(vals))


def recall_at_k(
    lists: Sequence[NeighborList],
    ground_truth: Mapping[int, set[int]],
    ks: Sequence[int],
) -> dict[int, float]:
    """R@K: fraction of queries with at least one relevant item in the top K."""
    out = {}
    scored = [nl for nl in lists if ground_truth.get(nl.query_id)]
    if not scored:
        raise ValueError("no query with a non-empty relevant set")
    for k in ks:
        hit = sum(
            1
            for nl in scored
            if any(g in ground_truth[nl.query_id] for g in nl.gallery_ids()[:k])
        )
        out[int(k)] = hit / len(scored)
    return out


@dataclass
class EvalReport:
    method: str
    config_digest: str
    map: float
    map_at: dict[int, float]
    recall_at: dict[int, float]
    per_query: list[dict]  # {"id", "ap", "first_rank"}
    excluded_queries: int
    wallclock_s: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "config_digest": self.config_digest,
            "map": self.map,
            "map_at": {str(k): v for k, v in self.map_at.items()},
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "per_query": self.per_query,
            "excluded_queries": self.excluded_queries,
            "wallclock_s": self.wallclock_s,
        }


def evaluate_neighbors(
    lists: Sequence[NeighborList],
    ground_truth: Mapping[int, set[int]],
    map_ks: Sequence[int] = (100,),
    recall_ks: Sequence[int] = (1, 10, 100),
    method: str = "",
    digest: str = "",
    wallclock_s: float = 0.0,
) -> EvalReport:
    per_query = []
    excluded = 0
    aps = []
    for nl in lists:
        rel = ground_truth.get(nl.query_id, set())
        if not rel:
            excluded += 1
            continue
        ranked = nl.gallery_ids()
        ap = average_precision(ranked, rel)
        aps.append(ap)
        per_query.append(
            {"id": nl.query_id, "ap": ap, "first_rank": first_relevant_rank(ranked, rel)}
        )
    if not aps:
        raise ValueError("no query with a non-empty relevant set")
    return EvalReport(
        method=method or (lists[0].method if lists else ""),
        config_digest=digest,
        map=float(np.mean(aps)),
        map_at={int(k): map_at_k(lists, ground_truth, k) for k in map_ks},
        recall_at=recall_at_k(lists, ground_truth, recall_ks),
        per_query=per_query,
        excluded_queries=excluded,
        wallclock_s=wallclock_s,
    )


def emit_report(report: EvalReport, path, fmt: str = "json") -> None:
    """Write the report; JSON round-trips losslessly, CSV is one row per
    query (columns: query_id, ap, first_rank) plus one aggregate footer row
    (query_id='aggregate', ap=mAP, first_rank empty)."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["query_id", "ap", "first_rank"])
            for row in report.per_query:
                fr = row["first_rank"]
                w.writerow([row["id"], repr(row["ap"]), "" if fr is None else fr])
            w.writerow(["aggregate", repr(report.map), ""])
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def config_digest(config: Mapping) -> str:
    """SHA-256 over the canonical JSON form of the effective configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def ablation_locals_sweep(
    queries: Sequence[ImageRecord],
    gallery: Sequence[ImageRecord],
    make_scorer,
    counts: Sequence[int],
    k: int,
    stride: int = 16,
) -> list[dict]:
    """mAP as a function of the per-image local-descriptor budget.

    For each count c, every image keeps only its first c locals; the global
    retrieval stage is unaffected (globals do not change), the scorer returned
    by make_scorer(truncated queries, truncated gallery) reranks the top k.
    Each row also carries mean locals kept and mean distinct stride-grid cells
    as duplicate-location statistics.  A negative count or a stride below 1
    raises ConfigError before anything is scored.
    """
    if stride <= 0 or min(counts, default=0) < 0:
        raise ConfigError(f"want counts >= 0 and stride > 0, got counts {list(counts)}, stride {stride}")

    gt = build_ground_truth(queries, gallery)
    index = build_index(gallery)
    base_lists = [
        knn_search(index, query_vector(index, q), k=len(gallery), query_id=q.id)
        for q in queries
    ]

    rows = []
    for c in counts:
        tq = [r.truncated(c) for r in queries]
        tg = [r.truncated(c) for r in gallery]
        scorer = make_scorer(tq, tg)
        reranked = [rerank_topk(nl, scorer, k, method="rrt") for nl in base_lists]
        aps = [
            average_precision(nl.gallery_ids(), gt[nl.query_id])
            for nl in reranked
            if gt.get(nl.query_id)
        ]
        everything = tq + tg
        rows.append(
            {
                "count": int(c),
                "map": float(np.mean(aps)),
                "mean_locals": float(np.mean([len(r.vecs) for r in everything])),
                "mean_distinct_cells": float(
                    np.mean([grid_dedup_count(r, stride) for r in everything])
                ),
            }
        )
    return rows
