"""Retrieval metrics (AP, mAP, mAP@K, R@K), report emission, and the
locals-count ablation harness.

``evaluate_neighbors`` walks each ranking once, into its hits: the 1-based
ranks at which it lists a relevant id.  Every metric comes from those ranks.
AP is precision-at-hit summed over the hits and divided by |relevant|, so
relevant items missing from a ranking contribute zero; AP@K takes the hits at
ranks <= K and divides by min(|relevant|, K); the first rank is the first hit,
and R@K is the fraction of queries whose first hit is at rank <= K.  Queries
with no relevant gallery item are excluded from aggregates (and counted),
never scored as zero.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import ImageRecord, grid_dedup_count
from .errors import ConfigError, DataFormatError
from .retrieval import NeighborList, build_index, rank_queries, rerank_topk

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


def _precision_at_hits(hits: Sequence[int], denom: int) -> float:
    """Sum of n / rank over the n-th hit at 1-based rank, divided by denom.
    A left-to-right loop: the built-in ``sum`` of floats is compensated from
    Python 3.12 on and would change the bits."""
    total = 0.0
    for n, rank in enumerate(hits, start=1):
        total += n / rank
    return total / denom


@dataclass
class EvalReport:
    method: str
    config_digest: str
    map: float
    map_at: dict[int, float]
    recall_at: dict[int, float]
    per_query: list[dict]  # {"id", "ap", "first_rank"}
    excluded_queries: int
    wallclock_s: float  # 0.0 from evaluate_neighbors; `rrt eval` sets its own run time

    def to_dict(self) -> dict:
        """Every field, with the cutoffs of map_at and recall_at as strings,
        the keys JSON gives them."""
        return {**asdict(self), "map_at": {str(k): v for k, v in self.map_at.items()},
                "recall_at": {str(k): v for k, v in self.recall_at.items()}}


def evaluate_neighbors(
    lists: Sequence[NeighborList],
    ground_truth: Mapping[int, set[int]],
    map_ks: Sequence[int] = (100,),
    recall_ks: Sequence[int] = (1, 10, 100),
    method: str = "",
    digest: str = "",
) -> EvalReport:
    scored = []  # (query id, hit ranks, |relevant|) of each query with a relevant item
    for nl in lists:
        rel = ground_truth.get(nl.query_id)
        if rel:
            hits = [rank for rank, gid in enumerate(nl.gallery_ids(), start=1) if gid in rel]
            scored.append((nl.query_id, hits, len(rel)))
    if not scored:
        raise ValueError("no query with a non-empty relevant set")
    per_query = [
        {"id": qid, "ap": _precision_at_hits(hits, n), "first_rank": hits[0] if hits else None}
        for qid, hits, n in scored
    ]
    first_ranks = [hits[0] if hits else math.inf for _, hits, _ in scored]
    return EvalReport(
        method=method or (lists[0].method if lists else ""),
        config_digest=digest,
        map=float(np.mean([q["ap"] for q in per_query])),
        map_at={
            int(k): float(np.mean([
                _precision_at_hits([r for r in hits if r <= k], min(n, k)) for _, hits, n in scored
            ]))
            for k in map_ks
        },
        recall_at={int(k): sum(r <= k for r in first_ranks) / len(scored) for k in recall_ks},
        per_query=per_query,
        excluded_queries=len(lists) - len(scored),
        wallclock_s=0.0,
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
    raises ConfigError, and queries without a relevant gallery item raise
    DataFormatError, before anything is scored.
    """
    if stride <= 0 or min(counts, default=0) < 0:
        raise ConfigError(f"want counts >= 0 and stride > 0, got counts {list(counts)}, stride {stride}")

    gt = build_ground_truth(queries, gallery)
    if not any(gt.values()):
        raise DataFormatError("no query has a relevant gallery item")
    base_lists = rank_queries(build_index(gallery), queries, k=len(gallery))

    rows = []
    for c in counts:
        tq = [r.truncated(c) for r in queries]
        tg = [r.truncated(c) for r in gallery]
        scorer = make_scorer(tq, tg)
        reranked = [rerank_topk(nl, scorer, k, method="rrt") for nl in base_lists]
        everything = tq + tg
        rows.append(
            {
                "count": int(c),
                "map": evaluate_neighbors(reranked, gt).map,
                "mean_locals": float(np.mean([len(r.vecs) for r in everything])),
                "mean_distinct_cells": float(
                    np.mean([grid_dedup_count(r, stride) for r in everything])
                ),
            }
        )
    return rows
