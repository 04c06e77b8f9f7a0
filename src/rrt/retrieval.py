"""Exact global k-NN over unit-norm descriptors and top-K rerank plumbing.

Galleries at desk scale are small enough for exhaustive search, which keeps
reranker comparisons free of approximation noise.  All orderings use the
total order (score desc, prior rank asc, id asc) so results are reproducible
regardless of internal evaluation order.  Gallery and queries share one
embedding: raw globals, or the model's projected globals, and an index is
projected exactly when it is built with model params.

Alpha-QE re-ranks the whole gallery in the space of the index it is given,
which ``rrt rerank`` builds over raw globals.  The input neighbor list only
picks the expansion neighbors: their weights are cosines in that index, never
the list's own scores, so a projected or already-reranked list expands the
same way as the raw global list with the same leading ids.

Index wire format, extension ``.rrti``, read by ``rrt.wire.Reader`` (header
and error policy there):

    magic "RRTI" | u32 version=1 | u8 projected (0 or 1) | u32 n | u32 dim
    | n x u32 ids | n*dim x f32 row-major vectors

Neighbor lists serialize as JSON Lines, one object per line:

    {"query": <id>, "method": "<tag>", "truncated": <bool>,
     "neighbors": [[<id>, <score>], ...]}

A line without "truncated" reads as not truncated.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .baselines import alpha_qe_expand
from .data import U32_MAX, ImageRecord, l2_normalize, l2_normalize_rows
from .errors import DataFormatError
from .wire import Reader

__all__ = [
    "NeighborList",
    "build_index",
    "save_index",
    "load_index",
    "query_vector",
    "knn_search",
    "rank_queries",
    "rerank_topk",
    "aqe_requery",
    "aqe_then_rerank",
    "write_neighbors",
    "read_neighbors",
]

INDEX_MAGIC = b"RRTI"
INDEX_VERSION = 1

# scorer(query_id, candidate_ids) -> scores aligned with candidate_ids
Scorer = Callable[[int, Sequence[int]], Sequence[float]]


@dataclass
class GlobalIndex:
    ids: np.ndarray       # int64[n], unique
    vectors: np.ndarray   # float32[n, dim], rows unit-norm
    projected: bool = False

    def __post_init__(self):
        uniq, counts = np.unique(self.ids, return_counts=True)
        if uniq.size != len(self.ids):
            dup = int(uniq[np.argmax(counts > 1)])
            raise DataFormatError(f"record id {dup} appears more than once; index ids must be unique")


@dataclass
class NeighborList:
    query_id: int
    entries: list[tuple[int, float]]
    method: str = "global"
    truncated: bool = False  # set when k exceeded the gallery size

    def gallery_ids(self) -> list[int]:
        return [g for g, _ in self.entries]


def _embed(mat: np.ndarray, ids, params=None) -> np.ndarray:
    """Unit-norm float32 rows of the globals in mat: raw, or through the
    model's global projection when params are given."""
    mat = l2_normalize_rows(mat, ids)
    if params is not None:
        mat = l2_normalize_rows(mat @ params["global_proj.w"].data + params["global_proj.b"].data, ids)
    return mat.astype(np.float32)


def build_index(records: Sequence[ImageRecord], params=None) -> GlobalIndex:
    """Index over raw globals, or over the model's projected globals when
    params are given.  An empty record list raises DataFormatError."""
    if not records:
        raise DataFormatError("no records to index")
    ids = np.array([r.id for r in records], dtype=np.int64)
    vectors = _embed(np.stack([r.global_desc for r in records]), ids, params)
    return GlobalIndex(ids=ids, vectors=vectors, projected=params is not None)


def query_vector(index: GlobalIndex, record: ImageRecord, params=None) -> np.ndarray:
    """The record's global descriptor in the index's space, unit-norm; params
    are needed for a projected index and refused for a raw one.  One row per
    product: a row of a many-row product may differ in the last bit."""
    if index.projected != (params is not None):
        raise ValueError("a projected index, and only a projected one, embeds queries with model params")
    return _embed(record.global_desc[None], [record.id], params)[0]


def save_index(index: GlobalIndex, path) -> None:
    """Write the index; ids are stored as u32 and must fit."""
    bad = index.ids[(index.ids < 0) | (index.ids > U32_MAX)]
    if bad.size:
        raise DataFormatError(f"index id {int(bad[0])} does not fit the format's u32 ids")
    n, dim = index.vectors.shape
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<IBII", INDEX_VERSION, int(index.projected), n, dim))
        fh.write(index.ids.astype("<u4").tobytes())
        fh.write(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())


def load_index(path) -> GlobalIndex:
    """Read an index written by save_index.  A NaN or infinite vector entry
    is a value no index may hold: DataFormatError gives its flat entry in
    the vector table, at its offset."""
    cur = Reader(path, INDEX_MAGIC, INDEX_VERSION)
    projected, n, dim = cur.unpack("<BII")
    if projected > 1:
        raise DataFormatError(f"projected byte {projected} is neither 0 nor 1", offset=8)
    ids = cur.array("<u4", n).astype(np.int64)
    vecs = cur.floats(n * dim, "the vector table").reshape(n, dim)
    cur.end("the vectors")
    return GlobalIndex(ids=ids, vectors=vecs, projected=bool(projected))


def knn_search(index: GlobalIndex, query_vec: np.ndarray, k: int, query_id: int) -> NeighborList:
    """Top-k by inner product (cosine on unit vectors), score desc, ties by
    ascending id.  k beyond the gallery returns the full ranking flagged as
    truncated.  When the query itself sits in the gallery (same id), its row
    is excluded."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.vectors @ np.asarray(query_vec, dtype=np.float32)
    keep = index.ids != query_id
    ids, scores = index.ids[keep], scores[keep]
    order = np.lexsort((ids, -scores.astype(np.float64)))
    truncated = k > len(ids)
    order = order[: min(k, len(ids))]
    entries = [(int(ids[i]), float(scores[i])) for i in order]
    return NeighborList(query_id=int(query_id), entries=entries, method="global", truncated=truncated)


def rank_queries(
    index: GlobalIndex, queries: Sequence[ImageRecord], k: int, params=None
) -> list[NeighborList]:
    """knn_search of each query, embedded by query_vector, one at a time."""
    return [knn_search(index, query_vector(index, q, params), k=k, query_id=q.id) for q in queries]


def rerank_topk(
    neighbors: NeighborList, scorer: Scorer, k: int, method: str = "rrt"
) -> NeighborList:
    """Re-sort the first min(k, len) entries by scorer score (ties keep prior
    rank); entries beyond k keep membership, order and scores untouched."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m = min(k, len(neighbors.entries))
    prefix = neighbors.entries[:m]
    scores = list(scorer(neighbors.query_id, [g for g, _ in prefix])) if m else []
    order = sorted(range(m), key=lambda i: (-scores[i], i))
    new_prefix = [(prefix[i][0], float(scores[i])) for i in order]
    return replace(neighbors, entries=new_prefix + neighbors.entries[m:], method=method)


def aqe_requery(
    index: GlobalIndex,
    query_vec: np.ndarray,
    query_id: int,
    nqe: int,
    alpha: float,
    base: NeighborList | None = None,
) -> NeighborList:
    """Alpha-weighted query expansion: aggregate the top-nqe neighbors of the
    base ranking into the query, then re-rank the whole gallery with the
    expanded vector.  Without a base ranking, plain global search provides
    the top neighbors.  Weights are the neighbors' cosines to the query in
    the index, from the product knn_search runs; the base list supplies only
    the ids."""
    if base is None:
        base = knn_search(index, query_vec, k=len(index.ids), query_id=query_id)
    top = base.gallery_ids()[:nqe]
    if top:
        pos = {int(i): row for row, i in enumerate(index.ids)}
        rows = [pos[g] for g in top]
        sims = index.vectors @ np.asarray(query_vec, dtype=np.float32)
        expanded = alpha_qe_expand(query_vec, index.vectors[rows], sims[rows], alpha)
    else:
        expanded = l2_normalize(query_vec)
    out = knn_search(index, expanded, k=len(index.ids), query_id=query_id)
    out.method = "aqe"
    return out


def aqe_then_rerank(
    index: GlobalIndex,
    query_vec: np.ndarray,
    query_id: int,
    scorer: Scorer,
    nqe: int,
    alpha: float,
    k: int,
) -> NeighborList:
    """Full alpha-QE re-ranking of plain global search, followed by a
    learned rerank of its top-k."""
    return rerank_topk(aqe_requery(index, query_vec, query_id, nqe, alpha), scorer, k, method="aqe+rrt")


# -- JSONL serialization ----------------------------------------------------


def write_neighbors(path, lists: Sequence[NeighborList]) -> None:
    """One JSON object per query; a query id on a second list, which
    read_neighbors refuses, or a non-finite score, which JSON cannot hold,
    raises DataFormatError before anything is written."""
    lines, seen = [], set()
    for nl in lists:
        if nl.query_id in seen:
            raise DataFormatError(f"query {nl.query_id}: listed twice, and a neighbor file holds one list per query")
        seen.add(nl.query_id)
        obj = {
            "query": int(nl.query_id),
            "method": nl.method,
            "truncated": bool(nl.truncated),
            "neighbors": [[int(g), float(s)] for g, s in nl.entries],
        }
        try:
            lines.append(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")
        except ValueError as exc:
            raise DataFormatError(f"query {nl.query_id}: non-finite neighbor score ({exc})") from None
    with open(path, "w") as fh:
        fh.writelines(lines)


def _typed(value, types: tuple, rule: str):
    """value, when its exact JSON type is one of types (so a bool is no int)."""
    if type(value) not in types:
        raise TypeError(f"{rule}, got {value!r}")
    return value


def read_neighbors(path) -> list[NeighborList]:
    """Parse neighbor JSONL; a malformed line (one that is not UTF-8 or not
    a JSON object, an id that is not a JSON integer, neighbors that are not
    an array of [id, score] arrays, a score that is not a JSON number, a
    method that is not a JSON string or a "truncated" that is not a JSON
    boolean included), a query id on a second line, a gallery id listed
    twice for one query, a non-finite score (which Python's json accepts),
    an integer score too large for a float, or nesting too deep for the
    json parser raises DataFormatError naming the line."""
    out, query_lines = [], {}
    with open(path, "rb") as fh:  # each line decoded on its own, so a bad byte names its line
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _typed(json.loads(line.decode("utf-8")), (dict,), "a line must be a JSON object")
                nl = NeighborList(
                    query_id=_typed(obj["query"], (int,), "query id must be a JSON integer"),
                    entries=[
                        (_typed(g, (int,), "gallery id must be a JSON integer"),
                         float(_typed(s, (int, float), "score must be a JSON number")))
                        for g, s in (_typed(e, (list,), "a neighbor must be a JSON array [id, score]")
                                     for e in _typed(obj["neighbors"], (list,), "neighbors must be a JSON array"))
                    ],
                    method=_typed(obj.get("method", "global"), (str,), "method must be a JSON string"),
                    truncated=_typed(obj.get("truncated", False), (bool,), "truncated must be true or false"),
                )
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise DataFormatError(f"bad neighbor line {lineno}: {exc}") from exc
            if (first := query_lines.setdefault(nl.query_id, lineno)) != lineno:
                raise DataFormatError(f"bad neighbor line {lineno}: query id {nl.query_id} already on line {first}")
            seen = set()
            for g, s in nl.entries:
                if g in seen:
                    raise DataFormatError(f"bad neighbor line {lineno}: gallery id {g} listed twice")
                if not math.isfinite(s):
                    raise DataFormatError(f"bad neighbor line {lineno}: non-finite score for gallery id {g}")
                seen.add(g)
            out.append(nl)
    return out
