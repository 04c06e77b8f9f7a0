"""Classic reranking baselines: alpha-weighted query expansion and geometric
verification (mutual nearest-neighbor matching plus RANSAC homography, scored
by inlier count).

The RANSAC is hypothesize-and-verify with a symmetric-transfer inlier test.
All sample quadruples are drawn up front from the pair's seeded generator, so
the result is a pure function of (matches, config, seed).

- One hypothesis per distinct set.  Draws that pick the same 4 matches, in
  any order, give one hypothesis, fitted on the ordering of the set's first
  draw.  A set's first draw is the earliest iteration that could win with
  its count, so ties still resolve to the earliest iteration.  With n
  matches there are at most C(n, 4) sets (70 at n = 8), however many
  iterations are drawn.
- Closed-form fit.  On Hartley-normalized points, with M = [p1 p2 p3] the
  homogeneous points as columns and lambda = adj(M) p4, the homography is
  H ~ M_b diag(lambda_b / lambda_a) adj(M_a) (Hartley & Zisserman's
  projective-basis construction).  It is defined exactly when det(M) != 0
  and every lambda_i != 0, i.e. when every triple of the 4 points spans a
  triangle, which the collinearity test already requires.  Scaled to unit
  Frobenius norm it is the normalized-DLT null vector up to rounding.
- The winner's consensus set is refit by least-squares DLT (SVD).

`gv_scores` verifies a query against many candidates in blocks.  Per block,
every set of every pair is fitted in one vectorized step and scored against
its own pair's matches, padded to the block's widest pair and masked, in one
pass.  GV_BLOCK_BUDGET bounds hypotheses x padded matches per block, which
bounds its memory; a pair above the bound on its own forms a block alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .data import ImageRecord, l2_normalize

__all__ = [
    "Match",
    "GVConfig",
    "aqe_weights",
    "alpha_qe_expand",
    "mutual_nn_matches",
    "ransac_homography",
    "gv_scores",
]

_COLLINEAR_EPS = 1e-6   # triangle area floor on Hartley-normalized coords
_W_EPS = 1e-12          # homogeneous scale floor when projecting
GV_BLOCK_BUDGET = 1 << 14  # hypotheses x padded matches per block


@dataclass(frozen=True)
class Match:
    a_index: int
    b_index: int
    distance: float


@dataclass(frozen=True)
class GVConfig:
    iterations: int = 2000
    inlier_threshold: float = 3.0  # pixels, symmetric transfer
    ratio: Optional[float] = None  # Lowe ratio test, off by default
    seed: int = 0


def aqe_weights(sims: np.ndarray, alpha: float) -> np.ndarray:
    """Neighbor weights max(sim, 0)^alpha; the clamp keeps the exponent real
    on negative cosines (and 0^0 evaluates to 1, so alpha=0 is uniform)."""
    return np.power(np.maximum(np.asarray(sims, dtype=np.float64), 0.0), alpha)


def alpha_qe_expand(
    query_vec: np.ndarray,
    neighbor_vecs: np.ndarray,
    sims: np.ndarray,
    nqe: int,
    alpha: float,
) -> np.ndarray:
    """Expanded query: normalize(q + sum_i max(sim_i, 0)^alpha * d_i) over the
    top-nqe neighbors.  The query itself participates with weight 1; nqe=0
    returns the normalized query unchanged."""
    q = np.asarray(query_vec, dtype=np.float64)
    if nqe == 0:
        return l2_normalize(q).astype(np.float32)
    vecs = np.asarray(neighbor_vecs, dtype=np.float64)[:nqe]
    weights = aqe_weights(np.asarray(sims)[:nqe], alpha)
    expanded = q + weights @ vecs
    return l2_normalize(expanded).astype(np.float32)


def mutual_nn_matches(
    locals_a: np.ndarray, locals_b: np.ndarray, ratio: Optional[float] = None
) -> list[Match]:
    """Pairs (i, j) where j is i's Euclidean nearest neighbor in B and i is
    j's nearest in A.  With a ratio r, both directions must also pass
    d1 <= r * d2 against their second-nearest, keeping the match set
    symmetric.  Returned sorted by the A index."""
    a = np.asarray(locals_a, dtype=np.float64)
    b = np.asarray(locals_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("mutual_nn_matches needs non-empty descriptor sets")
    d2 = (
        (a * a).sum(1, keepdims=True)
        + (b * b).sum(1, keepdims=True).T
        - 2.0 * (a @ b.T)
    )
    dist = np.sqrt(np.maximum(d2, 0.0))
    nn_b = dist.argmin(axis=1)  # for each i, best j
    nn_a = dist.argmin(axis=0)  # for each j, best i

    ok_a = np.ones(len(a), dtype=bool)
    ok_b = np.ones(len(b), dtype=bool)
    if ratio is not None:
        if dist.shape[1] > 1:
            two = np.partition(dist, 1, axis=1)[:, :2]
            ok_a = two[:, 0] <= ratio * two[:, 1]
        if dist.shape[0] > 1:
            two = np.partition(dist, 1, axis=0)[:2, :]
            ok_b = two[0, :] <= ratio * two[1, :]

    out = []
    for i in range(len(a)):
        j = int(nn_b[i])
        if int(nn_a[j]) == i and ok_a[i] and ok_b[j]:
            out.append(Match(i, j, float(dist[i, j])))
    return out


def _similarity_T(pts: np.ndarray):
    """Hartley normalization per hypothesis: [it,4,2] -> (T, T_inv, normalized
    pts, validity).  T maps raw coords to centered coords with mean distance
    sqrt(2)."""
    it = pts.shape[0]
    c = pts.mean(axis=1, keepdims=True)
    d = np.linalg.norm(pts - c, axis=2).mean(axis=1)
    valid = d > 1e-9
    s = np.sqrt(2.0) / np.maximum(d, 1e-12)
    T = np.zeros((it, 3, 3))
    T[:, 0, 0] = s
    T[:, 1, 1] = s
    T[:, 0, 2] = -s * c[:, 0, 0]
    T[:, 1, 2] = -s * c[:, 0, 1]
    T[:, 2, 2] = 1.0
    Tinv = np.zeros((it, 3, 3))
    Tinv[:, 0, 0] = 1.0 / s
    Tinv[:, 1, 1] = 1.0 / s
    Tinv[:, 0, 2] = c[:, 0, 0]
    Tinv[:, 1, 2] = c[:, 0, 1]
    Tinv[:, 2, 2] = 1.0
    pn = (pts - c) * s[:, None, None]
    return T, Tinv, pn, valid


def _dlt_batch(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Direct linear transform on normalized correspondences.

    pa, pb: [it, m, 2] -> H_n [it, 3, 3] (smallest right singular vector)."""
    it, m, _ = pa.shape
    x, y = pa[..., 0], pa[..., 1]
    u, v = pb[..., 0], pb[..., 1]
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    r1 = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=-1)
    r2 = np.stack([zero, zero, zero, -x, -y, -one, v * x, v * y, v], axis=-1)
    A = np.concatenate([r1, r2], axis=1)  # [it, 2m, 9]
    _, _, vt = np.linalg.svd(A)
    return vt[..., -1, :].reshape(it, 3, 3)


def _projective_basis(pts: np.ndarray):
    """[U,4,2] -> (M, adj(M), lambda): M = [p1 p2 p3] with the homogeneous
    points as columns, its adjugate from cross products of the columns, and
    lambda = adj(M) p4, so that p4 ~ M lambda."""
    h = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2)  # [U,4,3]
    adj = np.stack(
        [np.cross(h[:, 1], h[:, 2]), np.cross(h[:, 2], h[:, 0]), np.cross(h[:, 0], h[:, 1])],
        axis=1,
    )
    lam = (adj @ h[:, 3, :, None])[..., 0]
    return h[:, :3].transpose(0, 2, 1), adj, lam


def _four_point_homography(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Exact homographies through 4 correspondences, [U,4,2] x2 -> [U,3,3]
    with unit Frobenius norm.  Every row needs 4 points of which no 3 are
    collinear on either side."""
    _, adj_a, la = _projective_basis(pa)
    mb, _, lb = _projective_basis(pb)
    # diag(lambda_b / lambda_a) times lambda_a1 * lambda_a2 * lambda_a3
    w = lb * la[:, [1, 2, 0]] * la[:, [2, 0, 1]]
    H = (mb * w[:, None, :]) @ adj_a
    return H / np.linalg.norm(H, axis=(1, 2), keepdims=True)


def _noncollinear(pts: np.ndarray) -> np.ndarray:
    """[it,4,2] -> bool[it]: every triple spans a triangle of nonzero area."""
    idx = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ok = np.ones(pts.shape[0], dtype=bool)
    for i, j, k in idx:
        e1 = pts[:, j] - pts[:, i]
        e2 = pts[:, k] - pts[:, i]
        area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        ok &= area > _COLLINEAR_EPS
    return ok


def _project(H: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply homographies [U,3,3] to points [U,n,2] (or [1,n,2], shared)
    -> ([U,n,2], valid)."""
    ph = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2)
    q = ph @ H.transpose(0, 2, 1)
    w = q[..., 2]
    good = np.abs(w) > _W_EPS
    w = np.where(good, w, 1.0)
    return q[..., :2] / w[..., None], good


def _symmetric_errors(H: np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """sqrt(forward^2 + backward^2) transfer error of H [U,3,3] on points
    [U,n,2] (or [1,n,2], shared), [U, n]; inf where the homography is not
    invertible or the projection degenerates."""
    det = np.linalg.det(H)
    invertible = np.abs(det) > 1e-12
    Hsafe = np.where(invertible[:, None, None], H, np.eye(3))
    Hinv = np.linalg.inv(Hsafe)

    fwd, ok_f = _project(H, pts_a)
    bwd, ok_b = _project(Hinv, pts_b)
    e = np.sqrt(((fwd - pts_b) ** 2).sum(-1) + ((bwd - pts_a) ** 2).sum(-1))
    e = np.where(ok_f & ok_b & invertible[:, None], e, np.inf)
    return e


def _refit(best_H, best_mask, pts_a, pts_b, inlier_threshold):
    """Least-squares DLT refit on the winning consensus set; the winning
    hypothesis stands when the refit degenerates or keeps fewer than 4."""
    Ta1, _, pa1, va1 = _similarity_T(pts_a[best_mask][None])
    _, Tb1_inv, pb1, vb1 = _similarity_T(pts_b[best_mask][None])
    if va1[0] and vb1[0]:
        Hr = (Tb1_inv @ _dlt_batch(pa1, pb1) @ Ta1)[0]
        if np.isfinite(Hr).all() and abs(Hr[2, 2]) > _W_EPS:
            err = _symmetric_errors(Hr[None], pts_a[None], pts_b[None])[0]
            mask = err < inlier_threshold
            if mask.sum() >= 4:
                return Hr / Hr[2, 2], int(mask.sum()), mask
    return best_H / best_H[2, 2], int(best_mask.sum()), best_mask


def _first_draws(draws: np.ndarray) -> np.ndarray:
    """Indices of the draws [k, 5] (pair, 4 match indices) that are the first
    of their pair to pick their set of 4 matches, in draw order."""
    keys = np.concatenate([draws[:, :1], np.sort(draws[:, 1:], axis=1)], axis=1)
    order = np.lexsort(keys.T[::-1])  # stable, so each set's draws stay in draw order
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[new])


def _ransac_block(pairs, inlier_threshold: float):
    """RANSAC over several pairs at once.  pairs: (pts_a [n,2], pts_b [n,2],
    sample_indices [it,4]) with n >= 4 -> (H, inliers, mask) per pair."""
    if inlier_threshold <= 0:
        raise ValueError("inlier_threshold must be positive")
    sizes = np.array([len(pa) for pa, _, _ in pairs])
    width = int(sizes.max())
    pts_a = np.zeros((len(pairs), width, 2))
    pts_b = np.zeros((len(pairs), width, 2))
    draws = []
    for p, (pa, pb, samples) in enumerate(pairs):
        pts_a[p, : len(pa)] = pa
        pts_b[p, : len(pb)] = pb
        draws.append(np.column_stack([np.full(len(samples), p), samples]))
    draws = np.concatenate(draws)  # [sum it, 5]: pair, 4 sample indices

    # One hypothesis per distinct (pair, set), on its first draw's ordering;
    # rows stay in draw order, so grouped by pair.
    first = _first_draws(draws)
    owner, sets = draws[first, 0], draws[first, 1:]

    Ta, _, pa_n, va = _similarity_T(pts_a[owner[:, None], sets])
    _, Tb_inv, pb_n, vb = _similarity_T(pts_b[owner[:, None], sets])
    valid = va & vb & _noncollinear(pa_n) & _noncollinear(pb_n)
    H = Tb_inv[valid] @ _four_point_homography(pa_n[valid], pb_n[valid]) @ Ta[valid]
    owner = owner[valid]
    valid = np.isfinite(H).all(axis=(1, 2)) & (np.abs(H[:, 2, 2]) > _W_EPS)
    H, owner = H[valid], owner[valid]

    real = np.arange(width) < sizes[owner, None]
    inliers = (_symmetric_errors(H, pts_a[owner], pts_b[owner]) < inlier_threshold) & real
    counts = inliers.sum(axis=1)
    bounds = np.searchsorted(owner, np.arange(len(pairs) + 1))

    out = []
    for p, (pa, pb, _) in enumerate(pairs):
        lo, hi = bounds[p], bounds[p + 1]
        best = lo + int(np.argmax(counts[lo:hi])) if hi > lo else None  # earliest of ties
        if best is None or counts[best] < 4:
            out.append((None, 0, np.zeros(len(pa), dtype=bool)))
        else:
            out.append(_refit(H[best], inliers[best, : len(pa)], pa, pb, inlier_threshold))
    return out


def _draw_samples(n: int, iterations: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.argsort(rng.random((iterations, n)), axis=1)[:, :4]


def ransac_homography(
    pts_a: np.ndarray,
    pts_b: np.ndarray,
    iterations: int = 2000,
    inlier_threshold: float = 3.0,
    seed: int = 0,
    sample_indices: np.ndarray | None = None,
) -> tuple[Optional[np.ndarray], int, np.ndarray]:
    """RANSAC homography from matched points; returns (H, inliers, mask).

    Samples 4 correspondences per iteration (all draws up front from the
    seeded generator; sample_indices overrides them for schedule-replay
    tests), fits each distinct sample set in closed form, counts
    symmetric-transfer inliers, then refits on the best consensus set by
    least-squares DLT.  Fewer than 4 matches, or a budget of entirely
    degenerate samples, gives (None, 0, all False).  H is normalized so
    H[2,2] == 1.
    """
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    n = len(pts_a)
    if len(pts_b) != n:
        raise ValueError("point sets must align")
    if n < 4:
        return None, 0, np.zeros(n, dtype=bool)
    if sample_indices is None:
        sample_indices = _draw_samples(n, iterations, seed)
    return _ransac_block([(pts_a, pts_b, np.asarray(sample_indices))], inlier_threshold)[0]


def _pair_seed(base: int, qid: int, cid: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base, qid, cid])


def gv_scores(
    query: ImageRecord, candidates: Sequence[ImageRecord], cfg: GVConfig
) -> list[int]:
    """Inlier count of a RANSAC homography over mutual-NN local matches, per
    candidate; 0 whenever matching or estimation fails.  Deterministic per
    (seed, query id, candidate id), independent of evaluation order and of
    how candidates fall into blocks."""
    scores = [0] * len(candidates)
    la, pos_a = query.vecs, query.uv
    block, slots, rows, width = [], [], 0, 0

    def flush():
        for slot, (_, count, _) in zip(slots, _ransac_block(block, cfg.inlier_threshold)):
            scores[slot] = count

    for slot, cand in enumerate(candidates):
        lb = cand.vecs
        if la.shape[0] == 0 or lb.shape[0] == 0:
            continue
        matches = mutual_nn_matches(la, lb, ratio=cfg.ratio)
        n = len(matches)
        if n < 4:
            continue
        pa = pos_a[[m.a_index for m in matches]].astype(np.float64)
        pb = cand.uv[[m.b_index for m in matches]].astype(np.float64)
        seed = int(_pair_seed(cfg.seed, query.id, cand.id).generate_state(1)[0])
        hyps = min(cfg.iterations, comb(n, 4))
        if block and (rows + hyps) * max(width, n) > GV_BLOCK_BUDGET:
            flush()
            block, slots, rows, width = [], [], 0, 0
        block.append((pa, pb, _draw_samples(n, cfg.iterations, seed)))
        slots.append(slot)
        rows, width = rows + hyps, max(width, n)
    if block:
        flush()
    return scores
