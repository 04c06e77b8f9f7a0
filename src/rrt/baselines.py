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
- The winner's consensus set is refit by least-squares DLT (SVD), the
  local optimisation step of LO-RANSAC (Chum, Matas & Kittler, 2003).  The
  winner stands when the refit degenerates or keeps fewer than 4.

`gv_scores` verifies a query against many candidates in blocks, and every
step runs once per block, not once per pair:

- Dedup.  Each draw's sorted set packs into one int64 in base w, the
  block's widest pair, and one stable sort finds each set's first draw.
  The keys fit while w**4 <= 2**63, i.e. w <= 55,108 (_PACK_MAX_WIDTH,
  checked); one pair that wide would first need a 24 GB mutual-NN matrix.
- Hypotheses.  Every set of every pair is fitted in one vectorized step and
  scored against its own pair's matches, padded to w and masked, in one
  pass.  Points are projected with elementwise ufuncs per hypothesis, so a
  point's error does not depend on the padding or on the other points.
- Refits.  Winners are grouped by consensus size, with one normalization
  and one stacked SVD per size.  LAPACK factors each matrix on its own, so
  each refit has the bits it would have alone.  All refits of the block are
  then scored in one padded, masked pass.
- Inverses.  The backward transfer error needs every hypothesis's inverse.
  It is adj(H) / det(H), elementwise over the stack: the columns of adj(H)
  are cross products of H's rows, and det(H) is their dot product with the
  first row.  Dividing by det, rather than projecting with adj(H), keeps
  the projection's _W_EPS guard on the scale of the true inverse.

GV_BLOCK_BUDGET bounds hypotheses x padded matches per block, which bounds
its memory; a pair above the bound on its own forms a block alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite
from typing import Optional, Sequence

import numpy as np

from .data import ImageRecord, l2_normalize
from .errors import ConfigError

__all__ = [
    "GVConfig",
    "alpha_qe_expand",
    "mutual_nn_matches",
    "ransac_homography",
    "gv_scores",
]

_COLLINEAR_EPS = 1e-6   # triangle area floor on Hartley-normalized coords
_W_EPS = 1e-12          # homogeneous scale floor when projecting
GV_BLOCK_BUDGET = 1 << 14  # hypotheses x padded matches per block


@dataclass(frozen=True)
class GVConfig:
    iterations: int = 2000
    inlier_threshold: float = 3.0  # pixels, symmetric transfer
    ratio: Optional[float] = None  # Lowe ratio test, off by default
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"GV iterations must be at least 1, got {self.iterations}")
        if not (isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ConfigError(
                f"GV inlier threshold must be finite and positive, got {self.inlier_threshold}"
            )
        if self.ratio is not None and not (isfinite(self.ratio) and self.ratio > 0):
            raise ConfigError(f"GV ratio must be finite and positive, got {self.ratio}")


def aqe_weights(sims: np.ndarray, alpha: float) -> np.ndarray:
    """Neighbor weights max(sim, 0)^alpha; the clamp keeps the exponent real
    on negative cosines (and 0^0 evaluates to 1, so alpha=0 is uniform)."""
    return np.power(np.maximum(np.asarray(sims, dtype=np.float64), 0.0), alpha)


def alpha_qe_expand(
    query_vec: np.ndarray,
    neighbor_vecs: np.ndarray,
    sims: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Expanded query: normalize(q + sum_i max(sim_i, 0)^alpha * d_i) over
    the given neighbors.  The query itself participates with weight 1."""
    q = np.asarray(query_vec, dtype=np.float64)
    weights = aqe_weights(sims, alpha)
    expanded = q + weights @ np.asarray(neighbor_vecs, dtype=np.float64)
    return l2_normalize(expanded).astype(np.float32)


def mutual_nn_matches(
    locals_a: np.ndarray, locals_b: np.ndarray, ratio: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (i, j) where j is i's Euclidean nearest neighbor in B and i is
    j's nearest in A.  With a ratio r, both directions must also pass
    d1 <= r * d2 against their second-nearest, keeping the match set
    symmetric.  Returns the arrays (i, j, distance), one entry per match,
    sorted by the A index i."""
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

    keep = (nn_a[nn_b] == np.arange(len(a))) & ok_a & ok_b[nn_b]
    i = np.flatnonzero(keep)
    j = nn_b[i]
    return i, j, dist[i, j]


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


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v over the last axis of [..., 3] arrays: np.cross's formulas,
    so the same bits, without its per-call overhead."""
    return u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]


def _projective_basis(pts: np.ndarray):
    """[U,4,2] -> (M, adj(M), lambda): M = [p1 p2 p3] with the homogeneous
    points as columns, its adjugate from cross products of the columns, and
    lambda = adj(M) p4, so that p4 ~ M lambda."""
    h = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2)  # [U,4,3]
    adj = np.stack([_cross(h[:, 1], h[:, 2]), _cross(h[:, 2], h[:, 0]), _cross(h[:, 0], h[:, 1])], axis=1)
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


def _project(H: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Apply homographies [U,3,3] to points with coordinates x, y [U,n] (or
    [1,n], shared) -> (x', y', valid), each [U,n].  Elementwise per
    hypothesis, so a point's result does not depend on the other points or
    on padding."""
    h = H[:, :, :, None]  # each entry a [U,1] column, broadcast over points
    px = h[:, 0, 0] * x + h[:, 0, 1] * y + h[:, 0, 2]
    py = h[:, 1, 0] * x + h[:, 1, 1] * y + h[:, 1, 2]
    w = h[:, 2, 0] * x + h[:, 2, 1] * y + h[:, 2, 2]
    good = np.abs(w) > _W_EPS
    w = np.where(good, w, 1.0)
    return px / w, py / w, good


def _symmetric_errors(H: np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """sqrt(forward^2 + backward^2) transfer error of H [U,3,3] on points
    [U,n,2] (or [1,n,2], shared), [U, n]; inf where the homography is not
    invertible or the projection degenerates.  The inverse is adj(H) / det(H),
    elementwise (module docstring)."""
    r0, r1, r2 = H[:, 0], H[:, 1], H[:, 2]
    adj = np.stack([_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)], axis=2)
    det = (r0 * adj[:, :, 0]).sum(axis=1)
    invertible = np.abs(det) > 1e-12
    Hinv = adj / np.where(invertible, det, 1.0)[:, None, None]

    xa, ya = pts_a[..., 0], pts_a[..., 1]
    xb, yb = pts_b[..., 0], pts_b[..., 1]
    fx, fy, ok_f = _project(H, xa, ya)
    bx, by, ok_b = _project(Hinv, xb, yb)
    fx -= xb
    fy -= yb
    bx -= xa
    by -= ya
    e = np.sqrt((fx * fx + fy * fy) + (bx * bx + by * by))
    return np.where(ok_f & ok_b & invertible[:, None], e, np.inf)


def _refit(inliers, owner, pts_a, pts_b, real, inlier_threshold):
    """Least-squares DLT refits of the winners' consensus sets inliers
    [W,width], with pair owner [W] of the padded points [P,width,2] ->
    (refit H [W,3,3], mask [W,width], ok [W]).  ok is False where the refit
    degenerates or keeps fewer than 4, and the winner stands.  Refits of
    one consensus size share one normalization and one stacked SVD, which
    runs LAPACK per matrix, so each keeps its bits."""
    sizes = inliers.sum(axis=1)
    Hr = np.zeros((len(inliers), 3, 3))  # a row left zero fails the H[2,2] test
    for size in np.unique(sizes):
        g = np.flatnonzero(sizes == size)
        cols = np.nonzero(inliers[g])[1].reshape(len(g), size)
        Ta, _, pa, va = _similarity_T(pts_a[owner[g, None], cols])
        _, Tb_inv, pb, vb = _similarity_T(pts_b[owner[g, None], cols])
        ok = va & vb
        if ok.any():
            Hr[g[ok]] = Tb_inv[ok] @ _dlt_batch(pa[ok], pb[ok]) @ Ta[ok]
    fit = np.isfinite(Hr).all(axis=(1, 2)) & (np.abs(Hr[:, 2, 2]) > _W_EPS)
    mask = np.zeros_like(inliers)
    f = owner[fit]
    mask[fit] = (_symmetric_errors(Hr[fit], pts_a[f], pts_b[f]) < inlier_threshold) & real[f]
    return Hr, mask, mask.sum(axis=1) >= 4


_PACK_MAX_WIDTH = 55_108  # largest w with w**4 <= 2**63: packed dedup keys fit int64


def _first_draws(draws: np.ndarray, width: int) -> np.ndarray:
    """Indices of the draws [k, 5] (pair, 4 match indices below width) that
    are the first of their pair to pick their set of 4 matches, in draw
    order.  The key is the packed sorted set; the pair needs no key bits,
    because draws arrive grouped by pair and the sort is stable, so the
    draws of one set stay ordered by pair and then by draw."""
    if width > _PACK_MAX_WIDTH:
        raise ValueError(f"block width {width} exceeds the dedup packing bound {_PACK_MAX_WIDTH}")
    s = np.sort(draws[:, 1:], axis=1).astype(np.int64, copy=False)
    key = ((s[:, 0] * width + s[:, 1]) * width + s[:, 2]) * width + s[:, 3]
    order = np.argsort(key, kind="stable")
    ranked, pair = key[order], draws[order, 0]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]) | (pair[1:] != pair[:-1])
    first = np.zeros(len(order), dtype=bool)
    first[order[new]] = True
    return np.flatnonzero(first)


def _ransac_block(pairs, inlier_threshold: float):
    """RANSAC over several pairs at once.  pairs: (pts_a [n,2], pts_b [n,2],
    sample_indices [it,4]) with n >= 4 -> (H, inliers, mask) per pair."""
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
    real = np.arange(width) < sizes[:, None]

    # One hypothesis per distinct (pair, set), on its first draw's ordering;
    # rows stay in draw order, so grouped by pair.
    first = _first_draws(draws, width)
    owner, sets = draws[first, 0], draws[first, 1:]

    Ta, _, pa_n, va = _similarity_T(pts_a[owner[:, None], sets])
    _, Tb_inv, pb_n, vb = _similarity_T(pts_b[owner[:, None], sets])
    valid = va & vb & _noncollinear(pa_n) & _noncollinear(pb_n)
    H = Tb_inv[valid] @ _four_point_homography(pa_n[valid], pb_n[valid]) @ Ta[valid]
    owner = owner[valid]
    valid = np.isfinite(H).all(axis=(1, 2)) & (np.abs(H[:, 2, 2]) > _W_EPS)
    H, owner = H[valid], owner[valid]

    inliers = (_symmetric_errors(H, pts_a[owner], pts_b[owner]) < inlier_threshold) & real[owner]
    counts = inliers.sum(axis=1)

    # Each pair's winner is its earliest hypothesis with the top count.
    bounds = np.searchsorted(owner, np.arange(len(pairs) + 1))
    win = np.array(
        [lo + np.argmax(counts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo],
        dtype=np.int64,
    )
    win = win[counts[win] >= 4]
    best_H, best_mask = H[win] / H[win, 2:, 2:], inliers[win]
    Hr, mask, ok = _refit(best_mask, owner[win], pts_a, pts_b, real, inlier_threshold)
    best_H[ok] = Hr[ok] / Hr[ok, 2:, 2:]
    best_mask[ok] = mask[ok]

    out = [(None, 0, np.zeros(n, dtype=bool)) for n in sizes]
    for p, Hp, m in zip(owner[win], best_H, best_mask):
        out[p] = (Hp, int(m.sum()), m[: sizes[p]])
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
) -> tuple[Optional[np.ndarray], int, np.ndarray]:
    """RANSAC homography from matched points; returns (H, inliers, mask).

    Samples 4 correspondences per iteration (all draws up front from the
    seeded generator), fits each distinct sample set in closed form, counts
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
    if not (isfinite(inlier_threshold) and inlier_threshold > 0):
        raise ValueError("inlier_threshold must be finite and positive")
    if n < 4:
        return None, 0, np.zeros(n, dtype=bool)
    return _ransac_block([(pts_a, pts_b, _draw_samples(n, iterations, seed))], inlier_threshold)[0]


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
        ia, ib, _ = mutual_nn_matches(la, lb, ratio=cfg.ratio)
        n = len(ia)
        if n < 4:
            continue
        pa = pos_a[ia].astype(np.float64)
        pb = cand.uv[ib].astype(np.float64)
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
