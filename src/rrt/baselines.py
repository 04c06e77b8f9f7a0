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

- Dedup.  Each draw's set, sorted by a 5-comparator min/max network, packs
  into one int64 in base w, the block's widest pair, and one stable sort
  finds each set's first draw.  The keys fit while w**4 <= 2**63, i.e.
  w <= 55,108 (_PACK_MAX_WIDTH, checked); one pair that wide would first
  need a 24 GB mutual-NN matrix.
- Hypotheses.  Every set of every pair is fitted in one vectorized step,
  in structure-of-arrays form: each side's sampled x and y are gathered as
  [4, U] coordinate rows, and the Hartley normalization, the collinearity
  test and the projective basis's cross products are [U]-wide ufuncs.  The
  centroid and the mean distance sum ((p0 + p1) + p2) + p3, the order
  numpy's reductions take over an axis of 4.  The 3x3 products, adj(M) p4
  per side, (M_b diag(w)) adj(M_a) and T_b^-1 H T_a, stay np.matmul in the
  memory layout the stacked [U, 4, 2] form gives them: numpy hands each
  matrix to BLAS on its own, BLAS picks its kernel by layout, and explicit
  sums round differently (by up to 4.4e-16).  So every hypothesis has the
  bytes of the stacked composition (tests/oracles.py).
- Scoring.  The hypotheses are scored against their own pair's matches in
  pair-aligned chunks, each padded to its widest pair and masked.  Points
  are projected with elementwise ufuncs per hypothesis, so a point's error
  does not depend on the padding, the chunk or the other points.
- Refits.  Winners are grouped by consensus size, with one normalization
  and one stacked SVD per size.  LAPACK factors each matrix on its own, so
  each refit has the bits it would have alone.  All refits of the block are
  then scored in one padded, masked pass.
- Inverses.  The backward transfer error needs every hypothesis's inverse.
  It is adj(H) / det(H), elementwise over the stack: the columns of adj(H)
  are cross products of H's rows, and det(H) is their dot product with the
  first row.  Dividing by det, rather than projecting with adj(H), keeps
  the projection's _W_EPS guard on the scale of the true inverse.

GV_BLOCK_BUDGET (B) bounds every per-block array, which bounds the memory:
a block holds at most B / 4 hypotheses, so its [4, U] coordinate rows have
at most B entries, and at most 2B draws; a scoring chunk's hypotheses times
padded matches stay within B.  A pair above a bound on its own forms a block
or chunk alone.  Larger blocks amortize more per-call overhead, but their
transient arrays grow with them; at B = 2**14 one seed-1 eval query's traced
peak heap stays below the stacked form's at 500 and at 2,000 iterations.
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
GV_BLOCK_BUDGET = 1 << 14  # per-block array entries (module docstring)
GV_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class GVConfig:
    """RANSAC knobs.  Building a config checks it and raises ConfigError on a
    bad value.  iterations is capped at GV_MAX_ITERATIONS, 50x the default,
    because each pair draws an [iterations, n] float64 matrix and argsorts
    it: 10**11 iterations over 8 matches would ask for 5.8 TiB."""

    iterations: int = 2000
    inlier_threshold: float = 3.0  # pixels, symmetric transfer
    ratio: Optional[float] = None  # Lowe ratio test, off by default
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"GV iterations must be at least 1, got {self.iterations}")
        if self.iterations > GV_MAX_ITERATIONS:
            raise ConfigError(f"GV iterations must be at most {GV_MAX_ITERATIONS}, got {self.iterations}")
        if self.seed < 0:
            raise ConfigError(f"GV seed must be non-negative, got {self.seed}")
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
    c = pts.mean(axis=1, keepdims=True)
    d = np.linalg.norm(pts - c, axis=2).mean(axis=1)
    s = np.sqrt(2.0) / np.maximum(d, 1e-12)
    cx, cy = c[:, 0, 0], c[:, 0, 1]
    pn = (pts - c) * s[:, None, None]
    return _scale_shift(s, -s * cx, -s * cy), _scale_shift(1.0 / s, cx, cy), pn, d > 1e-9


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


def _sum4(r: np.ndarray) -> np.ndarray:
    """((r0 + r1) + r2) + r3 over the rows of [4, U]: the order numpy's
    reductions take over an axis of 4, strided or contiguous."""
    out = r[0] + r[1]
    out += r[2]
    out += r[3]
    return out


def _normalize(x: np.ndarray, y: np.ndarray):
    """Hartley normalization of 4-point sets held as coordinate rows x, y
    [4, U], in place: each set is centered and scaled to mean distance
    sqrt(2).  Returns its scale and centroid (s, cx, cy) and whether its
    spread is nonzero, each [U]."""
    cx = _sum4(x) / 4.0
    cy = _sum4(y) / 4.0
    x -= cx
    y -= cy
    r = x * x
    r += y * y
    d = _sum4(np.sqrt(r, out=r)) / 4.0
    s = np.sqrt(2.0) / np.maximum(d, 1e-12)
    x *= s
    y *= s
    return s, cx, cy, d > 1e-9


_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _noncollinear(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinate rows [4, U] -> bool [U]: every triple spans a triangle of
    area above _COLLINEAR_EPS."""
    ok = np.ones(x.shape[1], dtype=bool)
    for i, j, k in _TRIPLES:
        area = (x[j] - x[i]) * (y[k] - y[i]) - (y[j] - y[i]) * (x[k] - x[i])
        ok &= 0.5 * np.abs(area) > _COLLINEAR_EPS
    return ok


def _projective_basis(x: np.ndarray, y: np.ndarray):
    """Coordinate rows [4, U] -> (adj(M) [U,3,3], lambda [U,3]): M = [p0 p1 p2]
    with the homogeneous points as columns, so adj(M)'s rows are cross
    products of its columns, and lambda = adj(M) p3, so that p3 ~ M lambda.
    With z = 1 the cross products' products by 1 are exact and drop out.
    adj(M) is laid out as np.stack lays it out in the stacked form:
    column-major per matrix, and row-major for a lone set.  BLAS picks its
    kernel by layout, and the kernel sets the bits of the products."""
    u = x.shape[1]
    adj = np.empty((3, u, 3)).transpose(1, 2, 0) if u > 1 else np.empty((1, 3, 3))
    for row, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(y[i], y[j], out=adj[:, row, 0])
        np.subtract(x[j], x[i], out=adj[:, row, 1])
        np.subtract(x[i] * y[j], y[i] * x[j], out=adj[:, row, 2])
    p3 = np.ones((u, 3, 1))
    p3[:, 0, 0] = x[3]
    p3[:, 1, 0] = y[3]
    return adj, (adj @ p3)[..., 0]


def _scale_shift(scale: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """[[scale, 0, tx], [0, scale, ty], [0, 0, 1]] per entry -> [U,3,3]."""
    T = np.zeros((len(scale), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = scale
    T[:, 0, 2] = tx
    T[:, 1, 2] = ty
    T[:, 2, 2] = 1.0
    return T


def _four_point_fit(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """Homographies [U,3,3] with unit Frobenius norm through 4 normalized
    correspondences given as coordinate rows [4, U] per side: M_b
    diag(lambda_b / lambda_a) adj(M_a), scaled by lambda_a1 lambda_a2
    lambda_a3.  A set with 3 collinear points on either side gets garbage."""
    adj_a, la = _projective_basis(xa, ya)
    lb = _projective_basis(xb, yb)[1]
    w = lb * la[:, [1, 2, 0]] * la[:, [2, 0, 1]]
    mbw = np.empty((len(w), 3, 3)).transpose(0, 2, 1)  # column-major, as adj(M)
    np.multiply(xb[:3].T, w, out=mbw[:, 0])
    np.multiply(yb[:3].T, w, out=mbw[:, 1])
    mbw[:, 2] = w
    H = mbw @ adj_a
    norm = np.linalg.norm(H, axis=(1, 2), keepdims=True)
    H /= np.where(norm > 0, norm, 1.0)  # a collinear set's H can be 0
    return H


def _hypotheses(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray):
    """Exact homographies through 4-point correspondences given as coordinate
    rows [4, U] per side (overwritten) -> (H [U,3,3], ok [U]).  ok holds
    where both sides normalize with no 3 points collinear and H is finite
    with H[2,2] off zero; every set is fitted, and ok drops the others.
    Every 3x3 product is np.matmul, which keeps the bits of the [U,4,2]
    form (module docstring).  That form fits only the sets that pass, so a
    lone one among several is fitted again alone, in a lone set's layout."""
    sa, cxa, cya, va = _normalize(xa, ya)
    sb, cxb, cyb, vb = _normalize(xb, yb)
    ok = va & vb & _noncollinear(xa, ya) & _noncollinear(xb, yb)
    H = _four_point_fit(xa, ya, xb, yb)
    if len(ok) > 1 and np.count_nonzero(ok) == 1:
        i = np.flatnonzero(ok)
        H[i] = _four_point_fit(xa[:, i], ya[:, i], xb[:, i], yb[:, i])
    np.matmul(_scale_shift(1.0 / sb, cxb, cyb) @ H, _scale_shift(sa, -sa * cxa, -sa * cya), out=H)
    ok &= np.isfinite(H).all(axis=(1, 2)) & (np.abs(H[:, 2, 2]) > _W_EPS)
    return H, ok


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
    mask[fit] = _inliers(Hr[fit], owner[fit], pts_a, pts_b, real, inlier_threshold)
    return Hr, mask, mask.sum(axis=1) >= 4


_PACK_MAX_WIDTH = 55_108  # largest w with w**4 <= 2**63: packed dedup keys fit int64


def _set_keys(draws: np.ndarray, width: int) -> np.ndarray:
    """The sets of the draws [k, 5], sorted by a 5-comparator network and
    packed in base width -> int64 [k]."""
    a, b, c, d = draws[:, 1:].astype(np.int64, copy=False).T
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = np.minimum(c, d), np.maximum(c, d)
    a, c = np.minimum(a, c), np.maximum(a, c)
    b, d = np.minimum(b, d), np.maximum(b, d)
    b, c = np.minimum(b, c), np.maximum(b, c)
    for col in (b, c, d):  # a is the network's own array, packed in place
        a *= width
        a += col
    return a


def _first_draws(draws: np.ndarray, width: int) -> np.ndarray:
    """Indices of the draws [k, 5] (pair, 4 match indices below width) that
    are the first of their pair to pick their set of 4 matches, in draw
    order.  The key is the packed sorted set; the pair needs no key bits,
    because draws arrive grouped by pair and the sort is stable, so the
    draws of one set stay ordered by pair and then by draw."""
    if width > _PACK_MAX_WIDTH:
        raise ValueError(f"block width {width} exceeds the dedup packing bound {_PACK_MAX_WIDTH}")
    key = _set_keys(draws, width)
    order = np.argsort(key, kind="stable")
    key, pair = key[order], draws[order, 0]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (pair[1:] != pair[:-1])
    first = np.zeros(len(order), dtype=bool)
    first[order[new]] = True
    return np.flatnonzero(first)


def _distinct_sets(pairs, width: int):
    """(owner [U], at [4, U]): every distinct (pair, set of 4 matches) of a
    block, on its first draw's ordering and in draw order, so grouped by
    pair, as its pair and the flat indices of its 4 points into the
    block's [pairs, width] padding."""
    draws = np.empty((sum(len(samples) for _, _, samples in pairs), 5), dtype=np.int64)
    lo = 0
    for p, (_, _, samples) in enumerate(pairs):
        draws[lo : lo + len(samples), 0] = p
        draws[lo : lo + len(samples), 1:] = samples
        lo += len(samples)
    first = _first_draws(draws, width)
    owner = draws[first, 0]
    return owner, owner * width + draws[first, 1:].T


def _inliers(H, owner, pts_a, pts_b, real, inlier_threshold):
    """Inlier masks [U, w] of the homographies H [U,3,3] on their pairs'
    points, padded to the width w of pts_a, pts_b [P,w,2] and real [P,w]."""
    errors = _symmetric_errors(H, pts_a[owner], pts_b[owner])
    return (errors < inlier_threshold) & real[owner]


def _chunks(bounds, sizes):
    """Pair-aligned slices (lo, hi, width) of a block's hypotheses, grouped
    by pair at bounds [P+1]: each slice's hypotheses times its widest pair
    stay within GV_BLOCK_BUDGET, and a pair above it forms a slice alone."""
    start, width = 0, 0
    for p, n in enumerate(sizes):
        if p > start and (bounds[p + 1] - bounds[start]) * max(width, n) > GV_BLOCK_BUDGET:
            yield bounds[start], bounds[p], width
            start, width = p, 0
        width = max(width, n)
    yield bounds[start], bounds[-1], width


def _ransac_block(pairs, inlier_threshold: float):
    """RANSAC over several pairs at once.  pairs: (pts_a [n,2], pts_b [n,2],
    sample_indices [it,4]) with n >= 4 -> (H, inliers, mask) per pair."""
    sizes = np.array([len(pa) for pa, _, _ in pairs])
    width = int(sizes.max())
    pts_a = np.zeros((len(pairs), width, 2))
    pts_b = np.zeros((len(pairs), width, 2))
    for p, (pa, pb, _) in enumerate(pairs):
        pts_a[p, : len(pa)] = pa
        pts_b[p, : len(pb)] = pb
    real = np.arange(width) < sizes[:, None]

    owner, at = _distinct_sets(pairs, width)
    H, ok = _hypotheses(*(np.take(pts[..., c], at) for pts in (pts_a, pts_b) for c in (0, 1)))
    H, owner = H[ok], owner[ok]
    bounds = np.searchsorted(owner, np.arange(len(pairs) + 1))
    counts = np.concatenate([
        _inliers(H[lo:hi], owner[lo:hi], pts_a[:, :w], pts_b[:, :w], real[:, :w], inlier_threshold).sum(axis=1)
        for lo, hi, w in _chunks(bounds, sizes)
    ])

    # Each pair's winner is its earliest hypothesis with the top count.
    win = np.array(
        [lo + np.argmax(counts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo],
        dtype=np.int64,
    )
    win = win[counts[win] >= 4]
    best_H = H[win] / H[win, 2:, 2:]
    # the chunks kept only counts: the winners' masks again, with the same bits
    best_mask = _inliers(H[win], owner[win], pts_a, pts_b, real, inlier_threshold)
    Hr, mask, ok = _refit(best_mask, owner[win], pts_a, pts_b, real, inlier_threshold)
    best_H[ok] = Hr[ok] / Hr[ok, 2:, 2:]
    best_mask[ok] = mask[ok]

    out = [(None, 0, np.zeros(n, dtype=bool)) for n in sizes]
    for p, Hp, m in zip(owner[win], best_H, best_mask):
        out[p] = (Hp, int(m.sum()), m[: sizes[p]])
    return out


def _draw_samples(n: int, iterations: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # a copy, so the [iterations, n] argsort is freed before the block flushes
    return np.argsort(rng.random((iterations, n)), axis=1)[:, :4].copy()


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
    block, slots, rows = [], [], 0

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
        drawn = (len(block) + 1) * cfg.iterations
        if block and (4 * (rows + hyps) > GV_BLOCK_BUDGET or drawn > 2 * GV_BLOCK_BUDGET):
            flush()
            block, slots, rows = [], [], 0
        block.append((pa, pb, _draw_samples(n, cfg.iterations, seed)))
        slots.append(slot)
        rows += hyps
    if block:
        flush()
    return scores
