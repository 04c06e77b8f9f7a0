"""Brute-force reference implementations, written independently of the
library code paths they check.  Deliberately naive: plain loops, full sorts,
quadratic scans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def ap_brute(ranked, relevant):
    """AP by re-deriving precision@k from scratch at every hit."""
    total = 0.0
    for k in range(1, len(ranked) + 1):
        if ranked[k - 1] in relevant:
            in_top = sum(1 for g in ranked[:k] if g in relevant)
            total += in_top / k
    return total / len(relevant)


def ap_at_k_brute(ranked, relevant, k):
    total = 0.0
    for rank in range(1, min(k, len(ranked)) + 1):
        if ranked[rank - 1] in relevant:
            in_top = sum(1 for g in ranked[:rank] if g in relevant)
            total += in_top / rank
    return total / min(len(relevant), k)


def recall_at_k_brute(ranked, relevant, k):
    return 1.0 if any(g in relevant for g in ranked[:k]) else 0.0


def knn_brute(ids, vectors, query, k, exclude_id=None):
    """Full sort over every gallery item by (score desc, id asc)."""
    rows = []
    for gid, vec in zip(ids, vectors):
        if exclude_id is not None and gid == exclude_id:
            continue
        rows.append((int(gid), float(np.dot(np.asarray(vec, np.float32), np.asarray(query, np.float32)))))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return rows[:k]


def mutual_nn_brute(a, b):
    """Quadratic mutual nearest-neighbor scan."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = []
    for i in range(len(a)):
        dists_i = [np.linalg.norm(a[i] - b[j]) for j in range(len(b))]
        j = int(np.argmin(dists_i))
        dists_j = [np.linalg.norm(a[p] - b[j]) for p in range(len(a))]
        if int(np.argmin(dists_j)) == i:
            out.append((i, j))
    return out


def stable_rerank_brute(entries, scores, k):
    """Reference for the top-k rerank contract: stable sort of the prefix by
    descending score, suffix untouched."""
    m = min(k, len(entries))
    prefix = [(entries[i][0], scores[i]) for i in range(m)]
    # python's sorted is stable, so equal scores keep prior order
    prefix = sorted(prefix, key=lambda t: -t[1])
    return prefix + list(entries[m:])


def mine_neighbor_ids_lexsort(records, pool):
    """Per-record ranked neighbor ids over the raw globals, self excluded:
    one full similarity matrix, then a full lexsort of every row by (score
    desc, id asc).  The reference for train.mine_neighbor_ids."""
    from rrt.retrieval import build_index

    index = build_index(records)
    k = min(pool, len(records) - 1)
    sims = index.vectors @ index.vectors.T
    ids = index.ids
    out = {}
    take = max(k, 1) + 1  # one extra row in case self ranks inside the cut
    for row, r in enumerate(records):
        order = np.lexsort((ids, -sims[row].astype(np.float64)))[:take]
        out[r.id] = [int(ids[i]) for i in order if ids[i] != r.id][: max(k, 1)]
    return out


def swapaxes(a, ax1, ax2):
    """np.swapaxes as a graph op; rrt.model's forward never swaps axes, so
    only the composed references below carry it."""
    from rrt.autograd import _make

    def grad_fn(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(np.swapaxes(a.data, ax1, ax2), (a,), grad_fn)


def composed_mha_forward(layer, cfg, z, mask, return_attn=False):
    """Multi-head attention composed from autograd primitives: affine, head
    split, q.k^T matmul, scale, masked softmax, P.v matmul, head merge, output
    affine.  The reference for the fused attention op, whose float32 outputs
    differ from it by rounding only: the op scales the queries instead of
    the logits, takes exp2 on tiles without masked keys and normalises after
    P.v."""
    from rrt import autograd as ag

    B, T, d = z.shape
    h, dh = cfg.h, cfg.d_h

    def heads(t):
        return swapaxes(ag.reshape(t, (B, T, h, dh)), 1, 2)  # [B,h,T,dh]

    q = heads(ag.affine(z, layer.wq, layer.bq))
    k = heads(ag.affine(z, layer.wk, layer.bk))
    v = heads(ag.affine(z, layer.wv, layer.bv))

    logits = scale(ag.matmul(q, swapaxes(k, 2, 3)), 1.0 / np.sqrt(dh))
    attn = ag.masked_softmax_lastdim(logits, mask[:, None, None, :])
    ctx = ag.reshape(swapaxes(ag.matmul(attn, v), 1, 2), (B, T, d))
    out = ag.affine(ctx, layer.wo, layer.bo)
    return out, (attn.data if return_attn else None)


# -- per-pair token assembly --------------------------------------------------


@dataclass
class TokenSequence:
    tokens: object                       # Tensor [T, d]
    valid_mask: np.ndarray               # bool[T]
    kinds: list[tuple[str, Optional[int]]]  # token index -> (kind, local index)


def _image_tokens(params, cfg, rec, barred, dtype):
    """Token block and metadata for one image inside a pair sequence."""
    from rrt import autograd as ag
    from rrt.autograd import Tensor
    from rrt.errors import ConfigError
    from rrt.model import _position_code

    pieces: list[Tensor] = []
    mask: list[bool] = []
    kinds: list[tuple[str, Optional[int]]] = []
    side = "b" if barred else "a"

    if cfg.use_global_token:
        g = np.asarray(rec.global_desc, dtype=dtype)
        if g.shape != (cfg.d_g_raw,):
            raise ConfigError(
                f"record {rec.id}: global dim {g.shape[0]} but model expects {cfg.d_g_raw}"
            )
        seg = params[f"seg.global_{side}"]
        proj = ag.affine(Tensor(g[None, :]), params["global_proj.w"], params["global_proj.b"])
        pieces.append(ag.add(proj, seg))
        mask.append(True)
        kinds.append((f"global_{side}", None))

    n_loc = len(rec.vecs)
    if n_loc > cfg.L:
        raise ConfigError(
            f"record {rec.id} has {n_loc} locals but the model takes at most {cfg.L}; "
            "truncate at load time"
        )
    if n_loc:
        mat = rec.vecs.astype(dtype)
        if mat.shape[1] != cfg.d:
            raise ConfigError(
                f"record {rec.id}: local dim {mat.shape[1]} but model dim is {cfg.d}"
            )
        sidx = rec.scale_idx.astype(np.int64)
        if np.any(sidx >= cfg.n_scales) or np.any(sidx < 0):
            raise ConfigError(
                f"record {rec.id}: scale index outside [0, {cfg.n_scales})"
            )
        x = Tensor(mat)
        if cfg.use_scale_embed:
            x = ag.add(x, ag.embedding(params["scale_embed.table"], sidx))
        if cfg.use_pos_embed:
            x = ag.add(x, Tensor(_position_code(rec.uv, cfg.d).astype(dtype)))
        x = ag.add(x, params[f"seg.local_{side}"])
        pieces.append(x)
        mask.extend([True] * n_loc)
        kinds.extend((f"local_{side}", i) for i in range(n_loc))
    if n_loc < cfg.L:
        pieces.append(Tensor(np.zeros((cfg.L - n_loc, cfg.d), dtype=dtype)))
        mask.extend([False] * (cfg.L - n_loc))
        kinds.extend(("pad", None) for _ in range(cfg.L - n_loc))
    return pieces, mask, kinds


def _pair_tokens(params, cfg, a, b, dtype):
    from rrt import autograd as ag

    d = cfg.d
    pieces = [ag.reshape(params["tok.cls"], (1, d))]
    mask = [True]
    kinds: list[tuple[str, Optional[int]]] = [("cls", None)]

    pa, ma, ka = _image_tokens(params, cfg, a, barred=False, dtype=dtype)
    pieces += pa
    mask += ma
    kinds += ka

    pieces.append(ag.reshape(params["tok.sep"], (1, d)))
    mask.append(True)
    kinds.append(("sep", None))

    pb, mb, kb = _image_tokens(params, cfg, b, barred=True, dtype=dtype)
    pieces += pb
    mask += mb
    kinds += kb

    return ag.concat(pieces, axis=0), np.asarray(mask, dtype=bool), kinds


def assemble_input(params, cfg, a, b) -> TokenSequence:
    """The pair token sequence for (a, b), built one image at a time by
    concatenating per-token pieces; records must be normalized.  The
    reference for rrt.model._assemble_batch, with its own record checks."""
    dtype = params["tok.cls"].dtype
    tokens, mask, kinds = _pair_tokens(params, cfg, a, b, dtype)
    return TokenSequence(tokens, mask, kinds)


def composed_pair_logit(params, cfg, a, b):
    """The logit of one ordered pair: assemble_input's tokens (zero pads)
    through layers composed from composed_mha_forward, affine, relu and
    layer_norm, each over all T rows, then the head on the CLS row.  The
    reference for rrt.model.forward_pair_logits."""
    from rrt import autograd as ag
    from rrt.model import LAYERNORM_EPS

    seq = assemble_input(params, cfg, a, b)
    z, mask = ag.reshape(seq.tokens, (1, len(seq.kinds), cfg.d)), seq.valid_mask[None]
    for i in range(cfg.layers):
        layer = params.layer(i)
        att, _ = composed_mha_forward(layer, cfg, z, mask)
        zbar = ag.layer_norm(ag.add(z, att), layer.ln1_g, layer.ln1_b, LAYERNORM_EPS)
        body = ag.affine(relu(ag.affine(zbar, layer.w1, layer.b1)), layer.w2, layer.b2)
        if cfg.mlp_residual:
            body = ag.add(zbar, body)
        z = ag.layer_norm(body, layer.ln2_g, layer.ln2_b, LAYERNORM_EPS)
    return float(z.data[0, 0] @ params["head.w"].data + params["head.b"].data[0])


# -- RANSAC homography: one normalized-DLT SVD fit per iteration -------------

_COLLINEAR_EPS = 1e-6
_W_EPS = 1e-12


def _similarity_T(pts):
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


def _dlt_batch(pa, pb):
    it, m, _ = pa.shape
    x, y = pa[..., 0], pa[..., 1]
    u, v = pb[..., 0], pb[..., 1]
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    r1 = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=-1)
    r2 = np.stack([zero, zero, zero, -x, -y, -one, v * x, v * y, v], axis=-1)
    A = np.concatenate([r1, r2], axis=1)
    _, _, vt = np.linalg.svd(A)
    return vt[..., -1, :].reshape(it, 3, 3)


def _noncollinear(pts):
    idx = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ok = np.ones(pts.shape[0], dtype=bool)
    for i, j, k in idx:
        e1 = pts[:, j] - pts[:, i]
        e2 = pts[:, k] - pts[:, i]
        area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        ok &= area > _COLLINEAR_EPS
    return ok


def _cross(u, v):
    return u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]


def _projective_basis(pts):
    h = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2)  # [U,4,3]
    adj = np.stack([_cross(h[:, 1], h[:, 2]), _cross(h[:, 2], h[:, 0]), _cross(h[:, 0], h[:, 1])], axis=1)
    lam = (adj @ h[:, 3, :, None])[..., 0]
    return h[:, :3].transpose(0, 2, 1), adj, lam


def _four_point_homography(pa, pb):
    _, adj_a, la = _projective_basis(pa)
    mb, _, lb = _projective_basis(pb)
    w = lb * la[:, [1, 2, 0]] * la[:, [2, 0, 1]]
    H = (mb * w[:, None, :]) @ adj_a
    return H / np.linalg.norm(H, axis=(1, 2), keepdims=True)


def four_point_hypotheses(pa, pb):
    """The stacked form of `rrt.baselines._hypotheses`, on [U,4,2] point
    sets per side: Hartley normalization and the collinearity test on
    [U,4,2] stacks, then the projective-basis fit on [U,4,3] homogeneous
    points, only for the sets that pass.  Returns (H [V,3,3], valid [U]):
    valid marks the V sets kept, H their homographies in raw coordinates."""
    Ta, _, pa_n, va = _similarity_T(pa)
    _, Tb_inv, pb_n, vb = _similarity_T(pb)
    valid = va & vb & _noncollinear(pa_n) & _noncollinear(pb_n)
    H = Tb_inv[valid] @ _four_point_homography(pa_n[valid], pb_n[valid]) @ Ta[valid]
    fit = np.isfinite(H).all(axis=(1, 2)) & (np.abs(H[:, 2, 2]) > _W_EPS)
    valid[valid] = fit
    return H[fit], valid


def _project(H, pts):
    ph = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    q = np.einsum("hij,nj->hni", H, ph)
    w = q[..., 2]
    good = np.abs(w) > _W_EPS
    w = np.where(good, w, 1.0)
    return q[..., :2] / w[..., None], good


def _symmetric_errors(H, pts_a, pts_b):
    det = np.linalg.det(H)
    invertible = np.abs(det) > 1e-12
    Hsafe = np.where(invertible[:, None, None], H, np.eye(3))
    Hinv = np.linalg.inv(Hsafe)
    fwd, ok_f = _project(H, pts_a)
    bwd, ok_b = _project(Hinv, pts_b)
    e = np.sqrt(((fwd - pts_b[None]) ** 2).sum(-1) + ((bwd - pts_a[None]) ** 2).sum(-1))
    return np.where(ok_f & ok_b & invertible[:, None], e, np.inf)


def ransac_homography_svd(
    pts_a, pts_b, iterations=2000, inlier_threshold=3.0, seed=0, sample_indices=None
):
    """The per-iteration RANSAC that `rrt.baselines.ransac_homography`
    replaced: every drawn quadruple, repeats included, is fitted by its own
    normalized-DLT SVD and scored against every match; ties resolve to the
    earliest iteration; the winner's consensus set is refit by least-squares
    DLT.  Returns (H, inliers, mask) like the library function."""
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    n = len(pts_a)
    if len(pts_b) != n:
        raise ValueError("point sets must align")
    empty = np.zeros(n, dtype=bool)
    if n < 4:
        return None, 0, empty
    if inlier_threshold <= 0:
        raise ValueError("inlier_threshold must be positive")

    if sample_indices is None:
        rng = np.random.default_rng(seed)
        sample_indices = np.argsort(rng.random((iterations, n)), axis=1)[:, :4]
    samples_a = pts_a[sample_indices]
    samples_b = pts_b[sample_indices]

    Ta, _, pa_n, va = _similarity_T(samples_a)
    Tb, Tb_inv, pb_n, vb = _similarity_T(samples_b)
    valid = va & vb & _noncollinear(pa_n) & _noncollinear(pb_n)
    if not np.any(valid):
        return None, 0, empty

    Hn = _dlt_batch(pa_n, pb_n)
    H = Tb_inv @ Hn @ Ta
    finite = np.isfinite(H).all(axis=(1, 2))
    scale_ok = np.abs(H[:, 2, 2]) > _W_EPS
    valid &= finite & scale_ok
    if not np.any(valid):
        return None, 0, empty
    H = np.where(valid[:, None, None], H, np.eye(3))

    errors = _symmetric_errors(H, pts_a, pts_b)
    inliers = errors < inlier_threshold
    counts = np.where(valid, inliers.sum(axis=1), -1)
    best = int(np.argmax(counts))
    if counts[best] < 4:
        return None, 0, empty
    best_mask = inliers[best]
    best_H = H[best] / H[best, 2, 2]

    ia = pts_a[best_mask][None]
    ib = pts_b[best_mask][None]
    Ta1, _, pa1, va1 = _similarity_T(ia)
    Tb1, Tb1_inv, pb1, vb1 = _similarity_T(ib)
    if va1[0] and vb1[0]:
        Hr = (Tb1_inv @ _dlt_batch(pa1, pb1) @ Ta1)[0]
        if np.isfinite(Hr).all() and abs(Hr[2, 2]) > _W_EPS:
            err = _symmetric_errors(Hr[None], pts_a, pts_b)[0]
            mask = err < inlier_threshold
            if mask.sum() >= 4:
                return Hr / Hr[2, 2], int(mask.sum()), mask
    return best_H, int(best_mask.sum()), best_mask


def first_draws_lexsort(draws):
    """Indices of the draws [k, 5] (pair, 4 match indices) that are the first
    of their pair to pick their set of 4 matches, in draw order: a stable
    5-key lexsort of (pair, sorted set), the reference for the packed-key
    `rrt.baselines._first_draws`."""
    keys = np.concatenate([draws[:, :1], np.sort(draws[:, 1:], axis=1)], axis=1)
    order = np.lexsort(keys.T[::-1])  # stable, so each set's draws stay in draw order
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[new])


def mutual_nn_matches_loop(locals_a, locals_b, ratio=None):
    """The per-local loop that `rrt.baselines.mutual_nn_matches` replaced:
    (i, j, distance) for every i whose nearest j in B has i as its nearest
    in A, both passing the ratio test when one is given, sorted by i."""
    a = np.asarray(locals_a, dtype=np.float64)
    b = np.asarray(locals_b, dtype=np.float64)
    d2 = (a * a).sum(1, keepdims=True) + (b * b).sum(1, keepdims=True).T - 2.0 * (a @ b.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    nn_b = dist.argmin(axis=1)
    nn_a = dist.argmin(axis=0)
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
            out.append((i, j, float(dist[i, j])))
    return out


def gv_score_svd(query, candidate, cfg):
    """`gv_score` (below) over `ransac_homography_svd`: the per-local loop
    matcher, the same per-pair seed and the reference RANSAC."""
    la, lb = query.vecs, candidate.vecs
    if la.shape[0] == 0 or lb.shape[0] == 0:
        return 0
    matches = mutual_nn_matches_loop(la, lb, ratio=cfg.ratio)
    if len(matches) < 4:
        return 0
    pa = query.uv[[i for i, _, _ in matches]]
    pb = candidate.uv[[j for _, j, _ in matches]]
    seed = int(np.random.SeedSequence([cfg.seed, query.id, candidate.id]).generate_state(1)[0])
    _, count, _ = ransac_homography_svd(
        pa, pb, iterations=cfg.iterations, inlier_threshold=cfg.inlier_threshold, seed=seed
    )
    return count


# -- per-local descriptor records ------------------------------------------
#
# The data path from before records were columnar: one (vec, u, v, scale
# index) tuple per local, parsed, generated and normalized one local at a
# time.  The reference for rrt.data's one-array-per-field code.


def load_dataset_per_local(path, max_locals=None):
    """Parse a `.rrtd` file one field at a time.  Returns (records,
    (d_g_raw, d_l, n_scales, scale_values)), a record being (id, label,
    global, [(vec, u, v, scale_index), ...]); raises DataFormatError at the
    offset of the first field that is cut short, of the first NaN or
    infinite position, or of the first bad scale byte."""
    import math
    import struct

    from rrt.errors import DataFormatError

    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise DataFormatError(
                f"truncated file: wanted {n} bytes, {len(data) - off} left", offset=off
            )
        off += n
        return data[off - n : off]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def floats(n):
        return np.frombuffer(take(4 * n), dtype="<f4").copy()

    if take(4) != b"RRTD":
        raise DataFormatError("bad magic", offset=0)
    if unpack("<I")[0] != 1:
        raise DataFormatError("unsupported version", offset=4)
    d_g_raw, d_l, n_scales = unpack("<IHB")
    scale_values = tuple(float(x) for x in floats(n_scales))
    (n_images,) = unpack("<I")
    records = []
    for _ in range(n_images):
        rid, label = unpack("<II")
        g = floats(d_g_raw)
        (n_loc,) = unpack("<H")
        locs = []
        for _ in range(n_loc):
            vec = floats(d_l)
            u, v, sidx = unpack("<ffB")
            for name, x, at in (("u", u, off - 9), ("v", v, off - 5)):
                if not math.isfinite(x):
                    raise DataFormatError(f"non-finite {name} position {x}", offset=at)
            if sidx >= n_scales:
                raise DataFormatError(
                    f"scale index {sidx} outside [0, {n_scales})", offset=off - 1
                )
            locs.append((vec, u, v, sidx))
        if max_locals is not None:
            locs = locs[:max_locals]
        records.append((rid, label, g, locs))
    if off != len(data):
        raise DataFormatError(f"{len(data) - off} trailing bytes after the last record", offset=off)
    return records, (d_g_raw, d_l, n_scales, scale_values)


def synth_generate_per_local(cfg):
    """rrt.data.synth_generate drawing the same random stream, building each
    local as its own (vec, u, v, scale index) tuple.  Returns (queries,
    gallery) in the record tuple form of load_dataset_per_local."""
    from rrt.data import _draw_part_prototypes, _unit_rows

    rng = np.random.default_rng(cfg.seed)
    parts = _draw_part_prototypes(cfg, rng)
    global_protos = np.empty((cfg.n_instances, cfg.d_g_raw))
    for i in range(cfg.n_instances):
        if i % 2 == 1 and i < 2 * cfg.global_confusion_pairs:
            global_protos[i] = global_protos[i - 1]
        else:
            global_protos[i] = _unit_rows(rng, cfg.d_g_raw)
    queries, gallery = [], []
    next_id = 0
    for inst in range(cfg.n_instances):
        for j in range(cfg.images_per_instance):
            part_ids = rng.choice(cfg.parts_per_instance, size=cfg.parts_per_image, replace=False)
            true_locals = parts[inst, part_ids].astype(np.float64)
            n_distract = cfg.locals_per_image - cfg.parts_per_image
            distract = (
                _unit_rows(rng, (n_distract, cfg.d_l)) if n_distract else np.zeros((0, cfg.d_l))
            )
            vecs = np.concatenate([true_locals, distract], axis=0)
            vecs = vecs + cfg.local_noise * rng.standard_normal(vecs.shape)
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            vecs = vecs[rng.permutation(cfg.locals_per_image)]
            uv = rng.uniform(0.0, cfg.canvas, size=(cfg.locals_per_image, 2))
            sidx = rng.integers(0, cfg.n_scales, size=cfg.locals_per_image)
            locs = [
                (vecs[k].astype(np.float32), float(uv[k, 0]), float(uv[k, 1]), int(sidx[k]))
                for k in range(cfg.locals_per_image)
            ]
            g = global_protos[inst] + cfg.global_noise * rng.standard_normal(cfg.d_g_raw)
            g = (g / np.linalg.norm(g)).astype(np.float32)
            (queries if j < cfg.queries_per_instance else gallery).append((next_id, inst, g, locs))
            next_id += 1
    return queries, gallery


def l2_normalize_one(vec):
    """Unit-norm copy of one vector by its own np.linalg.norm, the per-vector
    normalization rrt.data.l2_normalize_rows must reproduce byte for byte."""
    v = np.asarray(vec)
    return (v / float(np.linalg.norm(v))).astype(v.dtype, copy=False)


def normalize_per_local(records):
    """Normalize every local and global, one vector at a time."""
    return [
        (rid, label, l2_normalize_one(g), [(l2_normalize_one(vec), u, v, s) for vec, u, v, s in locs])
        for rid, label, g, locs in records
    ]


def per_local_columns(record):
    """(vecs, uv, scale_idx) of a per-local record tuple, in the dtypes of
    rrt.data.ImageRecord, for byte comparison."""
    _, _, _, locs = record
    n = len(locs)
    d_l = len(locs[0][0]) if n else 0
    return (
        np.array([vec for vec, _, _, _ in locs], dtype=np.float32).reshape(n, d_l),
        np.array([[u, v] for _, u, v, _ in locs], dtype=np.float32).reshape(n, 2),
        np.array([s for _, _, _, s in locs], dtype=np.uint8),
    )


# -- single-item forms of batched library code -----------------------------
#
# Entry points no library caller needs: one pair, one candidate, or an
# autograd op the model does not use.  Tests check the batched code against
# them and gradcheck them like any other op.


def param_count(cfg):
    """Exact learnable-scalar count for a configuration."""
    from rrt.model import param_shapes

    return sum(int(np.prod(shape)) for _, shape, _ in param_shapes(cfg))


def scale(a, s):
    """a times the constant s, cast to a's dtype."""
    from rrt.autograd import _make

    c = a.data.dtype.type(s)

    def grad_fn(g):
        return (g * c,)

    return _make(a.data * c, (a,), grad_fn)


def mul(a, b):
    """Elementwise a * b, broadcasting; the model keeps pads inert by the key
    mask alone, so no library path multiplies two tensors."""
    from rrt.autograd import _make, _unbroadcast

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(a.data * b.data, (a, b), grad_fn)


def tsum(a):
    """Sum of every element, as a scalar tensor."""
    from rrt.autograd import _make

    def grad_fn(g):
        return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True),)

    return _make(a.data.sum(), (a,), grad_fn)


def tmean(a):
    """tsum, then a 1/n scale: the reduction order rrt.autograd.bce_with_logits
    must reproduce byte for byte."""
    return scale(tsum(a), 1.0 / a.data.size)


def readout(out, w):
    """sum(out * w) for a fixed array w: a scalar loss whose gradient in out
    is w, to backpropagate a tensor that is not itself a loss."""
    from rrt.autograd import Tensor

    return tsum(mul(out, Tensor(w)))


def bce_per_element(logit, target):
    """Per-element binary cross entropy on logits, in the stable log-sum-exp
    form; tmean of it is the reference for rrt.autograd.bce_with_logits."""
    from rrt.autograd import _make, _sigmoid

    t = np.asarray(target, dtype=logit.data.dtype)
    z = logit.data

    def grad_fn(g):
        return (g * (_sigmoid(z) - t),)

    return _make(np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z))), (logit,), grad_fn)


def relu(a):
    from rrt.autograd import _make

    def grad_fn(g):
        return (g * (a.data > 0),)

    return _make(np.maximum(a.data, 0), (a,), grad_fn)


def sigmoid(a):
    from rrt.autograd import _make, _sigmoid

    s = _sigmoid(a.data)

    def grad_fn(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), grad_fn)


def stack(tensors, axis=0):
    from rrt.autograd import _make

    tensors = list(tensors)

    def grad_fn(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _make(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), grad_fn)


def score_pair(params, cfg, a, b):
    """(logit, sigmoid similarity) of one ordered pair, scored in a batch of
    its own without grad."""
    from rrt import autograd as ag
    from rrt.model import forward_pair_logits

    with ag.no_grad():
        logits = forward_pair_logits(params, cfg, [(a, b)])
    return float(logits.data[0]), float(ag._sigmoid(logits.data)[0])


def evaluate_loss(records, params, model_cfg, pairs, chunk=256):
    """Mean binary cross entropy of the model's logits over a fixed pair
    list, in float64; changes nothing."""
    from rrt import autograd as ag
    from rrt.model import forward_pair_logits

    if not pairs:
        raise ValueError("evaluate_loss needs at least one pair")
    by_id = {r.id: r for r in records}
    total = 0.0
    with ag.no_grad():
        for start in range(0, len(pairs), chunk):
            block = pairs[start : start + chunk]
            rec_pairs = [(by_id[p.anchor_id], by_id[p.partner_id]) for p in block]
            t = np.array([float(p.label) for p in block])
            logits = forward_pair_logits(params, model_cfg, rec_pairs)
            z = logits.data.astype(np.float64)
            total += float((np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))).sum())
    return total / len(pairs)


def gv_score(query, candidate, cfg):
    """rrt.baselines.gv_scores for one candidate."""
    from rrt.baselines import gv_scores

    return gv_scores(query, [candidate], cfg)[0]
