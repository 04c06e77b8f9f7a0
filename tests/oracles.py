"""Brute-force reference implementations, written independently of the
library code paths they check.  Deliberately naive: plain loops, full sorts,
quadratic scans."""

from __future__ import annotations

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


def composed_mha_forward(layer, cfg, z, mask, return_attn=False):
    """Multi-head attention composed from autograd primitives: affine, head
    split, q.k^T matmul, scale, masked softmax, P.v matmul, head merge, output
    affine.  The reference for the fused attention op, in the same op order,
    so float32 outputs must match it bit for bit."""
    from rrt import autograd as ag

    squeeze = z.ndim == 2
    if squeeze:
        z = ag.reshape(z, (1,) + tuple(z.shape))
        mask = np.asarray(mask, dtype=bool)[None, :]
    B, T, d = z.shape
    h, dh = cfg.h, cfg.d_h

    def heads(t):
        return ag.swapaxes(ag.reshape(t, (B, T, h, dh)), 1, 2)  # [B,h,T,dh]

    q = heads(ag.affine(z, layer.wq, layer.bq))
    k = heads(ag.affine(z, layer.wk, layer.bk))
    v = heads(ag.affine(z, layer.wv, layer.bv))

    logits = ag.scale(ag.matmul(q, ag.swapaxes(k, 2, 3)), 1.0 / np.sqrt(dh))
    attn = ag.masked_softmax_lastdim(logits, mask[:, None, None, :])
    ctx = ag.reshape(ag.swapaxes(ag.matmul(attn, v), 1, 2), (B, T, d))
    out = ag.affine(ctx, layer.wo, layer.bo)
    if squeeze:
        out = ag.reshape(out, (T, d))
    return out, (attn.data if return_attn else None)
