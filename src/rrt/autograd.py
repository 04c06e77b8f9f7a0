"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run tape on top of numpy buffers: every op records its parents and
a closure mapping the output gradient to parent gradients.  Graphs are single
use; ``backward`` frees the tape as it walks it.  float32 is the working
precision, float64 is available for verification runs (ops inherit the dtype
of their inputs).  The ops are the ones the model and its training loop
run; the loss, ``bce_with_logits``, returns the batch mean directly.

Thread-safety contract: tensors are immutable after creation except for
gradient accumulation and in-place optimizer updates, so concurrent read-only
forward passes over shared tensors are safe; anything that writes ``grad`` or
``data`` needs exclusive access.  The grad mode is per thread: ``no_grad``
switches recording off for the calling thread only, so worker threads may
enter and leave it in any interleaving.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "matmul",
    "affine",
    "mlp",
    "reshape",
    "concat",
    "embedding",
    "masked_softmax_lastdim",
    "attention",
    "layer_norm",
    "bce_with_logits",
]

_FLOAT_DTYPES = (np.float32, np.float64)

# Logits budget of one attention tile, in floats (1 MB in float32), so that
# Q.K^T, the softmax passes and P.V over a tile run from cache.  A slice
# whose T x T logits exceed it runs in blocks of query rows (at T=1004, four
# blocks of 251 rows); at T=36 a 2^20 budget puts a whole 100-pair batch
# (4 MB) in one tile and measured slower.  One tile of scaled queries is the
# forward's scratch, and one tile of logits too where the probabilities are
# not kept; where they are, each tile's logits are a view of the kept
# [B, h, Tq, T] probabilities.
ATTENTION_TILE_FLOATS = 1 << 18

# Hidden-activation budget of one MLP row block, in floats (2048 rows at
# d_c=1024).  At paper scale, 2048-row blocks ran the MLP in 97 ms against
# 164 ms for whole [B*T, d_c] buffers, and 256-row blocks were about 9%
# slower than 2048: below this size the gemms lose more than the cache wins.
MLP_BLOCK_FLOATS = 1 << 21

class _GradMode(threading.local):
    """Whether ops record on the tape; every thread starts with it on."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables tape recording in the calling thread
    (inference fast path); other threads keep their own mode."""

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._grad_fn: Optional[Callable] = None
        self._consumed = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{grad})"

    # -- graph management ----------------------------------------------

    def backward(self):
        """Accumulate gradients into every requires_grad leaf below self.

        The loss must be a scalar produced by a recorded graph.  The tape is
        freed during the walk, so a second call without a fresh forward pass
        raises.
        """
        if self._consumed:
            raise RuntimeError("backward() already ran on this graph; re-run the forward pass")
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        if self._grad_fn is None and not self.requires_grad:
            raise RuntimeError("backward() on a tensor with no recorded graph")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._grad_fn is not None:
                for parent, pg in zip(node._parents, node._grad_fn(g)):
                    if pg is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            elif node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            # Tensors that neither record an op nor require grad absorb
            # nothing; their incoming gradient is dropped.

        for node in topo:
            node._grad_fn = None
            node._parents = ()
            node._consumed = True

    # -- indexing ------------------------------------------------------

    def __getitem__(self, idx):
        out = self.data[idx]

        def grad_fn(g, idx=idx, shape=self.data.shape, dtype=self.data.dtype):
            full = np.zeros(shape, dtype=dtype)
            full[idx] = g  # basic indexing selects disjoint elements
            return (full,)

        return _make(out, (self,), grad_fn)


def _records(parents: tuple) -> bool:
    """Whether an op over these parents is recorded on the tape."""
    return _grad_mode.enabled and any(p.requires_grad or p._grad_fn is not None for p in parents)


def _make(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = False
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise and structural ops -------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must have ndim >= 2, batch dims broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs matrices, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data

    def grad_fn(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _make(data, (a, b), grad_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.data.shape),)

    return _make(data, (a,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tuple(tensors), grad_fn)


def _check_affine(x: np.ndarray, w: np.ndarray, op: str) -> None:
    if x.ndim < 2:
        raise ValueError(f"{op} needs a matrix input, got shape {x.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"{op} dimensions disagree: {x.shape} @ {w.shape}")


def _affine_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """(gx, gw, gb) of x @ w + b for the output gradient g, with every
    leading dimension of x and g folded into rows: each gradient is one 2-D
    product or sum over all of them."""
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    # contiguous copy of the (small) transposed weight dodges numpy's
    # slow strided-matmul path
    gx = (g2 @ np.ascontiguousarray(w.T)).reshape(x.shape)
    gw = np.dot(x2.T, g2)
    gb = g2.sum(axis=0)
    return gx, gw, gb


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b fused into one node (w: [in, out], b: [out])."""
    _check_affine(x.data, w.data, "affine")
    data = x.data @ w.data
    data += b.data

    def grad_fn(g):
        return _affine_grads(x.data, w.data, g)

    return _make(data, (x, w, b), grad_fn)


def _row_blocks(n: int, rows: int) -> list[slice]:
    """Slices covering range(n) in the fewest blocks of at most rows (at
    least one row), with sizes differing by at most one, so no block is a
    sliver.  Each output row of a blocked product gets the same arithmetic
    as in one whole product where a gemm row's bytes do not depend on the
    call's row count, as on OpenBLAS's SkylakeX kernels and not its Haswell
    ones; a one-row block takes BLAS's matrix-vector path, whose rounding can
    differ on any kernel."""
    count = max(1, -(-n // max(rows, 1)))
    cuts = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _spans(B: int, h: int, tile: int, masked: np.ndarray) -> list[tuple[slice, slice]]:
    """(pairs, heads) index of each tile of at most `tile` slices of the B*h
    axis: whole pairs when tile >= h, else runs of one pair's heads.  A tile
    is also cut wherever two consecutive pairs differ in masked (whether the
    pair has a masked key), so no tile holds both kinds of pair."""
    pairs, heads = max(1, tile // h), min(tile, h)
    edges = [0, *(b for b in range(1, B) if masked[b] != masked[b - 1]), B]
    return [(np.s_[b : min(b + pairs, stop)], np.s_[c : c + heads])
            for start, stop in zip(edges, edges[1:])
            for b in range(start, stop, pairs) for c in range(0, h, heads)]


def _longest(blocks: list[slice]) -> int:
    return max(s.stop - s.start for s in blocks)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one op (w1: [in, hidden], w2:
    [hidden, out]), with the gradients of the composed affine, relu, affine.

    The flattened rows run in blocks of at most MLP_BLOCK_FLOATS hidden
    floats: each block's hidden activations are built, biased and rectified
    in place, then fed to the second product while they are still in cache.
    Without recording, one block's hidden buffer is all that exists; with
    recording, the post-ReLU hidden is kept for the backward (h > 0 is the
    ReLU mask, the same test as on the pre-activation).
    """
    _check_affine(x.data, w1.data, "mlp")
    _check_affine(w1.data, w2.data, "mlp")
    lead, d_in = x.data.shape[:-1], x.data.shape[-1]
    d_c, d_out = w2.data.shape
    xf = x.data.reshape(-1, d_in)
    n = xf.shape[0]
    dtype = np.result_type(x.data, w1.data, b1.data, w2.data, b2.data)
    parents = (x, w1, b1, w2, b2)
    recording = _records(parents)
    blocks = _row_blocks(n, MLP_BLOCK_FLOATS // d_c)

    out = np.empty((n, d_out), dtype=dtype)
    hidden = np.empty((n if recording else _longest(blocks), d_c), dtype=dtype)
    for rows in blocks:
        hb = hidden[rows] if recording else hidden[: rows.stop - rows.start]
        np.matmul(xf[rows], w1.data, out=hb)
        hb += b1.data
        np.maximum(hb, 0, out=hb)
        ob = out[rows]
        np.matmul(hb, w2.data, out=ob)
        ob += b2.data

    def grad_fn(g):
        gh, gw2, gb2 = _affine_grads(hidden, w2.data, g)
        gx, gw1, gb1 = _affine_grads(x.data, w1.data, gh * (hidden > 0))
        return gx, gw1, gb1, gw2, gb2

    return _make(out.reshape(lead + (d_out,)), parents, grad_fn)


def embedding(table: Tensor, indices) -> Tensor:
    """Row lookup into a learnable table; gradients scatter-add."""
    idx = np.asarray(indices, dtype=np.intp)
    data = table.data[idx]

    def grad_fn(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, (table,), grad_fn)


# -- normalization, attention softmax, loss ------------------------------


def _masked_exp_(z: np.ndarray, mask, exp) -> None:
    """In place: z <- exp(z - rowmax) over its last axis, restricted to
    mask==True positions (mask broadcasts against z; None means all valid).

    Masked positions get exactly zero weight (exp(-inf) = 0), so a row with
    no valid position is all zeros.  Stabilized by subtracting the max over
    valid entries.  exp is np.exp, or np.exp2 for logits already scaled by
    log2(e).
    """
    if mask is not None:
        np.copyto(z, -np.inf, where=~mask)
    rowmax = z.max(axis=-1, keepdims=True)
    rowmax[~np.isfinite(rowmax)] = 0.0
    np.subtract(z, rowmax, out=z)
    exp(z, out=z)


def masked_softmax_lastdim(x: Tensor, mask) -> Tensor:
    """Softmax over the last axis restricted to mask==True positions; see
    _masked_exp_.  Valid positions sum to one per row, and a row with no
    valid position stays all zeros (padded rows must be inert, not NaN)."""
    p = np.array(x.data, copy=True)
    _masked_exp_(p, np.asarray(mask, dtype=bool), np.exp)
    denom = p.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    np.divide(p, denom, out=p)

    def grad_fn(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _make(p, (x,), grad_fn)


def _heads(rows: np.ndarray, B: int, h: int) -> np.ndarray:
    """The [B, h, n, d_h] head view of [B*n, h*d_h] token rows, pair by pair:
    head c of a token is its c-th run of d_h columns."""
    n, d = rows.shape[0] // B, rows.shape[1]
    return rows.reshape(B, n, h, d // h).transpose(0, 2, 1, 3)


def _tile(flat: np.ndarray, shape) -> np.ndarray:
    """The leading part of a flat scratch buffer, viewed as shape."""
    return flat[: int(np.prod(shape))].reshape(shape)


def attention(q: Tensor, k: Tensor, v: Tensor, mask, h: int, return_probs: bool = False):
    """Masked multi-head scaled dot-product attention, softmax(q.k^T /
    sqrt(d_h)).v per head, as one op with a hand-written backward.

    mask is bool [B, T] and marks each pair's valid keys, for every head.  q
    holds Tq query rows and k, v T key and value rows of width d per pair,
    pair after pair, with Tq <= T: the queries are any Tq rows (a caller
    that needs only the leading rows of a self-attention passes just those),
    the keys and values every token.  Head c reads columns c*d_h to
    (c+1)*d_h of each row, d_h = d / h.  Returns (context rows [B*Tq, d],
    probabilities [B, h, Tq, T] or None); the probabilities are returned
    only when return_probs is set.  The heads are views of the rows, so no
    copy splits or merges them.

    The flattened B*h axis runs in tiles of consecutive slices whose Tq x T
    logits stay within ATTENTION_TILE_FLOATS, never splitting a pair's heads
    across two tiles unless one pair alone exceeds the budget, and never
    holding a pair with a masked key beside one without, so the exponential
    base (below) a pair gets depends on its own keys only.  A slice whose
    logits alone exceed it runs in blocks of query rows.

    Every block runs in FlashAttention form (FlashAttention-2, arXiv
    2307.08691): its queries, copied into a small scratch, carry the softmax
    scale, so the logits need no scale pass; the row sums come from a
    product with a ones vector, which BLAS runs faster than numpy's sum over
    the last axis; and the [rows, d_h] context is divided by the row sums
    after P.v instead of the [rows, T] weights before it (deferred
    normalisation, Milakov & Gimelshein, arXiv 1805.02867).  A tile with no
    masked key works in base 2: its scale carries log2(e) and the logits
    take np.exp2, which is faster than np.exp.  A tile with masked keys
    keeps base e, because np.exp2 runs a slow path on every input below
    -126, the masked keys' -inf among them.  Where the probabilities are
    kept (recording, for the backward, or return_probs), each block writes
    its exponentials into its view of the kept [B, h, Tq, T] buffer and
    divides them by the row sums after P.v; otherwise no such buffer exists.
    So the context has the same bytes whether or not the probabilities are
    kept, and differs from the composed path's by float32 rounding only.
    A block gives the bytes of the op on its query rows alone, not those of
    its whole slice: the row sums' matrix-vector product rounds by the
    call's row count on every kernel.
    """
    mask = np.asarray(mask, dtype=bool)
    if not (
        mask.ndim == 2 and mask.size and q.ndim == 2 and k.shape == v.shape == (mask.size, q.shape[1])
        and q.shape[1] % h == 0 and q.shape[0] % mask.shape[0] == 0
        and 0 < q.shape[0] // mask.shape[0] <= mask.shape[1]
    ):
        raise ValueError(
            "attention needs q [B*Tq, d] and k, v of one [B*T, d] shape for a [B, T] mask, "
            f"with h={h} dividing d and Tq <= T, got {q.shape}, {k.shape}, {v.shape}, {mask.shape}"
        )
    B, T = mask.shape
    Tq, dh = q.shape[0] // B, q.shape[1] // h
    dtype = q.dtype
    scale = dtype.type(1.0 / np.sqrt(dh))
    qd, kd, vd = (_heads(x.data, B, h) for x in (q, k, v))
    tile = max(1, ATTENTION_TILE_FLOATS // (Tq * T))  # slices per tile
    spans = _spans(B, h, tile, ~mask.all(axis=1))
    rows = _row_blocks(Tq, ATTENTION_TILE_FLOATS // T)  # query rows per block
    tile_floats = min(tile, B * h) * Tq * T
    recording = _records((q, k, v))

    ctx = np.empty(q.shape, dtype=dtype)
    ctx_h = _heads(ctx, B, h)
    probs = np.empty((B, h, Tq, T), dtype=dtype) if (recording or return_probs) else None
    buf = None if probs is not None else np.empty(tile_floats // Tq * _longest(rows), dtype=dtype)
    qbuf = np.empty(min(tile, B * h) * _longest(rows) * dh, dtype=dtype)
    scale2 = dtype.type(np.log2(np.e) / np.sqrt(dh))
    ones = np.ones((T, 1), dtype=dtype)
    for bs, hs in spans:
        kt, vt = kd[bs, hs].swapaxes(-1, -2), vd[bs, hs]
        m = mask[bs]
        m = None if m.all() else m[:, None, None, :]
        exp, qscale = (np.exp2, scale2) if m is None else (np.exp, scale)
        for rs in rows:
            qt, c = qd[bs, hs, rs], ctx_h[bs, hs, rs]
            qt = np.multiply(qt, qscale, out=_tile(qbuf, qt.shape))
            p = _tile(buf, qt.shape[:-1] + (T,)) if probs is None else probs[bs, hs, rs]
            np.matmul(qt, kt, out=p)
            _masked_exp_(p, m, exp)
            denom = np.matmul(p, ones)  # the row sums, as a BLAS matrix-vector product
            denom[denom == 0.0] = 1.0
            np.matmul(p, vt, out=c)
            np.divide(c, denom, out=c)
            if probs is not None:
                np.divide(p, denom, out=p)

    def grad_fn(g):
        gq, gk, gv = (np.empty(x.shape, dtype=dtype) for x in (q, k, v))
        g_h, gq_h, gk_h, gv_h = (_heads(x, B, h) for x in (g, gq, gk, gv))
        buf = np.empty(tile_floats, dtype=dtype)
        for bs, hs in spans:
            p, gt = probs[bs, hs], g_h[bs, hs]
            dp = _tile(buf, p.shape)
            np.matmul(p.swapaxes(-1, -2), gt, out=gv_h[bs, hs])
            np.matmul(gt, vd[bs, hs].swapaxes(-1, -2), out=dp)
            inner = (dp * p).sum(axis=-1, keepdims=True)
            np.subtract(dp, inner, out=dp)
            np.multiply(p, dp, out=dp)
            np.multiply(dp, scale, out=dp)  # dp now holds dS, the logits' gradient
            np.matmul(dp, kd[bs, hs], out=gq_h[bs, hs])
            np.matmul(dp.swapaxes(-1, -2), qd[bs, hs], out=gk_h[bs, hs])
        return gq, gk, gv

    out = _make(ctx, (q, k, v), grad_fn)
    return out, (probs if return_probs else None)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each last-axis vector to zero mean / unit (biased) variance,
    then apply a learnable gain and bias."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv  # owned temporary, safe to reuse in place
    data = xhat * gain.data + bias.data

    def grad_fn(g):
        h = g * gain.data
        hm = h.mean(axis=-1, keepdims=True)
        hx = (h * xhat).mean(axis=-1, keepdims=True)
        gx = (inv * (h - hm - xhat * hx)).astype(x.data.dtype, copy=False)
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead).reshape(gain.data.shape)
        gbias = g.sum(axis=lead).reshape(bias.data.shape)
        return gx, ggain, gbias

    return _make(data.astype(x.data.dtype, copy=False), (x, gain, bias), grad_fn)


def bce_with_logits(logit: Tensor, target) -> Tensor:
    """Batch-mean binary cross entropy on logits, in the stable log-sum-exp
    form: a scalar, the sum of the per-element losses times 1/n.  target
    entries must be 0 or 1.  The gradient of logit i is (sigma(z_i) - t_i)
    / n, with the output gradient scaled by 1/n first, as the per-element
    loss followed by a sum and a 1/n scale would give it."""
    t = np.asarray(target, dtype=logit.data.dtype)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("bce_with_logits targets must be 0 or 1")
    z = logit.data
    per = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    inv_n = z.dtype.type(1.0 / per.size)

    def grad_fn(g):
        return (_unbroadcast((g * inv_n) * (_sigmoid(z) - t), z.shape),)

    return _make(per.sum() * inv_n, (logit,), grad_fn)
