"""Transformer pair scorer over global + local descriptors.

A pair of images becomes one token sequence

    [CLS; g(A); locals(A) 1..L; SEP; g(B); locals(B) 1..L]

where the global token is the projected global descriptor plus a segment
embedding, and every local token is the local descriptor plus its scale
embedding and a segment embedding (plus an optional fixed sinusoidal position
code).  Images with fewer than L locals are padded up to L local slots; the
attention mask excludes those slots as keys, so whatever their tokens hold
never reaches a valid row.  The sequence runs through C identical
transformer layers; a linear head scores each pair's final CLS row on its
own, giving the match logit.  Since nothing else reads the last layer's
output, that layer always runs its queries, residual, LayerNorms and MLP on
the CLS row alone (Tq = 1 query row against all T keys and values).

Scoring keeps its peak heap for the life of the process.  Building a
scorer (``rrt.scorers``) calls ``pin_heap``, which sets glibc's mmap and
trim thresholds once per process (where the C library is glibc), so the
buffers a forward pass or a RANSAC run frees stay in the process for the
next one instead of going back to the OS and faulting in again.  The first
multi-chunk ``score_batch`` starts the one thread pool that scores its
chunks for the rest of the process.  ``import rrt`` changes neither.

Checkpoint wire format, extension ``.rrtm``, read by ``rrt.wire.Reader``
(header and error policy there):

    magic "RRTM" | u32 version=1
    config: u32 L | u16 d | u8 h | u8 d_h | u8 C | u16 d_c | u8 n_scales
            | u32 d_g_raw | u8 flags (bit0 pos_embed, bit1 global_token,
                                      bit2 scale_embed, bit3 mlp_residual,
                                      bits 4-7 zero)
    u16 tensor count, then per tensor:
            u8 name_len | name (ASCII) | u8 ndim | ndim x u32 dims | f32 data
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import ImageRecord
from .errors import ConfigError, DataFormatError, IntegrityError
from .wire import Reader, uint_limits

__all__ = [
    "ModelConfig",
    "ModelParams",
    "init_params",
    "check_records",
    "mha_forward",
    "transformer_layer",
    "forward_pair_logits",
    "score_batch",
    "score_workers",
    "pin_heap",
    "attention_correspondences",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"RRTM"
CKPT_VERSION = 1
LAYERNORM_EPS = 1e-5
_SIZES = ("L", "d", "h", "d_h", "layers", "d_c", "n_scales", "d_g_raw")
_CFG_STRUCT = "<IHBBBHBIB"  # _SIZES, then the flags byte
_FLAG_BITS = ("use_pos_embed", "use_global_token", "use_scale_embed", "mlp_residual")  # bit 0 up


@dataclass(frozen=True)
class ModelConfig:
    L: int = 500          # max locals per image, at most 65535 (the .rrtd limit)
    d: int = 128          # token dimension
    h: int = 4            # attention heads
    d_h: int = 32         # per-head dimension
    layers: int = 6
    d_c: int = 1024       # MLP hidden dimension
    n_scales: int = 7
    d_g_raw: int = 2048   # raw global descriptor dimension
    use_pos_embed: bool = False
    use_global_token: bool = True
    use_scale_embed: bool = True
    mlp_residual: bool = False

    def __post_init__(self):
        if self.h * self.d_h != self.d:
            raise ConfigError(f"h*d_h = {self.h * self.d_h} must equal d = {self.d}")
        for name, most in zip(_SIZES, uint_limits(_CFG_STRUCT)):
            if (value := getattr(self, name)) <= 0:
                raise ConfigError(f"{name} must be positive")
            if value > most:
                raise ConfigError(f"{name} must be at most {most} to fit a .rrtm file, got {value}")
        if self.L > (most := uint_limits("<H")[0]):  # the u16 locals count of a .rrtd record
            raise ConfigError(f"L must be at most {most}, the most locals a .rrtd record holds, got {self.L}")
        if self.use_pos_embed and self.d % 4 != 0:
            raise ConfigError("position encoding needs d divisible by 4")

    @property
    def seq_len(self) -> int:
        return sum(width for _, _, _, width in _segments(self))


def _layer_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], tuple]]:
    """(name, shape, init spec) of one layer's tensors, in checkpoint order:
    param_shapes prefixes each name with "layers.{i}.", and ModelParams.layer
    names its attributes by it."""
    d, d_c = cfg.d, cfg.d_c
    weight, bias, gain = ((d, d), ("uniform", d)), ((d,), ("zeros",)), ((d,), ("ones",))
    return [
        ("wq", *weight), ("bq", *bias), ("wk", *weight), ("bk", *bias),
        ("wv", *weight), ("bv", *bias), ("wo", *weight), ("bo", *bias),
        ("ln1_g", *gain), ("ln1_b", *bias),
        ("w1", (d, d_c), ("uniform", d)), ("b1", (d_c,), ("zeros",)),
        ("w2", (d_c, d), ("uniform", d_c)), ("b2", *bias),
        ("ln2_g", *gain), ("ln2_b", *bias),
    ]


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], tuple]]:
    """Ordered (name, shape, init spec) table; the single source of truth for
    parameter layout, initialization, counting and checkpoints."""
    out = [(f"layers.{i}.{nm}", shape, spec) for i in range(cfg.layers) for nm, shape, spec in _layer_shapes(cfg)]
    if cfg.use_global_token:
        out.append(("global_proj.w", (cfg.d_g_raw, cfg.d), ("uniform", cfg.d_g_raw)))
        out.append(("global_proj.b", (cfg.d,), ("zeros",)))
    out.append(("head.w", (cfg.d,), ("uniform", cfg.d)))
    out.append(("head.b", (1,), ("zeros",)))
    out.append(("tok.cls", (cfg.d,), ("normal", 0.02)))
    out.append(("tok.sep", (cfg.d,), ("normal", 0.02)))
    if cfg.use_global_token:
        out.append(("seg.global_a", (cfg.d,), ("normal", 0.02)))
        out.append(("seg.global_b", (cfg.d,), ("normal", 0.02)))
    out.append(("seg.local_a", (cfg.d,), ("normal", 0.02)))
    out.append(("seg.local_b", (cfg.d,), ("normal", 0.02)))
    if cfg.use_scale_embed:
        out.append(("scale_embed.table", (cfg.n_scales, cfg.d), ("normal", 0.02)))
    return out


class ModelParams:
    """All learnable tensors, keyed by dotted names in param_shapes order.
    Built only by init_params, from that table, and by load_checkpoint,
    which checks every name and shape against it."""

    def __init__(self, cfg: ModelConfig, tensors: dict[str, Tensor]):
        self.tensors = tensors
        names = [nm for nm, _, _ in _layer_shapes(cfg)]
        self._layers = [SimpleNamespace(**{nm: tensors[f"layers.{i}.{nm}"] for nm in names})
                        for i in range(cfg.layers)]

    def named(self):
        return self.tensors.items()

    def trainable(self) -> list[Tensor]:
        return list(self.tensors.values())

    def layer(self, i: int) -> SimpleNamespace:
        """Layer i's tensors as attributes named by _layer_shapes (wq, bq, ...)."""
        return self._layers[i]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Fresh parameters: uniform(+-1/sqrt(fan_in)) weights, zero biases, unit
    LayerNorm gains, N(0, 0.02^2) token/segment/scale embeddings."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape, spec in param_shapes(cfg):
        if spec[0] == "uniform":
            bound = 1.0 / np.sqrt(spec[1])
            data = rng.uniform(-bound, bound, size=shape)
        elif spec[0] == "zeros":
            data = np.zeros(shape)
        elif spec[0] == "ones":
            data = np.ones(shape)
        else:
            data = rng.normal(0.0, spec[1], size=shape)
        tensors[name] = Tensor(data.astype(np.float32), requires_grad=True)
    return ModelParams(cfg, tensors)


# -- input assembly -------------------------------------------------------


def _position_code(positions: np.ndarray, d: int) -> np.ndarray:
    """Fixed sinusoidal 2-D code: half the channels encode u, half encode v,
    classic sin/cos ladder with temperature 10000 on raw pixel coordinates."""
    half = d // 2
    quarter = half // 2
    freqs = 10000.0 ** (np.arange(quarter) / quarter)
    out = np.zeros((positions.shape[0], d))
    for axis in range(2):
        coords = positions[:, axis : axis + 1] / freqs
        base = axis * half
        out[:, base : base + quarter] = np.sin(coords)
        out[:, base + quarter : base + half] = np.cos(coords)
    return out


# -- transformer ----------------------------------------------------------


def mha_forward(
    layer, cfg: ModelConfig, z: Tensor, mask: np.ndarray, return_attn: bool = False,
    query_rows: int | None = None,
):
    """Multi-head self-attention; mask [B, T] marks valid key positions.

    z is [B, T, d].  Keys and values come from all T tokens; queries from
    the leading query_rows tokens (Tq <= T, default all), so the output is
    [B, Tq, d].  Returns (output, attention or None); the attention array is
    [B, h, Tq, T], post-softmax, built only when asked.
    """
    B, T, d = z.shape
    Tq = T if query_rows is None else query_rows
    rows = ag.reshape(z, (B * T, d))  # projections run as 2-D gemms
    q_rows = rows if Tq == T else ag.reshape(z[:, :Tq], (B * Tq, d))
    ctx, attn = ag.attention(
        ag.affine(q_rows, layer.wq, layer.bq),
        ag.affine(rows, layer.wk, layer.bk),
        ag.affine(rows, layer.wv, layer.bv),
        mask,
        cfg.h,
        return_probs=return_attn,
    )
    out = ag.reshape(ag.affine(ctx, layer.wo, layer.bo), (B, Tq, d))
    return out, attn


def transformer_layer(
    layer, cfg: ModelConfig, z: Tensor, mask: np.ndarray, query_rows: int | None = None
) -> Tensor:
    """One block: post-norm attention, then a two-layer MLP.

    Only the leading query_rows tokens (default all) are carried through:
    they attend over every token, and the residual, both LayerNorms and the
    MLP run on those rows alone, so the output is [.., query_rows, d].  The
    MLP has no residual connection by default; set mlp_residual for the
    conventional variant.
    """
    att, _ = mha_forward(layer, cfg, z, mask, query_rows=query_rows)
    if att.shape[1] != z.shape[1]:
        z = z[:, : att.shape[1]]
    zbar = ag.layer_norm(ag.add(z, att), layer.ln1_g, layer.ln1_b, LAYERNORM_EPS)
    mlp = ag.mlp(zbar, layer.w1, layer.b1, layer.w2, layer.b2)
    body = ag.add(zbar, mlp) if cfg.mlp_residual else mlp
    return ag.layer_norm(body, layer.ln2_g, layer.ln2_b, LAYERNORM_EPS)


def check_records(cfg: ModelConfig, records: Iterable[ImageRecord]) -> None:
    """Raise ConfigError naming the first record the model cannot take: more
    than L locals, a global descriptor whose dimension is not d_g_raw (when
    the model reads globals), locals whose dimension is not d, or a scale
    index outside [0, n_scales).  Every entry point that takes records runs
    this once per call; the forward pass then takes them unchecked."""
    for rec in records:
        n = len(rec.vecs)
        if n > cfg.L:
            raise ConfigError(
                f"record {rec.id} has {n} locals but the model takes at most {cfg.L}; "
                "truncate at load time"
            )
        if cfg.use_global_token and rec.global_desc.shape != (cfg.d_g_raw,):
            raise ConfigError(
                f"record {rec.id}: global dim {rec.global_desc.shape[0]} but model expects {cfg.d_g_raw}"
            )
        if n and rec.vecs.shape[1] != cfg.d:
            raise ConfigError(
                f"record {rec.id}: local dim {rec.vecs.shape[1]} but model dim is {cfg.d}"
            )
        if n and rec.scale_idx.max() >= cfg.n_scales:
            raise ConfigError(f"record {rec.id}: scale index outside [0, {cfg.n_scales})")


def _gather_side(cfg: ModelConfig, records: Sequence[ImageRecord], dtype):
    """Stacked raw inputs for one side of the batch: padded local matrices,
    scale indices (0 at pads), local valid mask, raw globals.  The records
    have passed check_records."""
    B, L = len(records), cfg.L
    locals_mat = np.zeros((B, L, cfg.d), dtype=dtype)
    sidx = np.zeros((B, L), dtype=np.intp)
    lmask = np.zeros((B, L), dtype=bool)
    globals_mat = np.zeros((B, cfg.d_g_raw), dtype=dtype)
    for bi, rec in enumerate(records):
        n = len(rec.vecs)
        if cfg.use_global_token:
            globals_mat[bi] = rec.global_desc
        if n:
            locals_mat[bi, :n] = rec.vecs
            sidx[bi, :n] = rec.scale_idx
            lmask[bi, :n] = True
            if cfg.use_pos_embed:
                locals_mat[bi, :n] += _position_code(rec.uv, cfg.d).astype(dtype)
    return locals_mat, sidx, lmask, globals_mat


def _local_block(params, cfg: ModelConfig, side: str, locals_mat, sidx) -> Tensor:
    """[B, L, d] local tokens: raw vectors + scale embedding + segment
    embedding.  Pad slots get the embeddings too; the key mask keeps them
    inert."""
    x = Tensor(locals_mat)
    if cfg.use_scale_embed:
        x = ag.add(x, ag.embedding(params["scale_embed.table"], sidx))
    return ag.add(x, params[f"seg.local_{side}"])


def _segments(cfg: ModelConfig) -> list[tuple[str, str, int, int]]:
    """(kind, side, first token, width) of each block of a pair's token
    sequence, in sequence order: the module docstring's layout."""
    out, pos = [], 0
    for side, lead in (("a", "cls"), ("b", "sep")):
        for kind, width in ((lead, 1), ("global", 1), ("locals", cfg.L)):
            if kind != "global" or cfg.use_global_token:
                out.append((kind, side, pos, width))
                pos += width
    return out


def _assemble_batch(params: ModelParams, cfg: ModelConfig, pairs):
    """Token sequences [B, T, d] and key masks [B, T] of a batch of pairs,
    in the parameters' dtype, built with a handful of batched graph ops in
    ``_segments`` order; pad slots have a False mask entry."""
    B, dtype = len(pairs), params["tok.cls"].dtype
    sides = {s: _gather_side(cfg, [p[i] for p in pairs], dtype) for i, s in enumerate("ab")}
    one = np.ones((B, 1), dtype=bool)
    blocks, mask_cols = [], []
    for kind, side, _, _ in _segments(cfg):
        locals_mat, sidx, lmask, globals_mat = sides[side]
        if kind == "locals":
            blocks.append(_local_block(params, cfg, side, locals_mat, sidx))
            mask_cols.append(lmask)
            continue
        if kind == "global":
            proj = ag.affine(Tensor(globals_mat), params["global_proj.w"], params["global_proj.b"])
            blocks.append(ag.reshape(ag.add(proj, params[f"seg.global_{side}"]), (B, 1, cfg.d)))
        else:
            blocks.append(ag.add(Tensor(np.zeros((B, 1, cfg.d), dtype=dtype)), params[f"tok.{kind}"]))
        mask_cols.append(one)
    return ag.concat(blocks, axis=1), np.concatenate(mask_cols, axis=1)


def forward_pair_logits(
    params: ModelParams, cfg: ModelConfig, pairs: Sequence[tuple[ImageRecord, ImageRecord]]
) -> Tensor:
    """Logits [B] for a batch of record pairs in one forward pass; gradients
    flow if recording is enabled.  Every record has passed check_records;
    none is checked here.  The last layer computes only the CLS row the head
    reads."""
    if not pairs:
        raise ValueError("forward_pair_logits needs at least one pair")
    z, mask = _assemble_batch(params, cfg, pairs)
    for i in range(cfg.layers):
        z = transformer_layer(params.layer(i), cfg, z, mask, query_rows=1 if i == cfg.layers - 1 else None)
    head = ag.reshape(params["head.w"], (cfg.d, 1))
    # [B, 1, d]: numpy runs one [1, d].[d, 1] product per pair, which rounds alike at any B and place
    return ag.reshape(ag.affine(z[:, :1, :], head, params["head.b"]), (len(pairs),))


# Threads that score the chunks of one call.  numpy releases the GIL in the
# gemms and ufuncs that dominate a paper-scale forward pass, so two threads
# overlap on two cores.
MAX_SCORE_WORKERS = 2

# Token floats (seq_len x d per pair) that one score_batch chunk may hold.
# Without grad, attention keeps one tile of logits and the MLP one row block
# of hidden activations, so the peak is set by the handful of [B, T, d] token
# arrays alive in a layer.  This gives 2 pairs at paper scale (128,512 floats
# per pair), and at T = 36 (2,304 per pair) a cap of 113 that a top 100 never
# reaches.  Each worker thread allocates from its own malloc arena, which
# keeps the buffers that thread freed: at paper scale, two workers over chunks
# of 8 peaked about 40 MB (18%) above the serial path, chunks of 4 about
# 20 MB, chunks of 2 at the serial peak.
SCORE_CHUNK_FLOATS = 1 << 18


def score_workers() -> int:
    """Threads score_batch cuts its chunks for and runs them on: one per CPU
    this process may run on, at most MAX_SCORE_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return min(MAX_SCORE_WORKERS, cpus)


def score_chunks(n: int, cap: int, workers: int) -> list[slice]:
    """The partition of n candidates that score_batch scores chunk by chunk:
    consecutive chunks of ceil(n / workers) candidates, at most `cap` and at
    least 2, with a trailing single candidate joining the chunk before it."""
    size = max(2, min(cap, -(-n // workers)))
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


# glibc's mallopt parameters, and the values pinned: 32 MiB is the highest
# mmap threshold glibc's own dynamic rule reaches on 64-bit, and the trim
# threshold is twice it, as in that rule.  Setting either one turns the
# dynamic rule off, so both are set or neither.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_heap_lock = threading.Lock()
_heap_pinned: bool | None = None  # pin_heap's outcome, once it has run


def pin_heap() -> bool:
    """Set glibc's mmap and trim thresholds, once per process: the first
    call sets them, and every call returns whether both took (mallopt
    returns 1); False without glibc.  A forked child keeps its parent's
    thresholds and its outcome."""
    global _heap_pinned
    with _heap_lock:
        if _heap_pinned is None:
            _heap_pinned = False
            try:
                libc = ctypes.CDLL(None)
            except (OSError, TypeError):  # the process's own symbols are not loadable here
                return False
            if hasattr(libc, "gnu_get_libc_version"):  # the parameter numbers are glibc's
                mallopt = libc.mallopt
                mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
                _heap_pinned = (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
                                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)
        return _heap_pinned


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: no pool, and no lock holder."""
    global _pool, _pool_lock, _heap_lock
    _pool, _pool_lock, _heap_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def _scoring_pool() -> ThreadPoolExecutor:
    """score_batch's pool of MAX_SCORE_WORKERS threads, made on the first
    call and kept for the life of the process."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(MAX_SCORE_WORKERS, "rrt-score")
        return _pool


def score_batch(
    params: ModelParams,
    cfg: ModelConfig,
    query: ImageRecord,
    candidates: Sequence[ImageRecord],
) -> list[float]:
    """Similarity of (query, c) for every candidate; equals scoring each
    pair in a batch of its own within float tolerance.  The query and the
    candidates have passed check_records.

    score_chunks cuts the candidates into one chunk per score_workers()
    worker, of at most SCORE_CHUNK_FLOATS token floats to bound peak memory.
    A single chunk, or any number on one worker, runs on the calling thread;
    several run on the scoring pool, whose threads run nothing else.
    Scores, and the first error, come in chunk order either way.

    On OpenBLAS's SkylakeX kernels a score's bytes depend on its two records
    and the BLAS core alone, in any chunk of at least 2 pairs and at any
    place in it.  On its Haswell kernels a gemm row's bytes depend on the
    call's row count and the row's place, so there they also depend on the
    chunk's size and the pair's place in it, and so on the worker count,
    which the `rerank` and `eval` sidecars record.  A one-candidate list is
    a one-pair batch, whose CLS-only last layer runs one-row products, so
    its bytes can differ.  Each worker is assumed to run BLAS on one thread
    (the `rrt` command sets that before numpy loads; a library caller sets
    OPENBLAS_NUM_THREADS itself); with more, the workers' BLAS threads
    contend for the same cores, and paper-scale scores can move by float32
    rounding.
    """

    def score(chunk: slice) -> list[float]:
        with ag.no_grad():
            logits = forward_pair_logits(params, cfg, [(query, c) for c in candidates[chunk]])
        return [float(s) for s in ag._sigmoid(logits.data)]

    workers = score_workers()
    chunks = score_chunks(len(candidates), SCORE_CHUNK_FLOATS // (cfg.seq_len * cfg.d), workers)
    run = _scoring_pool().map if len(chunks) > 1 and workers > 1 else map
    return [s for part in run(score, chunks) for s in part]


def max_weight_assignment(affinity: np.ndarray) -> list[tuple[int, int]]:
    """Exact maximum-weight one-to-one assignment on a (possibly rectangular)
    affinity matrix; returns (row, col) pairs sorted by row.  scipy is
    imported here, so that only `rrt correspond` pays for loading it."""
    from scipy.optimize import linear_sum_assignment

    ri, ci = linear_sum_assignment(affinity, maximize=True)
    return sorted(zip(ri.tolist(), ci.tolist()))


def attention_correspondences(
    params: ModelParams, cfg: ModelConfig, a: ImageRecord, b: ImageRecord
) -> list[tuple[int, int, float]]:
    """One-to-one local matches from the last layer's attention.

    Head-averaged post-softmax attention from a's local tokens (rows) to b's
    local tokens (columns) is used as the affinity of an exact maximum-weight
    assignment.  Returns (local index in a, local index in b, affinity),
    sorted by the first index; empty if either image has no locals.  Both
    records go through check_records first.
    """
    check_records(cfg, (a, b))
    na, nb = len(a.vecs), len(b.vecs)
    if na == 0 or nb == 0:
        return []
    with ag.no_grad():
        z, mask = _assemble_batch(params, cfg, [(a, b)])
        for i in range(cfg.layers - 1):
            z = transformer_layer(params.layer(i), cfg, z, mask)
        _, attn = mha_forward(params.layer(cfg.layers - 1), cfg, z, mask, return_attn=True)
    m = attn[0].mean(axis=0)  # [T, T]
    a0, b0 = (pos for kind, _, pos, _ in _segments(cfg) if kind == "locals")
    affinity = m[a0 : a0 + na, b0 : b0 + nb]
    return [(i, j, float(affinity[i, j])) for i, j in max_weight_assignment(affinity)]


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(params: ModelParams, cfg: ModelConfig, path) -> None:
    """Write config and all tensors; data is stored as f32."""
    buf = bytearray()
    buf += CKPT_MAGIC
    buf += struct.pack("<I", CKPT_VERSION)
    buf += struct.pack(
        _CFG_STRUCT,
        *(getattr(cfg, name) for name in _SIZES),
        sum(getattr(cfg, name) << bit for bit, name in enumerate(_FLAG_BITS)),
    )
    named = list(params.named())
    buf += struct.pack("<H", len(named))
    for name, t in named:
        nb = name.encode("ascii")
        buf += struct.pack("<B", len(nb))
        buf += nb
        buf += struct.pack("<B", t.ndim)
        buf += struct.pack(f"<{t.ndim}I", *t.shape)
        buf += np.ascontiguousarray(t.data, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(buf)


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    """Read a checkpoint written by save_checkpoint.  A NaN or infinite
    weight is a value no checkpoint may hold: DataFormatError names its
    tensor, at the offset of its first such value."""
    cur = Reader(path, CKPT_MAGIC, CKPT_VERSION)
    *sizes, flags = cur.unpack(_CFG_STRUCT)  # sizes in ModelConfig's field order
    if flags >> len(_FLAG_BITS):
        raise DataFormatError(f"unknown model flag bits {flags:#04x}", offset=cur.off - 1)
    try:
        cfg = ModelConfig(*sizes, **{name: bool(flags >> bit & 1) for bit, name in enumerate(_FLAG_BITS)})
    except ConfigError as exc:
        raise DataFormatError(f"bad model config: {exc}", offset=8) from None
    (count,) = cur.unpack("<H")
    expected = param_shapes(cfg)
    if count != len(expected):
        raise IntegrityError(
            f"checkpoint holds {count} tensors, config implies {len(expected)}"
        )
    tensors: dict[str, Tensor] = {}
    for exp_name, exp_shape, _ in expected:
        (nlen,) = cur.unpack("<B")
        name = cur.take(nlen)
        (ndim,) = cur.unpack("<B")
        dims = cur.unpack(f"<{ndim}I")
        if name != exp_name.encode("ascii") or dims != exp_shape:
            raise IntegrityError(
                f"tensor {name!r} with shape {dims} does not match the "
                f"config's layout entry {exp_name} {exp_shape}"
            )
        data = cur.floats(math.prod(exp_shape), f"tensor {exp_name}")
        tensors[exp_name] = Tensor(data.reshape(exp_shape), requires_grad=True)
    cur.end("the tensor table")
    return ModelParams(cfg, tensors), cfg
