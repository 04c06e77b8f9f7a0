"""Supervised training of the pair scorer.

Pairs are mined the retrieve-then-label way: positives are drawn uniformly
from the anchor's label class, negatives uniformly from the anchor's top
global neighbors with a different label (with a uniform fallback over all
different-label images when the pool has none).  Neighbor lists are computed
once from the frozen global descriptors, and every record's pools once from
them, before training starts.  One positive and one negative per anchor keeps
every batch balanced.

Training is single-threaded with a single seeded generator, so a given
(seed, config, dataset) reproduces the loss history bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autograd import bce_with_logits
from .data import ImageRecord
from .errors import ConfigError, TrainingDiverged
from .model import (
    ModelConfig,
    ModelParams,
    check_records,
    forward_pair_logits,
    init_params,
    save_checkpoint,
)
from .optim import AdamW, clip_global_grad_norm, global_grad_norm
from .retrieval import build_index

__all__ = [
    "TrainConfig",
    "PairSampler",
    "train",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimiser and sampling knobs.  Building a config checks it and raises
    ConfigError on a bad value (``dataclasses.replace`` checks again)."""

    lr: float = 1e-4
    weight_decay: float = 4e-4
    epochs: int = 15
    batch_size: int = 8           # anchors per step; pairs per step is twice this
    seed: int = 0
    grad_clip_norm: Optional[float] = None  # 0.1 is the stabilizing value when on
    neg_pool_size: int = 100
    steps_per_epoch: Optional[int] = None
    lr_step_schedule: bool = False  # x0.1 after 60% and 80% of the epochs

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        for name in ("epochs", "batch_size", "neg_pool_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.steps_per_epoch is not None and self.steps_per_epoch <= 0:
            raise ConfigError(f"steps_per_epoch must be positive when set, got {self.steps_per_epoch}")
        clip = self.grad_clip_norm
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ConfigError(f"grad_clip_norm must be finite and positive when set, got {clip}")


@dataclass(frozen=True)
class PairSample:
    anchor_id: int
    partner_id: int
    label: int  # 1 same instance, 0 different


class PairSampler:
    """Draws one positive and one negative partner for an anchor.

    Every record's pools are built here: ``same[id]`` holds the other ids of
    its label, and ``negatives[id]`` its different-label ids in
    ``neighbor_ids`` order or, when there are none, every different-label id
    in record order.  A dataset with a single label raises ConfigError."""

    def __init__(self, records: Sequence[ImageRecord], neighbor_ids: dict[int, list[int]]):
        label_of = {r.id: r.label for r in records}
        by_label: dict[int, list[int]] = {}
        for r in records:
            by_label.setdefault(r.label, []).append(r.id)
        self.same = {r.id: [i for i in by_label[r.label] if i != r.id] for r in records}
        self.negatives: dict[int, list[int]] = {}
        fallback: dict[int, list[int]] = {}  # label -> different-label ids, where needed
        for r in records:
            pool = [g for g in neighbor_ids.get(r.id, []) if label_of[g] != r.label]
            if not pool:
                if r.label not in fallback:
                    fallback[r.label] = [x.id for x in records if x.label != r.label]
                pool = fallback[r.label]
                if not pool:
                    raise ConfigError("dataset has a single label; no negatives exist")
            self.negatives[r.id] = pool

    def sample_pair(
        self, anchor_id: int, rng: np.random.Generator
    ) -> Optional[tuple[PairSample, PairSample]]:
        """(positive, negative) for the anchor; None when the anchor has no
        same-label partner."""
        same = self.same[anchor_id]
        if not same:
            return None
        pos = same[int(rng.integers(len(same)))]
        pool = self.negatives[anchor_id]
        neg = pool[int(rng.integers(len(pool)))]
        return PairSample(anchor_id, pos, 1), PairSample(anchor_id, neg, 0)


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    if not cfg.lr_step_schedule:
        return cfg.lr
    factor = 1.0
    if epoch >= int(0.6 * cfg.epochs):
        factor *= 0.1
    if epoch >= int(0.8 * cfg.epochs):
        factor *= 0.1
    return cfg.lr * factor


# Scores held per block of mined rows; each block also holds the same number
# of int64 partition indices, so about 3 MB in all at 2^18.
MINE_BLOCK_FLOATS = 1 << 18


def mine_neighbor_ids(records: Sequence[ImageRecord], pool: int) -> dict[int, list[int]]:
    """Per-record ranked neighbor ids over the raw globals, self excluded.

    Each list holds the max(1, min(pool, n - 1)) most similar other records
    (none for a lone record), ranked by the total order of knn_search: float32
    inner product descending, then id ascending, so ties at the cut keep the
    lower ids.  Rows are mined in blocks: one gemm of the block against all
    vectors, then a partition to the cut, so memory beyond the index stays at
    about MINE_BLOCK_FLOATS scores (under twice that) plus as many partition
    indices, instead of an n x n similarity matrix."""
    index = build_index(records)
    vecs, ids = index.vectors, index.ids
    n = len(ids)
    if n < 2:
        return {int(i): [] for i in ids}
    k = max(min(pool, n - 1), 1)
    # Blocks hold at least two rows: numpy computes a one-row product as a
    # matrix-vector product, whose sums can round differently from the rows
    # of a full product.
    rows = max(2, MINE_BLOCK_FLOATS // n)
    n_blocks = max(1, n // rows)
    out: dict[int, list[int]] = dict.fromkeys(ids.tolist())
    for b in range(n_blocks):
        r0, r1 = n * b // n_blocks, n * (b + 1) // n_blocks
        block_ids = ids[r0:r1].tolist()
        sims = vecs[r0:r1] @ vecs.T
        sims[np.arange(r1 - r0), np.arange(r0, r1)] = -np.inf  # self ranks last
        top = np.argpartition(sims, n - k, axis=1)[:, n - k :]
        top_sims = np.take_along_axis(sims, top, axis=1)
        at_least_cut = sims >= top_sims[:, :1]  # column 0 holds the k-th largest
        tied = np.count_nonzero(at_least_cut, axis=1) > k
        # No tie at the cut: the partition's top k are the k neighbours, so
        # these rows are ranked together in one sort.
        clean = np.flatnonzero(~tied)
        cand = ids[top[clean]]
        order = np.lexsort((cand, -top_sims[clean]), axis=-1)
        for row, ranked in zip(clean.tolist(), np.take_along_axis(cand, order, axis=1).tolist()):
            out[block_ids[row]] = ranked
        # A tie at the cut: the partition picked among the tied candidates
        # arbitrarily, so rank every candidate at or above the cut instead.
        for row in np.flatnonzero(tied).tolist():
            cand = np.flatnonzero(at_least_cut[row])
            order = np.lexsort((ids[cand], -sims[row, cand]))[:k]
            out[block_ids[row]] = ids[cand[order]].tolist()
    return out


def train(
    records: Sequence[ImageRecord],
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    out_dir=None,
) -> tuple[ModelParams, list[dict]]:
    """Train on a labeled gallery from ``init_params(model_cfg,
    seed=cfg.seed)``; returns (params, per-step loss history).

    Records should be unit-normalized (see data.normalize_records).  The
    anchors are the records with a same-label partner.  When out_dir is
    given, the final model.rrtm and loss_history.csv land there, and nothing
    else; the directory is made then.  A non-finite loss or gradient norm
    raises TrainingDiverged before that step's update, and nothing is
    written, not even the directory.  Every record is checked
    against the model once, before mining (``check_records``).
    """
    if len({r.label for r in records}) < 2:
        raise ConfigError("training needs at least two distinct labels")
    check_records(model_cfg, records)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(model_cfg, seed=cfg.seed)

    sampler = PairSampler(records, mine_neighbor_ids(records, cfg.neg_pool_size))
    by_id = {r.id: r for r in records}
    anchors = [r.id for r in records if sampler.same[r.id]]
    if not anchors:
        raise ConfigError("no anchor has a same-label partner")

    opt = AdamW(params.trainable(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        opt.lr = _epoch_lr(cfg, epoch)
        order = rng.permutation(len(anchors))
        for start in range(0, len(order), cfg.batch_size)[: cfg.steps_per_epoch]:
            pairs, targets = [], []
            for ai in order[start : start + cfg.batch_size]:
                for ps in sampler.sample_pair(anchors[int(ai)], rng):
                    pairs.append((by_id[ps.anchor_id], by_id[ps.partner_id]))
                    targets.append(float(ps.label))
            logits, _ = forward_pair_logits(params, model_cfg, pairs)
            loss = bce_with_logits(logits, np.array(targets, dtype=logits.dtype))
            loss_val = float(loss.data)
            opt.zero_grad()
            loss.backward()
            if cfg.grad_clip_norm is not None:
                grad_norm = clip_global_grad_norm(opt.params, cfg.grad_clip_norm)
            else:
                grad_norm = global_grad_norm(opt.params)
            step = len(history) + 1
            if not (math.isfinite(loss_val) and math.isfinite(grad_norm)):
                raise TrainingDiverged(step=step, lr=opt.lr, loss=loss_val, grad_norm=grad_norm)
            opt.step()
            history.append({"step": step, "epoch": epoch, "loss": loss_val, "grad_norm": grad_norm})
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(params, model_cfg, out_dir / "model.rrtm")
        with open(out_dir / "loss_history.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "epoch", "loss", "grad_norm"])
            w.writerows([row["step"], row["epoch"], repr(row["loss"]), repr(row["grad_norm"])] for row in history)
    return params, history
