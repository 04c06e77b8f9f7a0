"""Trainer tests: pair sampling statistics, loss bookkeeping, reproducibility,
gradient clipping, aborts on non-finite values, the frozen training bits."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from rrt import train as training
from rrt.benchmark import benchmark_model_config, benchmark_train_config, train_synth_config
from rrt.data import ImageRecord, SynthConfig, normalize_records, synth_generate
from rrt.errors import ConfigError, DataFormatError, TrainingDiverged
from rrt.model import ModelConfig, init_params
from rrt.optim import global_grad_norm
from rrt.retrieval import build_index
from rrt.train import (
    PairSample,
    PairSampler,
    TrainConfig,
    mine_neighbor_ids,
    train,
)

from helpers import blas_core, no_locals
from oracles import evaluate_loss, mine_neighbor_ids_lexsort, score_pair


def small_dataset(seed=0, n_instances=4, images=4):
    cfg = SynthConfig(
        n_instances=n_instances, images_per_instance=images, queries_per_instance=0,
        parts_per_instance=4, parts_per_image=3, locals_per_image=6,
        d_l=16, d_g_raw=24, global_confusion_pairs=1, seed=seed,
    )
    _, gallery, _ = synth_generate(cfg)
    return normalize_records(gallery)


def small_model():
    return ModelConfig(L=6, d=16, h=2, d_h=8, layers=1, d_c=32, n_scales=7, d_g_raw=24)


class TestPairSampler:
    def test_forced_positive_choice(self):
        recs = small_dataset(n_instances=2, images=2)
        sampler = PairSampler(recs, mine_neighbor_ids(recs, 100))
        rng = np.random.default_rng(0)
        anchor = recs[0]
        partner = next(r.id for r in recs if r.label == anchor.label and r.id != anchor.id)
        for _ in range(5):
            pos, neg = sampler.sample_pair(anchor.id, rng)
            assert pos.partner_id == partner
            assert pos.label == 1 and neg.label == 0

    def test_labels_respected(self):
        recs = small_dataset()
        label_of = {r.id: r.label for r in recs}
        sampler = PairSampler(recs, mine_neighbor_ids(recs, 100))
        rng = np.random.default_rng(1)
        for r in recs:
            pos, neg = sampler.sample_pair(r.id, rng)
            assert label_of[pos.partner_id] == label_of[r.id]
            assert label_of[neg.partner_id] != label_of[r.id]
            assert pos.partner_id != r.id

    def test_no_partner_signals_skip(self):
        recs = small_dataset(n_instances=3, images=2)
        lonely = recs[0]
        trimmed = [r for r in recs if not (r.label == lonely.label and r.id != lonely.id)]
        sampler = PairSampler(trimmed, mine_neighbor_ids(trimmed, 100))
        assert sampler.sample_pair(lonely.id, np.random.default_rng(0)) is None

    def test_fallback_when_pool_is_same_label(self):
        recs = small_dataset()
        anchor = recs[0]
        same = [r.id for r in recs if r.label == anchor.label and r.id != anchor.id]
        # neighbor list stuffed with same-label ids only: fallback must fire
        sampler = PairSampler(recs, {anchor.id: same})
        label_of = {r.id: r.label for r in recs}
        rng = np.random.default_rng(2)
        for _ in range(10):
            _, neg = sampler.sample_pair(anchor.id, rng)
            assert label_of[neg.partner_id] != anchor.label

    def test_positive_distribution_uniform_within_3_sigma(self):
        recs = small_dataset(n_instances=5, images=5)
        sampler = PairSampler(recs, mine_neighbor_ids(recs, 100))
        rng = np.random.default_rng(3)
        anchor = recs[0]
        n_draws = 10_000
        counts = {}
        for _ in range(n_draws):
            pos, _ = sampler.sample_pair(anchor.id, rng)
            counts[pos.partner_id] = counts.get(pos.partner_id, 0) + 1
        m = len(sampler.same[anchor.id])
        assert m == 4
        p = 1.0 / m
        sigma = np.sqrt(n_draws * p * (1 - p))
        for partner in sampler.same[anchor.id]:
            assert abs(counts.get(partner, 0) - n_draws * p) < 3 * sigma


def global_only_records(globals_, seed):
    """Records with the given global vectors, no locals, and shuffled
    non-contiguous ids, so an id-ascending order is not the record order."""
    rng = np.random.default_rng(seed)
    ids = (rng.permutation(4 * len(globals_))[: len(globals_)] + 3).tolist()
    return [
        ImageRecord(i, 0, np.asarray(g, dtype=np.float32), *no_locals()) for i, g in zip(ids, globals_)
    ]


def ties_at_cut(records, pool):
    """Whether some row's k-th best other score is also its (k+1)-th."""
    vecs = build_index(records).vectors
    sims = vecs @ vecs.T
    k = max(min(pool, len(records) - 1), 1)
    for row in range(len(records)):
        others = np.sort(np.delete(sims[row], row))[::-1]
        if k < len(others) and others[k - 1] == others[k]:
            return True
    return False


class TestMineNeighborIds:
    def pools(self, n):
        return sorted({0, 1, 2, 5, n // 2, n - 2, n - 1, n, n + 7})

    def test_matches_lexsort_reference_on_synth_gallery(self):
        recs = small_dataset(n_instances=6, images=5)
        for pool in self.pools(len(recs)):
            assert mine_neighbor_ids(recs, pool) == mine_neighbor_ids_lexsort(recs, pool), pool

    def test_exact_ties_at_cut_keep_lower_ids(self):
        # nine distinct directions, each used by several records: every row
        # has runs of exactly equal scores
        rng = np.random.default_rng(11)
        base = rng.standard_normal((9, 12))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        recs = global_only_records(base[rng.integers(0, 9, size=40)], seed=11)
        pools = self.pools(len(recs))
        assert any(ties_at_cut(recs, pool) for pool in pools)
        for pool in pools:
            assert mine_neighbor_ids(recs, pool) == mine_neighbor_ids_lexsort(recs, pool), pool

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_galleries(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, 4))
        recs = global_only_records(g / np.linalg.norm(g, axis=1, keepdims=True), seed=n)
        for pool in (0, 1, 2, 5):
            got = mine_neighbor_ids(recs, pool)
            assert got == mine_neighbor_ids_lexsort(recs, pool)
            assert list(got) == [r.id for r in recs]
        if n == 1:
            assert mine_neighbor_ids(recs, 5) == {recs[0].id: []}

    def test_several_row_blocks(self, monkeypatch):
        # Entries in {0, +-1/2} with four nonzeros: unit norm and every inner
        # product exact, so every row block's gemm gives the full product's
        # scores, ties included.
        rng = np.random.default_rng(12)
        n, d = 45, 8
        g = np.zeros((n, d))
        for row in g:
            row[rng.choice(d, size=4, replace=False)] = rng.choice([-0.5, 0.5], size=4)
        recs = global_only_records(g, seed=12)
        pools = self.pools(n)
        assert any(ties_at_cut(recs, pool) for pool in pools)
        want = {pool: mine_neighbor_ids_lexsort(recs, pool) for pool in pools}
        for budget in (2 * n, 7 * n, 20 * n):  # blocks of 2-3, 7-8 and 22-23 rows
            monkeypatch.setattr(training, "MINE_BLOCK_FLOATS", budget)
            for pool in pools:
                assert mine_neighbor_ids(recs, pool) == want[pool], (budget, pool)

    def test_duplicate_ids_rejected_naming_the_id(self):
        recs = global_only_records(np.eye(3), seed=13)
        recs[2] = ImageRecord(recs[0].id, 0, recs[2].global_desc, *no_locals())
        with pytest.raises(DataFormatError, match=f"record id {recs[0].id} appears more than once"):
            mine_neighbor_ids(recs, 2)


class TestTrain:
    def test_lr_zero_keeps_params_bit_identical(self):
        recs = small_dataset()
        mcfg = small_model()
        before = {n: t.data.tobytes() for n, t in init_params(mcfg, seed=0).named()}
        params, _ = train(recs, mcfg, TrainConfig(lr=0.0, epochs=1, batch_size=4, seed=0))
        after = {n: t.data.tobytes() for n, t in params.named()}
        assert before == after

    def test_history_is_reproducible_bitwise(self):
        recs = small_dataset()
        mcfg = small_model()
        tcfg = TrainConfig(lr=1e-4, epochs=2, batch_size=4, seed=7)
        p1, h1 = train(recs, mcfg, tcfg)
        p2, h2 = train(recs, mcfg, tcfg)
        assert h1 == h2
        for (n1, t1), (n2, t2) in zip(p1.named(), p2.named()):
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_loss_finite_and_recorded_each_step(self):
        recs = small_dataset()
        _, hist = train(recs, small_model(), TrainConfig(epochs=1, batch_size=4, seed=1))
        assert hist
        for i, row in enumerate(hist):
            assert row["step"] == i + 1
            assert np.isfinite(row["loss"])
            assert np.isfinite(row["grad_norm"])

    def test_grad_clip_bounds_applied_norm(self):
        recs = small_dataset()
        mcfg = small_model()
        clip = 0.1

        # Re-derive the post-clip norm by replaying one training step.
        from rrt.autograd import bce_with_logits
        from rrt.model import forward_pair_logits
        from rrt.optim import clip_global_grad_norm

        params = init_params(mcfg, seed=2)
        pairs = [(recs[0], recs[1]), (recs[0], recs[10])]
        logits = forward_pair_logits(params, mcfg, pairs)
        loss = bce_with_logits(logits, np.array([1.0, 0.0], dtype=logits.dtype))
        loss.backward()
        pre = clip_global_grad_norm(params.trainable(), clip)
        post = global_grad_norm(params.trainable())
        assert post <= clip + 1e-6
        assert pre >= post - 1e-6

    def test_single_label_rejected(self):
        recs = [r for r in small_dataset() if r.label == 0]
        with pytest.raises(ConfigError):
            train(recs, small_model(), TrainConfig(epochs=1))

    def test_steps_per_epoch_caps_work(self):
        recs = small_dataset()
        _, hist = train(
            recs, small_model(), TrainConfig(epochs=2, batch_size=2, steps_per_epoch=3, seed=0)
        )
        assert len(hist) == 6

    def test_checkpoints_and_history_written(self, tmp_path):
        recs = small_dataset()
        train(recs, small_model(), TrainConfig(epochs=2, batch_size=8, seed=0), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss_history.csv", "model.rrtm"]
        lines = (tmp_path / "loss_history.csv").read_text().strip().splitlines()
        assert lines[0] == "step,epoch,loss,grad_norm"
        assert len(lines) > 1

    def test_divergence_aborts_with_diagnostics(self, monkeypatch):
        recs = small_dataset()
        mcfg = small_model()
        params = init_params(mcfg, seed=3)
        params["head.w"].data[:] = np.nan
        monkeypatch.setattr(training, "init_params", lambda cfg, seed: params)
        with pytest.raises(TrainingDiverged) as err:
            train(recs, mcfg, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert err.value.step == 1

    @pytest.mark.parametrize("clip", [None, 0.1])
    def test_non_finite_grad_norm_aborts_before_the_update(self, monkeypatch, tmp_path, clip):
        recs = small_dataset()
        mcfg = small_model()
        params = init_params(mcfg, seed=0)
        monkeypatch.setattr(training, "init_params", lambda cfg, seed: params)
        monkeypatch.setattr(training, "global_grad_norm", lambda ps: math.inf)
        monkeypatch.setattr(training, "clip_global_grad_norm", lambda ps, max_norm: math.inf)
        with pytest.raises(TrainingDiverged, match="non-finite gradient norm at step 1") as err:
            train(recs, mcfg, TrainConfig(epochs=1, batch_size=4, seed=0, grad_clip_norm=clip), out_dir=tmp_path)
        assert np.isfinite(err.value.loss)
        assert {n: t.data.tobytes() for n, t in params.named()} == {
            n: t.data.tobytes() for n, t in init_params(mcfg, seed=0).named()
        }
        assert not any(tmp_path.iterdir())

    def test_frozen_training_bits(self, tmp_path):
        # The benchmark's train workload: the frozen corpus, model and config
        # of seed 1 at 4 steps per epoch.  The kernels of each OpenBLAS core
        # round differently, so the digests are keyed by the core that runs
        # (rrt.cli.blas_core), recorded with OpenBLAS 0.3.31; Haswell's under
        # OPENBLAS_CORETYPE=Haswell (tests/check_kernels.py).  A core with
        # no recorded digests fails, naming it.  Any change to them moves the
        # trained models' bits.
        recorded = {
            "SkylakeX": {
                "loss_history.csv": "e2399b54582752d71a06dfe1c24ff4e1acb462494cb7eea1443e9998d1681c33",
                "model.rrtm": "74a5019b3445ecbc7dfcdef28f5a6f89a188048ce78f24db701411da3c51e597",
            },
            "Haswell": {
                "loss_history.csv": "e7333ca390829426f60ff6d208dd7abef4c5ebeaf98dd94fd9267610837595a0",
                "model.rrtm": "29d901f2ba152c82bd5d2e9d648b4699aaa87fcb90b0629f44a694789e131078",
            },
        }
        core = blas_core()
        assert core in recorded, f"no frozen training digests recorded for OpenBLAS core {core}"
        _, gallery, _ = synth_generate(train_synth_config(1))
        cfg = replace(benchmark_train_config(1), steps_per_epoch=4)
        train(normalize_records(gallery), benchmark_model_config(), cfg, out_dir=tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == recorded[core]


class TestEvaluateLoss:
    def test_constant_half_model_gives_ln2(self):
        recs = small_dataset()
        mcfg = small_model()
        params = init_params(mcfg, seed=4)
        params["head.w"].data[:] = 0
        params["head.b"].data[:] = 0
        pairs = [PairSample(recs[0].id, recs[1].id, 1), PairSample(recs[0].id, recs[9].id, 1)]
        assert abs(evaluate_loss(recs, params, mcfg, pairs) - np.log(2)) < 1e-7

    def test_empty_pairs_rejected(self):
        recs = small_dataset()
        with pytest.raises(ValueError):
            evaluate_loss(recs, init_params(small_model(), 0), small_model(), [])

    def test_matches_composed_bce_over_score_pair(self):
        recs = small_dataset()
        mcfg = small_model()
        params = init_params(mcfg, seed=5)
        pairs = [
            PairSample(recs[0].id, recs[1].id, 1),
            PairSample(recs[0].id, recs[8].id, 0),
            PairSample(recs[2].id, recs[3].id, 1),
        ]
        got = evaluate_loss(recs, params, mcfg, pairs)
        by_id = {r.id: r for r in recs}
        direct = []
        for p in pairs:
            z, _ = score_pair(params, mcfg, by_id[p.anchor_id], by_id[p.partner_id])
            t = float(p.label)
            direct.append(max(z, 0) - z * t + np.log1p(np.exp(-abs(z))))
        assert abs(got - float(np.mean(direct))) < 1e-6
