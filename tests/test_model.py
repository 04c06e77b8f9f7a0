"""Pair-scorer tests: parameter accounting, input assembly, attention against
a direct 64-bit reimplementation, scoring invariances, correspondence
extraction, checkpoint round trips."""

import itertools
import os
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from rrt import model
from rrt import train as rrt_train
from rrt import autograd as ag
from rrt.autograd import Tensor
from rrt.benchmark import benchmark_model_config
from rrt.errors import ConfigError, DataFormatError, IntegrityError
from rrt.model import (
    ModelConfig,
    attention_correspondences,
    check_records,
    forward_pair_logits,
    init_params,
    load_checkpoint,
    max_weight_assignment,
    mha_forward,
    param_shapes,
    save_checkpoint,
    score_batch,
    transformer_layer,
)
from rrt.scorers import make_rrt_scorer

from gradcheck import central_difference, max_rel_err
from helpers import make_pair, make_record, params_astype, spy_forward_passes, tiny_config
from oracles import assemble_input, composed_pair_logit, mul, param_count, readout, score_pair


def default_config():
    return ModelConfig()


class TestParamCount:
    def test_default_is_published_count(self):
        assert param_count(default_config()) == 2_243_201

    def test_decomposition_recomputed_from_shapes(self):
        # Recompute every addend from first principles over the layout.
        d, d_c, d_g, n_s = 128, 1024, 2048, 7
        per_layer = 4 * (d * d + d) + 2 * (2 * d) + (d * d_c + d_c) + (d_c * d + d)
        assert per_layer == 329_856
        proj = d_g * d + d
        assert proj == 262_272
        head = d + 1
        assert head == 129
        cls_sep = 2 * d
        assert cls_sep == 256
        segments = 4 * d
        assert segments == 512
        scale = n_s * d
        assert scale == 896
        assert 6 * per_layer + proj + head + cls_sep + segments + scale == 2_243_201
        # And the model's own shape table agrees addend by addend.
        by_prefix = {}
        for name, shape, _ in param_shapes(default_config()):
            key = name.split(".")[0]
            by_prefix[key] = by_prefix.get(key, 0) + int(np.prod(shape))
        assert by_prefix["layers"] == 6 * per_layer
        assert by_prefix["global_proj"] == proj
        assert by_prefix["head"] == head
        assert by_prefix["tok"] == cls_sep
        assert by_prefix["seg"] == segments
        assert by_prefix["scale_embed"] == scale

    def test_single_layer_variant(self):
        cfg = ModelConfig(layers=1)
        assert param_count(cfg) == 329_856 + 262_272 + 129 + 256 + 512 + 896

    def test_count_equals_sum_of_tensor_sizes(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        assert param_count(cfg) == sum(t.data.size for _, t in params.named())

    def test_head_dim_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(h=3, d_h=32)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"d": 256, "h": 1, "d_h": 256}, "d_h must be at most 255 to fit a .rrtm file, got 256"),
            ({"layers": 256}, "layers must be at most 255 to fit a .rrtm file, got 256"),
            ({"d_c": 70000}, "d_c must be at most 65535 to fit a .rrtm file, got 70000"),
            ({"L": 2**32}, "L must be at most 4294967295 to fit a .rrtm file, got 4294967296"),
        ],
        ids=["d_h_256", "layers_256", "d_c_70000", "L_2**32"],
    )
    def test_sizes_beyond_the_checkpoint_header_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**kwargs)

    def test_locals_beyond_a_descriptor_record_rejected(self):
        assert ModelConfig(L=65535).L == 65535
        with pytest.raises(ConfigError, match="L must be at most 65535, the most locals a .rrtd record holds, got 65536"):
            ModelConfig(L=65536)


class TestAssembleInput:
    def test_empty_locals_layout(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(0)
        a = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, 0, cfg.n_scales)
        b = make_record(rng, 1, 1, cfg.d, cfg.d_g_raw, 0, cfg.n_scales)
        seq = assemble_input(params, cfg, a, b)
        assert seq.tokens.shape == (cfg.seq_len, cfg.d)
        valid_kinds = [k for (k, _), v in zip(seq.kinds, seq.valid_mask) if v]
        assert valid_kinds == ["cls", "global_a", "sep", "global_b"]
        assert seq.valid_mask.sum() == 4

    def test_two_locals_gives_eight_valid(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(1)
        a, b = make_pair(rng, cfg, n_a=2, n_b=2)
        seq = assemble_input(params, cfg, a, b)
        assert int(seq.valid_mask.sum()) == 1 + 1 + 2 + 2 + 2

    def test_same_record_differs_by_segment_embeddings(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(2)
        a = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, 3, cfg.n_scales)
        seq = assemble_input(params, cfg, a, a)
        toks = seq.tokens.data
        g = 1  # global token present
        d_global = toks[1] - toks[1 + g + cfg.L + 1]
        expected_g = params["seg.global_a"].data - params["seg.global_b"].data
        np.testing.assert_allclose(d_global, expected_g, atol=1e-6)
        for i in range(3):
            d_local = toks[1 + g + i] - toks[2 + g + cfg.L + g + i]
            expected_l = params["seg.local_a"].data - params["seg.local_b"].data
            np.testing.assert_allclose(d_local, expected_l, atol=1e-6)

    def test_no_global_token_shrinks_sequence(self):
        cfg = tiny_config(use_global_token=False)
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(3)
        a, b = make_pair(rng, cfg, n_a=1, n_b=1)
        seq = assemble_input(params, cfg, a, b)
        assert seq.tokens.shape[0] == 2 + 2 * cfg.L
        assert not any(k.startswith("global") for k, _ in seq.kinds)

    def test_bad_scale_index_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(4)
        a, b = make_pair(rng, cfg, n_a=1, n_b=1)
        a = replace(a, scale_idx=[cfg.n_scales])
        with pytest.raises(ConfigError, match="scale index"):
            assemble_input(params, cfg, a, b)

    def test_wrong_local_dim_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        a, b = make_pair(rng, cfg, n_a=1, n_b=1)
        a = replace(a, vecs=np.zeros((1, cfg.d + 1), dtype=np.float32))
        with pytest.raises(ConfigError, match="local dim"):
            assemble_input(params, cfg, a, b)

    def test_too_many_locals_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(6)
        a, b = make_pair(rng, cfg, n_a=cfg.L + 1, n_b=1)
        with pytest.raises(ConfigError, match="at most"):
            assemble_input(params, cfg, a, b)

    @pytest.mark.parametrize("use_global_token", [True, False])
    def test_segments_match_per_pair_layout(self, use_global_token):
        from rrt.model import _segments

        cfg = tiny_config(use_global_token=use_global_token)
        params = init_params(cfg, seed=31)
        a, b = make_pair(np.random.default_rng(31), cfg, n_a=2, n_b=3)
        kinds = [k for k, _ in assemble_input(params, cfg, a, b).kinds]
        starts = {side: pos for kind, side, pos, _ in _segments(cfg) if kind == "locals"}
        assert starts == {"a": kinds.index("local_a"), "b": kinds.index("local_b")}
        assert cfg.seq_len == len(kinds)

    def test_batched_assembly_matches_per_pair_path(self):
        # Valid tokens only: pad slots are excluded by the mask, whatever
        # they hold (TestScoring::test_padding_invariance covers the logits).
        from rrt.model import _assemble_batch

        cfg = tiny_config()
        params = init_params(cfg, seed=30)
        rng = np.random.default_rng(30)
        pairs = [make_pair(rng, cfg, n_a=int(rng.integers(0, 5)), n_b=int(rng.integers(0, 5))) for _ in range(4)]
        z, mask = _assemble_batch(params, cfg, pairs)
        assert z.data.dtype == np.float32
        for i, (a, b) in enumerate(pairs):
            seq = assemble_input(params, cfg, a, b)
            np.testing.assert_array_equal(mask[i], seq.valid_mask)
            np.testing.assert_allclose(z.data[i][mask[i]], seq.tokens.data[mask[i]], atol=1e-6)


def direct_mha_f64(z, mask, lp, h, dh):
    """Independent multi-head attention written straight from the math."""
    wq, bq = lp.wq.data, lp.bq.data
    wk, bk = lp.wk.data, lp.bk.data
    wv, bv = lp.wv.data, lp.bv.data
    wo, bo = lp.wo.data, lp.bo.data
    heads = []
    for i in range(h):
        cols = slice(i * dh, (i + 1) * dh)
        q = z @ wq[:, cols] + bq[cols]
        k = z @ wk[:, cols] + bk[cols]
        v = z @ wv[:, cols] + bv[cols]
        logits = q @ k.T / np.sqrt(dh)
        logits = np.where(mask[None, :], logits, -np.inf)
        logits = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=-1, keepdims=True)
        heads.append(p @ v)
    return np.concatenate(heads, axis=-1) @ wo + bo



class TestBatchedRecordChecks:
    """check_records checks every record of a list against the model
    config, whichever model saw the record before; the entry points that
    take records run it once per call, before any forward pass."""

    def records_with(self, cfg, bad, side):
        rng = np.random.default_rng(40)
        ok = make_record(rng, 9, 0, cfg.d, cfg.d_g_raw, 2, cfg.n_scales)
        return [bad, ok] if side == 0 else [ok, bad]

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("too_many_locals", "record 5 has 5 locals but the model takes at most 4"),
            ("global_dim", "record 5: global dim 17 but model expects 16"),
            ("local_dim", "record 5: local dim 9 but model dim is 8"),
            ("scale_high", r"record 5: scale index outside \[0, 3\)"),
            ("scale_negative", r"record 5: scale index outside \[0, 3\)"),
        ],
    )
    def test_bad_record_rejected(self, defect, message, side):
        cfg = tiny_config()
        rng = np.random.default_rng(41)
        n = cfg.L + 1 if defect == "too_many_locals" else 2
        d_g = cfg.d_g_raw + 1 if defect == "global_dim" else cfg.d_g_raw
        bad = make_record(rng, 5, 1, cfg.d, d_g, n, cfg.n_scales)
        if defect == "local_dim":
            bad = replace(bad, vecs=np.zeros((2, cfg.d + 1), dtype=np.float32))
        if defect == "scale_high":
            bad = replace(bad, scale_idx=[bad.scale_idx[0], cfg.n_scales])
        if defect == "scale_negative":
            # Scale indices are stored as u8, so -1 never reaches the model:
            # building the record rejects it, naming the record.
            with pytest.raises(DataFormatError, match=r"record 5: scale indices must be integers"):
                replace(bad, scale_idx=[-1, bad.scale_idx[1]])
            return
        with pytest.raises(ConfigError, match=message):
            check_records(cfg, self.records_with(cfg, bad, side))

    def test_record_accepted_by_one_model_rejected_by_another(self):
        wide, narrow = tiny_config(n_scales=7), tiny_config(n_scales=3)
        rng = np.random.default_rng(42)
        rec = make_record(rng, 6, 1, wide.d, wide.d_g_raw, 3, wide.n_scales)
        rec = replace(rec, scale_idx=[*rec.scale_idx[:2], 5])
        check_records(wide, self.records_with(wide, rec, 0))
        with pytest.raises(ConfigError, match=r"record 6: scale index outside \[0, 3\)"):
            check_records(narrow, self.records_with(narrow, rec, 1))

    def test_global_dim_unchecked_without_global_token(self):
        cfg = tiny_config(use_global_token=False)
        rng = np.random.default_rng(43)
        check_records(cfg, [make_record(rng, 5, 1, cfg.d, cfg.d_g_raw + 1, 2, cfg.n_scales)])

    def test_entry_points_reject_before_any_forward_pass(self, monkeypatch):
        cfg = tiny_config()
        params = init_params(cfg, seed=44)
        rng = np.random.default_rng(44)
        good = [make_record(rng, i, i % 2, cfg.d, cfg.d_g_raw, 2, cfg.n_scales) for i in range(4)]
        bad = make_record(rng, 7, 1, cfg.d, cfg.d_g_raw, cfg.L + 1, cfg.n_scales)
        calls = spy_forward_passes(monkeypatch)
        monkeypatch.setattr(rrt_train, "forward_pair_logits", model.forward_pair_logits)
        message = "record 7 has 5 locals but the model takes at most 4"
        with pytest.raises(ConfigError, match=message):
            make_rrt_scorer(params, cfg, good[:1], [*good[1:], bad])
        with pytest.raises(ConfigError, match=message):
            make_rrt_scorer(params, cfg, [bad], good)
        with pytest.raises(ConfigError, match=message):
            rrt_train.train([*good, bad], cfg, rrt_train.TrainConfig(epochs=1))
        with pytest.raises(ConfigError, match=message):
            attention_correspondences(params, cfg, good[0], bad)
        assert calls == []


class TestMHA:
    def test_single_token_attends_to_itself(self):
        cfg = tiny_config(L=1)
        params = params_astype(init_params(cfg, seed=7), cfg, np.float64)
        lp = params.layer(0)
        z = Tensor(np.random.default_rng(7).standard_normal((1, 1, cfg.d)))
        out, attn = mha_forward(lp, cfg, z, np.array([[True]]), return_attn=True)
        np.testing.assert_allclose(attn, np.ones((1, cfg.h, 1, 1)))
        v = z.data @ lp.wv.data + lp.bv.data
        np.testing.assert_allclose(out.data, v @ lp.wo.data + lp.bo.data, rtol=1e-5)

    def test_two_identical_tokens_split_attention(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=8)
        row = np.random.default_rng(8).standard_normal(cfg.d).astype(np.float32)
        z = Tensor(np.stack([row, row])[None])
        _, attn = mha_forward(params.layer(0), cfg, z, np.array([[True, True]]), return_attn=True)
        np.testing.assert_allclose(attn, 0.5, atol=1e-6)

    def test_matches_direct_formula_at_tiny_size(self):
        cfg = ModelConfig(L=1, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=2, d_g_raw=4)
        params = params_astype(init_params(cfg, seed=9), cfg, np.float64)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((3, 4))
        mask = np.array([True, True, False])
        out, _ = mha_forward(params.layer(0), cfg, Tensor(z[None]), mask[None])
        expected = direct_mha_f64(z, mask, params.layer(0), cfg.h, cfg.d_h)
        assert np.max(np.abs(out.data[0] - expected)) < 1e-5


class TestTransformerLayer:
    def test_gradient_through_one_layer(self):
        cfg = tiny_config()
        params = params_astype(init_params(cfg, seed=10), cfg, np.float64)
        rng = np.random.default_rng(10)
        z0 = rng.standard_normal((1, 6, cfg.d))
        mask = np.array([[True] * 5 + [False]])
        r = rng.standard_normal((1, 6, cfg.d))

        z = Tensor(z0, requires_grad=True)
        out, _ = transformer_layer(params.layer(0), cfg, z, mask)
        readout(out, r).backward()

        def f(v):
            zz = Tensor(v)
            o, _ = transformer_layer(params.layer(0), cfg, zz, mask)
            return float((o.data * r).sum())

        numeric = central_difference(f, z0)
        assert max_rel_err(z.grad, numeric) < 1e-4

    def test_padded_tokens_do_not_touch_cls(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        z0 = rng.standard_normal((1, 6, cfg.d)).astype(np.float32)
        mask = np.array([[True, True, True, False, False, False]])
        out1, _ = transformer_layer(params.layer(0), cfg, Tensor(z0), mask)
        z2 = z0.copy()
        z2[~mask] = rng.standard_normal((3, cfg.d)).astype(np.float32) * 100
        out2, _ = transformer_layer(params.layer(0), cfg, Tensor(z2), mask)
        assert np.max(np.abs(out1.data[0, 0] - out2.data[0, 0])) < 1e-6

    @pytest.mark.parametrize("batched", [False, True])  # one pair, or two
    @pytest.mark.parametrize("query_rows", [1, 3])
    def test_leading_query_rows_match_full_layer(self, batched, query_rows):
        cfg = tiny_config(mlp_residual=True)
        params = init_params(cfg, seed=13)
        rng = np.random.default_rng(13)
        z = rng.standard_normal((2 if batched else 1, 6, cfg.d)).astype(np.float32)
        mask = np.array([[True] * 4 + [False] * 2, [True] * 6]) if batched else np.array([[True] * 5 + [False]])
        full, full_attn = transformer_layer(params.layer(0), cfg, Tensor(z), mask, return_attn=True)
        out, attn = transformer_layer(params.layer(0), cfg, Tensor(z), mask, return_attn=True, query_rows=query_rows)
        assert out.shape == z.shape[:-2] + (query_rows, cfg.d)
        np.testing.assert_allclose(out.data, full.data[..., :query_rows, :], rtol=1e-5, atol=1e-6)
        assert attn.shape == full_attn.shape[:2] + (query_rows, 6)
        np.testing.assert_allclose(attn, full_attn[:, :, :query_rows], rtol=1e-5, atol=1e-7)

    def test_zero_mlp_erases_input_content(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=12)
        lp = params.layer(0)
        lp.w1.data[:] = 0
        lp.w2.data[:] = 0
        rng = np.random.default_rng(12)
        out, _ = transformer_layer(lp, cfg, Tensor(rng.standard_normal((1, 4, cfg.d)).astype(np.float32)), np.ones((1, 4), bool))
        # Every row collapses to LayerNorm of the bias vector b2.
        b2 = lp.b2.data.astype(np.float64)
        mu, var = b2.mean(), b2.var()
        expected = (b2 - mu) / np.sqrt(var + 1e-5) * lp.ln2_g.data + lp.ln2_b.data
        for row in out.data[0]:
            np.testing.assert_allclose(row, expected, atol=1e-5)


class TestScoring:
    def test_zero_head_scores_half(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=13)
        params["head.w"].data[:] = 0
        params["head.b"].data[:] = 0
        rng = np.random.default_rng(13)
        a, b = make_pair(rng, cfg, n_a=2, n_b=3)
        logit, sim = score_pair(params, cfg, a, b)
        assert logit == 0.0
        assert sim == 0.5

    def test_local_permutation_leaves_logit(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=14)
        rng = np.random.default_rng(14)
        a, b = make_pair(rng, cfg, n_a=4, n_b=4)
        base, _ = score_pair(params, cfg, a, b)
        for perm in ([3, 1, 0, 2], [1, 0, 3, 2]):
            b2 = replace(b, vecs=b.vecs[perm], uv=b.uv[perm], scale_idx=b.scale_idx[perm])
            permuted, _ = score_pair(params, cfg, a, b2)
            assert abs(permuted - base) < 1e-4

    def test_padding_invariance(self):
        rng = np.random.default_rng(15)
        small = tiny_config(L=3)
        big = tiny_config(L=7)
        params = init_params(small, seed=15)
        a, b = make_pair(rng, small, n_a=3, n_b=2)
        s1, _ = score_pair(params, small, a, b)
        s2, _ = score_pair(params, big, a, b)
        assert abs(s1 - s2) < 1e-5

    def test_batch_of_one_equals_score_pair(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=16)
        rng = np.random.default_rng(16)
        a, b = make_pair(rng, cfg, n_a=2, n_b=2)
        _, sim = score_pair(params, cfg, a, b)
        assert score_batch(params, cfg, a, [b]) == [sim]

    def test_batch_matches_sequential_scoring(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=17)
        rng = np.random.default_rng(17)
        q = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, 3, cfg.n_scales)
        cands = [
            make_record(rng, i + 1, 1, cfg.d, cfg.d_g_raw, int(rng.integers(0, cfg.L + 1)), cfg.n_scales)
            for i in range(7)
        ]
        batched = score_batch(params, cfg, q, cands)
        single = [score_pair(params, cfg, q, c)[1] for c in cands]
        np.testing.assert_allclose(batched, single, atol=1e-5)

    def test_duplicate_candidate_scores_identically(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=18)
        rng = np.random.default_rng(18)
        q, c = make_pair(rng, cfg, n_a=2, n_b=2)
        sims = score_batch(params, cfg, q, [c, c])
        assert sims[0] == sims[1]

    def test_empty_candidates(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=19)
        rng = np.random.default_rng(19)
        q = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, 1, cfg.n_scales)
        assert score_batch(params, cfg, q, []) == []

    def test_both_directions_are_probabilities(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=20)
        rng = np.random.default_rng(20)
        a, b = make_pair(rng, cfg, n_a=2, n_b=3)
        _, sab = score_pair(params, cfg, a, b)
        _, sba = score_pair(params, cfg, b, a)
        assert 0.0 < sab < 1.0 and 0.0 < sba < 1.0


def force_chunking(monkeypatch, size, cpus):
    """score_batch chunks of `size` pairs at tiny_config() on a machine of
    `cpus` CPUs; returns {first candidate id: (batch size, ran on the calling
    thread)} of the forward passes, which is the same in whatever order the
    worker threads start them."""
    cfg = tiny_config()
    monkeypatch.setattr(model, "SCORE_CHUNK_FLOATS", size * cfg.seq_len * cfg.d)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = {}
    forward = model.forward_pair_logits

    def spy(params, cfg, pairs):
        calls[pairs[0][1].id] = (len(pairs), threading.current_thread() is threading.main_thread())
        return forward(params, cfg, pairs)

    monkeypatch.setattr(model, "forward_pair_logits", spy)
    return calls


def chunk_inputs(cfg, seed, n):
    rng = np.random.default_rng(seed)
    q = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, 3, cfg.n_scales)
    cands = [
        make_record(rng, i + 1, 1, cfg.d, cfg.d_g_raw, int(rng.integers(0, cfg.L + 1)), cfg.n_scales)
        for i in range(n)
    ]
    return q, cands


def first_byte_difference(one: list[float], two: list[float]) -> str:
    """Where the scores of one and of two workers first differ in their
    float64 bytes, with both values."""
    for i, (a, b) in enumerate(zip(one, two)):
        if np.float64(a).tobytes() != np.float64(b).tobytes():
            return f"score {i} differs: {a!r} with one worker, {b!r} with two"
    return f"{len(one)} scores with one worker, {len(two)} with two"


class TestChunkedScoring:
    """score_batch splits candidates into a fixed partition; the chunks run
    on the calling thread or on a small pool with the same bytes."""

    @pytest.mark.parametrize("size", [2, 3, 4, 7, 8, 16])
    def test_partition_covers_in_order_without_lone_pairs(self, size):
        for n in range(1, 201):
            chunks = model.score_chunks(n, size)
            assert [i for c in chunks for i in range(n)[c]] == list(range(n)), (n, size)
            widths = [c.stop - c.start for c in chunks]
            assert all(w <= size + 1 for w in widths), (n, size)
            assert n == 1 or min(widths) >= 2, (n, size, widths)

    def test_one_and_two_workers_give_equal_bytes(self, monkeypatch):
        cfg = tiny_config()
        params = init_params(cfg, seed=50)
        q, cands = chunk_inputs(cfg, 50, 11)
        got = {}
        for cpus in (1, 2):
            calls = force_chunking(monkeypatch, 2, cpus)
            got[cpus] = score_batch(params, cfg, q, cands)
            seen = f"{cpus} CPU(s), first candidate id: (chunk size, ran on the main thread): {calls}"
            assert {first: size for first, (size, _) in calls.items()} == {1: 2, 3: 2, 5: 2, 7: 2, 9: 3}, seen
            assert {main for _, main in calls.values()} == {cpus == 1}, seen
        assert np.array(got[1]).tobytes() == np.array(got[2]).tobytes(), first_byte_difference(got[1], got[2])
        single = [score_pair(params, cfg, q, c)[1] for c in cands]
        np.testing.assert_allclose(got[2], single, atol=1e-5)

    def test_single_chunk_runs_on_calling_thread(self, monkeypatch):
        cfg = tiny_config()
        q, cands = chunk_inputs(cfg, 51, 3)
        calls = force_chunking(monkeypatch, 2, 2)
        score_batch(init_params(cfg, seed=51), cfg, q, cands)
        assert calls == {1: (3, True)}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_chunk_raises_its_error(self, monkeypatch, cpus):
        # Chunks of two over candidates 1..8: the forward pass fails in the
        # third chunk (candidate 6) and in the fourth (candidate 8).
        cfg = tiny_config()
        params = init_params(cfg, seed=52)
        q, cands = chunk_inputs(cfg, 52, 8)
        force_chunking(monkeypatch, 2, cpus)
        forward = model.forward_pair_logits

        def failing(params, cfg, pairs):
            bad = [c.id for _, c in pairs if c.id in (6, 8)]
            if bad:
                raise ValueError(f"candidate {bad[0]} failed")
            return forward(params, cfg, pairs)

        monkeypatch.setattr(model, "forward_pair_logits", failing)
        with pytest.raises(ValueError) as exc:
            score_batch(params, cfg, q, cands)
        assert str(exc.value) == "candidate 6 failed"

    @pytest.mark.parametrize(
        "cfg, widths",
        [(benchmark_model_config(), [50, 50]), (ModelConfig(), [2] * 50)],
        ids=["frozen_T36", "paper_T1004"],
    )
    def test_top100_partition(self, monkeypatch, cfg, widths):
        # The forward pass is replaced, so the paper-scale case costs nothing.
        calls = []

        def fake_forward(params, cfg, pairs):
            calls.append(len(pairs))
            return Tensor(np.zeros(len(pairs), np.float32))

        monkeypatch.setattr(model, "forward_pair_logits", fake_forward)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert score_batch(None, cfg, object(), [object()] * 100) == [0.5] * 100
        assert calls == widths

    def test_map_in_order_raises_first_chunk_error_when_a_later_chunk_fails_first(
        self, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        later_failed = threading.Event()
        threads = []

        def fn(i):
            threads.append(threading.current_thread())
            if i == 1:
                later_failed.set()
                raise ValueError("chunk 1")
            if i == 0:
                assert later_failed.wait(10)
                raise ValueError("chunk 0")
            return i

        with pytest.raises(ValueError, match="chunk 0"):
            model.map_in_order(fn, [0, 1, 2, 3])
        assert later_failed.is_set()
        assert threading.main_thread() not in threads

    def test_calls_share_one_kept_pool(self, monkeypatch):
        # Both chunks of a call wait for each other, so each call needs two
        # pool threads at once: the same two, call after call.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        both = threading.Barrier(2, timeout=10)
        per_call = []

        def fn(i):
            both.wait()
            return threading.current_thread()

        for _ in range(10):
            per_call.append(set(model.map_in_order(fn, [0, 1])))
        assert len(per_call[0]) == model.MAX_SCORE_WORKERS
        assert per_call == [per_call[0]] * 10
        assert threading.main_thread() not in per_call[0]

    def test_nested_call_runs_on_its_worker(self, monkeypatch):
        # Every pool thread is busy with an outer chunk when it makes the
        # inner call, which a full pool could never serve.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        both = threading.Barrier(2, timeout=10)
        got = []

        def inner(j):
            return j, threading.current_thread()

        def outer(i):
            both.wait()
            return [(i, j, thread is threading.current_thread())
                    for j, thread in model.map_in_order(inner, range(3))]

        caller = threading.Thread(target=lambda: got.append(model.map_in_order(outer, [0, 1])))
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert got == [[[(i, j, True) for j in range(3)] for i in range(2)]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_on_a_pool_of_its_own(self, monkeypatch):
        # The child inherits the parent's pool object, here with both threads
        # started and idle, but none of the threads.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        both = threading.Barrier(2, timeout=10)
        assert model.map_in_order(lambda i: both.wait() >= 0, [0, 1]) == [True, True]
        pid = os.fork()
        if pid == 0:  # the child exits 0 only if its call returns in time
            signal.alarm(30)
            code = 1
            try:
                code = 0 if model.map_in_order(abs, [-3, -4]) == [3, 4] else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_calls_give_serial_bytes(self, monkeypatch):
        # More callers than cores, all sharing the one two-worker pool, with
        # thread switches forced often: scores and grad mode stay untouched.
        cfg = tiny_config()
        params = init_params(cfg, seed=53)
        q, cands = chunk_inputs(cfg, 53, 9)
        force_chunking(monkeypatch, 2, 1)
        want = np.array(score_batch(params, cfg, q, cands)).tobytes()
        force_chunking(monkeypatch, 2, 2)
        got = []

        def caller():
            for _ in range(5):
                got.append(np.array(score_batch(params, cfg, q, cands)).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 20
        w = Tensor([1.0], requires_grad=True)
        assert mul(w, w)._grad_fn is not None


def test_pin_heap_sets_the_thresholds_once_under_concurrent_callers(monkeypatch):
    # A stand-in C library counts the mallopt calls and is slow to open;
    # more callers than cores, released together with thread switches
    # forced often, all race for the first pin.
    opened, calls = [], []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def open_libc(name):
        opened.append(name)
        time.sleep(0.01)
        return type("Libc", (), {"gnu_get_libc_version": None, "mallopt": staticmethod(mallopt)})

    monkeypatch.setattr(model.ctypes, "CDLL", open_libc)
    monkeypatch.setattr(model, "_heap_pinned", None)
    together = threading.Barrier(8, timeout=10)
    got = []

    def caller():
        together.wait()
        got.append(model.pin_heap())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * 8
    assert opened == [None]
    assert calls == [(model._M_MMAP_THRESHOLD, model._MMAP_THRESHOLD), (model._M_TRIM_THRESHOLD, model._TRIM_THRESHOLD)]


def mixed_pairs(cfg, seed):
    """Five pairs with random local counts in [0, cfg.L] per side, then one
    with no locals against a full side: padded and full sequences mixed."""
    rng = np.random.default_rng(seed)
    return [
        make_pair(rng, cfg, n_a=int(rng.integers(0, cfg.L + 1)), n_b=int(rng.integers(0, cfg.L + 1)))
        for _ in range(5)
    ] + [make_pair(rng, cfg, n_a=0, n_b=cfg.L)]


def full_layer_forward(params, cfg, pairs):
    """(logits, last layer's attention [B, h, T, T]) with every layer, the
    last included, run over all T rows by transformer_layer: the reference
    for the CLS-only last layer."""
    z, mask = model._assemble_batch(params, cfg, pairs)
    for i in range(cfg.layers):
        z, attn = transformer_layer(params.layer(i), cfg, z, mask, return_attn=i == cfg.layers - 1)
    head = ag.reshape(params["head.w"], (cfg.d, 1))
    return ag.reshape(ag.affine(z[:, 0, :], head, params["head.b"]), (len(pairs),)), attn


class TestClsOnlyLastLayer:
    """The last layer computes only the CLS row; the same layers run over
    every row are the reference."""

    @pytest.mark.parametrize("use_global_token", [True, False])
    @pytest.mark.parametrize("mlp_residual", [False, True])
    def test_logits_match_full_last_layer(self, use_global_token, mlp_residual):
        cfg = tiny_config(use_global_token=use_global_token, mlp_residual=mlp_residual)
        params = init_params(cfg, seed=50)
        pairs = mixed_pairs(cfg, seed=50)
        cls_only = forward_pair_logits(params, cfg, pairs)
        full, _ = full_layer_forward(params, cfg, pairs)
        assert cls_only.data.dtype == np.float32
        np.testing.assert_allclose(cls_only.data, full.data, rtol=1e-5, atol=1e-6)

    def test_gradients_match_full_last_layer(self):
        cfg = tiny_config(layers=3, mlp_residual=True)
        pairs = mixed_pairs(cfg, seed=51)
        r = np.random.default_rng(51).standard_normal(len(pairs))
        grads = []
        for forward in (forward_pair_logits, lambda *args: full_layer_forward(*args)[0]):
            params = params_astype(init_params(cfg, seed=51), cfg, np.float64)
            readout(forward(params, cfg, pairs), r).backward()
            grads.append({name: t.grad for name, t in params.named()})
        for name, g in grads[0].items():
            np.testing.assert_allclose(g, grads[1][name], rtol=1e-9, atol=1e-12, err_msg=name)

    def test_full_last_layer_returns_full_map(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=52)
        pairs = mixed_pairs(cfg, seed=52)
        _, attn = full_layer_forward(params, cfg, pairs)
        T = cfg.seq_len
        assert attn.shape == (len(pairs), cfg.h, T, T)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, rtol=1e-5)


class TestPositionCodes:
    def test_padded_forward_matches_composed_oracle(self):
        # Padded and full pairs in one batch, against per-pair tokens with
        # zero pads run through the composed layers, in float64.
        cfg = tiny_config(use_pos_embed=True)
        params = params_astype(init_params(cfg, seed=54), cfg, np.float64)
        pairs = mixed_pairs(cfg, seed=54)
        got = forward_pair_logits(params, cfg, pairs).data
        want = [composed_pair_logit(params, cfg, a, b) for a, b in pairs]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        # the codes reach the logits, so the comparison covers them
        plain = forward_pair_logits(params, replace(cfg, use_pos_embed=False), pairs).data
        assert np.abs(got - plain).max() > 1e-3


class TestAssignment:
    def test_single_cell(self):
        assert max_weight_assignment(np.array([[0.42]])) == [(0, 0)]

    def test_identity_affinity_matches_diagonal(self):
        assert max_weight_assignment(np.eye(3)) == [(0, 0), (1, 1), (2, 2)]

    def test_random_5x5_against_exhaustive_permutations(self):
        rng = np.random.default_rng(21)
        aff = rng.uniform(0, 1, size=(5, 5))
        pairs = max_weight_assignment(aff)
        got = sum(aff[i, j] for i, j in pairs)
        best = max(
            sum(aff[i, p[i]] for i in range(5))
            for p in itertools.permutations(range(5))
        )
        assert abs(got - best) < 1e-12


class TestCorrespondences:
    def test_empty_side_gives_empty(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=22)
        rng = np.random.default_rng(22)
        a = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, 0, cfg.n_scales)
        b = make_record(rng, 1, 1, cfg.d, cfg.d_g_raw, 2, cfg.n_scales)
        assert attention_correspondences(params, cfg, a, b) == []

    def test_single_locals_forced_pair(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=23)
        rng = np.random.default_rng(23)
        a, b = make_pair(rng, cfg, n_a=1, n_b=1)
        matches = attention_correspondences(params, cfg, a, b)
        assert len(matches) == 1
        i, j, w = matches[0]
        assert (i, j) == (0, 0)
        assert 0.0 <= w <= 1.0

    def test_one_to_one_over_actual_locals(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=24)
        rng = np.random.default_rng(24)
        a, b = make_pair(rng, cfg, n_a=4, n_b=3)
        matches = attention_correspondences(params, cfg, a, b)
        assert len(matches) == 3
        assert len({i for i, _, _ in matches}) == 3
        assert len({j for _, j, _ in matches}) == 3
        assert all(0 <= i < 4 and 0 <= j < 3 for i, j, _ in matches)

    def test_weights_are_the_head_averaged_last_layer_map(self):
        # locals of a start after CLS and a's global token, locals of b after
        # SEP and b's global token
        cfg = tiny_config()
        params = init_params(cfg, seed=28)
        a, b = make_pair(np.random.default_rng(28), cfg, n_a=3, n_b=2)
        with ag.no_grad():
            _, attn = full_layer_forward(params, cfg, [(a, b)])
        m = attn[0].mean(axis=0)
        a0, b0 = 2, 2 + cfg.L + 2
        affinity = m[a0 : a0 + 3, b0 : b0 + 2]
        want = [(i, j, float(affinity[i, j])) for i, j in max_weight_assignment(affinity)]
        assert attention_correspondences(params, cfg, a, b) == want


class TestCheckpoint:
    def test_round_trip_preserves_count_and_scores(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=25)
        rng = np.random.default_rng(25)
        a, b = make_pair(rng, cfg, n_a=2, n_b=2)
        before = score_pair(params, cfg, a, b)
        p = tmp_path / "m.rrtm"
        save_checkpoint(params, cfg, p)
        loaded, cfg2 = load_checkpoint(p)
        assert cfg2 == cfg
        assert sum(t.data.size for _, t in loaded.named()) == param_count(cfg)
        for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()
            assert t2.data.flags.writeable  # the optimizer updates tensors in place
        assert score_pair(loaded, cfg2, a, b) == before

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "m.rrtm"
        save_checkpoint(init_params(cfg, seed=26), cfg, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-20])
        with pytest.raises(DataFormatError, match="truncated") as exc:
            load_checkpoint(p)
        # the cut falls in the data of the last tensor, scale_embed.table
        assert exc.value.offset == len(raw) - 4 * cfg.n_scales * cfg.d

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "m.rrtm"
        save_checkpoint(init_params(cfg, seed=27), cfg, p)
        raw = bytearray(p.read_bytes())
        # Patch the tensor-count field so the table disagrees with the config.
        count_off = 4 + 4 + 17
        raw[count_off] ^= 0x01
        p.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            load_checkpoint(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.rrtm"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(p)
