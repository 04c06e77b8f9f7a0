"""Pair-scorer tests: parameter accounting, input assembly, attention against
a direct 64-bit reimplementation, scoring invariances, correspondence
extraction, checkpoint round trips."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from rrt.autograd import Tensor
from rrt.errors import ConfigError, DataFormatError, IntegrityError
from rrt.model import (
    ModelConfig,
    attention_correspondences,
    forward_pair_logits,
    init_params,
    load_checkpoint,
    max_weight_assignment,
    mha_forward,
    param_count,
    param_shapes,
    save_checkpoint,
    score_batch,
    transformer_layer,
)

from gradcheck import central_difference, max_rel_err
from helpers import make_pair, make_record, tiny_config
from oracles import assemble_input, score_pair


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
        assert param_count(cfg) == sum(t.size for _, t in params.named())

    def test_head_dim_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(h=3, d_h=32)


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
        from rrt.model import _assemble_batch

        cfg = tiny_config()
        params = init_params(cfg, seed=30)
        rng = np.random.default_rng(30)
        pairs = [make_pair(rng, cfg, n_a=int(rng.integers(0, 5)), n_b=int(rng.integers(0, 5))) for _ in range(4)]
        z, mask = _assemble_batch(params, cfg, pairs, np.float32)
        for i, (a, b) in enumerate(pairs):
            seq = assemble_input(params, cfg, a, b)
            np.testing.assert_allclose(z.data[i], seq.tokens.data, atol=1e-6)
            np.testing.assert_array_equal(mask[i], seq.valid_mask)


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
    """forward_pair_logits checks every record of the batch against the
    model config, whichever model saw the record before."""

    def batch_with(self, cfg, bad, side):
        rng = np.random.default_rng(40)
        ok = make_record(rng, 9, 0, cfg.d, cfg.d_g_raw, 2, cfg.n_scales)
        return [(ok, ok), (bad, ok) if side == 0 else (ok, bad)]

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
        params = init_params(cfg, seed=41)
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
            forward_pair_logits(params, cfg, self.batch_with(cfg, bad, side))

    def test_record_accepted_by_one_model_rejected_by_another(self):
        wide, narrow = tiny_config(n_scales=7), tiny_config(n_scales=3)
        rng = np.random.default_rng(42)
        rec = make_record(rng, 6, 1, wide.d, wide.d_g_raw, 3, wide.n_scales)
        rec = replace(rec, scale_idx=[*rec.scale_idx[:2], 5])
        forward_pair_logits(init_params(wide, seed=42), wide, self.batch_with(wide, rec, 0))
        with pytest.raises(ConfigError, match=r"record 6: scale index outside \[0, 3\)"):
            forward_pair_logits(init_params(narrow, seed=42), narrow, self.batch_with(narrow, rec, 1))


class TestMHA:
    def test_single_token_attends_to_itself(self):
        cfg = tiny_config(L=1)
        params = init_params(cfg, seed=7).astype(np.float64, cfg)
        lp = params.layer(0)
        z = Tensor(np.random.default_rng(7).standard_normal((1, cfg.d)))
        out, attn = mha_forward(lp, cfg, z, np.array([True]), return_attn=True)
        np.testing.assert_allclose(attn, np.ones((1, cfg.h, 1, 1)))
        v = z.data @ lp.wv.data + lp.bv.data
        np.testing.assert_allclose(out.data, v @ lp.wo.data + lp.bo.data, rtol=1e-5)

    def test_two_identical_tokens_split_attention(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=8)
        row = np.random.default_rng(8).standard_normal(cfg.d).astype(np.float32)
        z = Tensor(np.stack([row, row]))
        _, attn = mha_forward(params.layer(0), cfg, z, np.array([True, True]), return_attn=True)
        np.testing.assert_allclose(attn, 0.5, atol=1e-6)

    def test_matches_direct_formula_at_tiny_size(self):
        cfg = ModelConfig(L=1, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=2, d_g_raw=4)
        params = init_params(cfg, seed=9).astype(np.float64, cfg)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((3, 4))
        mask = np.array([True, True, False])
        out, _ = mha_forward(params.layer(0), cfg, Tensor(z), mask)
        expected = direct_mha_f64(z, mask, params.layer(0), cfg.h, cfg.d_h)
        assert np.max(np.abs(out.data - expected)) < 1e-5


class TestTransformerLayer:
    def test_gradient_through_one_layer(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=10).astype(np.float64, cfg)
        rng = np.random.default_rng(10)
        z0 = rng.standard_normal((6, cfg.d))
        mask = np.array([True] * 5 + [False])
        readout = rng.standard_normal((6, cfg.d))

        z = Tensor(z0, requires_grad=True)
        out, _ = transformer_layer(params.layer(0), cfg, z, mask)
        (out * Tensor(readout)).sum().backward()

        def f(v):
            zz = Tensor(v)
            o, _ = transformer_layer(params.layer(0), cfg, zz, mask)
            return float((o.data * readout).sum())

        numeric = central_difference(f, z0)
        assert max_rel_err(z.grad, numeric) < 1e-4

    def test_padded_tokens_do_not_touch_cls(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        z0 = rng.standard_normal((6, cfg.d)).astype(np.float32)
        mask = np.array([True, True, True, False, False, False])
        out1, _ = transformer_layer(params.layer(0), cfg, Tensor(z0), mask)
        z2 = z0.copy()
        z2[~mask] = rng.standard_normal((3, cfg.d)).astype(np.float32) * 100
        out2, _ = transformer_layer(params.layer(0), cfg, Tensor(z2), mask)
        assert np.max(np.abs(out1.data[0] - out2.data[0])) < 1e-6

    def test_zero_mlp_erases_input_content(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=12)
        lp = params.layer(0)
        lp.w1.data[:] = 0
        lp.w2.data[:] = 0
        rng = np.random.default_rng(12)
        out, _ = transformer_layer(lp, cfg, Tensor(rng.standard_normal((4, cfg.d)).astype(np.float32)), np.ones(4, bool))
        # Every row collapses to LayerNorm of the bias vector b2.
        b2 = lp.b2.data.astype(np.float64)
        mu, var = b2.mean(), b2.var()
        expected = (b2 - mu) / np.sqrt(var + 1e-5) * lp.ln2_g.data + lp.ln2_b.data
        for row in out.data:
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
        assert sum(t.size for _, t in loaded.named()) == param_count(cfg)
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
