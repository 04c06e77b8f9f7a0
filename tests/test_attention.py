"""The fused attention op: bit-identical to the composed reference path in
float32 across tile and query-row block boundaries wherever it keeps the
probabilities, and within float32 rounding of it in FlashAttention form (no
grad, no probabilities); fewer queries than keys equal to the full op's
leading rows, gradients against central differences and against the
composed path, masked and all-masked keys, and the memory bounds that
motivate the tiling."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from rrt import autograd as ag
from rrt.autograd import Tensor
from rrt.model import init_params, mha_forward

from gradcheck import central_difference, max_rel_err
from helpers import params_astype, tiny_config
from oracles import composed_mha_forward, readout


def mixed_mask(cfg, B):
    """Key masks for B pairs: even pairs unpadded, odd pairs padded."""
    T = cfg.seq_len
    mask = np.ones((B, T), dtype=bool)
    mask[1::2, T // 2 + 1 :] = False
    mask[1::2, 2] = False
    return mask


def two_branch_spans(B, h, tile):
    """The tile spans as a fork on tile >= h computed them: whole pairs with
    every head, else one pair's heads in runs of tile."""
    if tile >= h:
        step = tile // h
        return [(np.s_[b : b + step], slice(None)) for b in range(0, B, step)]
    return [(np.s_[b : b + 1], np.s_[c : c + tile]) for b in range(B) for c in range(0, h, tile)]


class TestSpans:
    @pytest.mark.parametrize(
        "Tq, T", [(36, 36), (1, 36), (1004, 1004), (1, 1004)],
        ids=["frozen", "frozen_cls_only", "paper", "paper_cls_only"],
    )
    def test_span_list_matches_two_branch_rule(self, Tq, T):
        tile = max(1, ag.ATTENTION_TILE_FLOATS // (Tq * T))
        for B in (1, 2, 3, 16, 50, 100):
            self.check(B, 4, tile)

    def test_partial_tiles_match_two_branch_rule(self):
        for B in (1, 5):
            for h in (3, 4):
                for tile in range(1, 10):
                    self.check(B, h, tile)

    @staticmethod
    def check(B, h, tile):
        got = [(bs.indices(B), hs.indices(h)) for bs, hs in ag._spans(B, h, tile)]
        want = [(bs.indices(B), hs.indices(h)) for bs, hs in two_branch_spans(B, h, tile)]
        assert got == want, (B, h, tile)


class TestMatchesComposedPath:
    @pytest.mark.parametrize("slices_per_tile", [1, 2, 4, 64])
    def test_float32_bit_identical_across_tiles(self, monkeypatch, slices_per_tile):
        # h=2: one slice per tile splits each pair's heads, two put each
        # pair in its own tile (all-valid tiles skip masking), four leave a
        # partial last tile.  d_h=6 keeps the 1/sqrt(d_h) scale inexact, so
        # scaling before instead of after Q.K^T would change bits.
        cfg = tiny_config(d=12, d_h=6)
        T = cfg.seq_len
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", slices_per_tile * T * T)
        params = init_params(cfg, seed=21)
        rng = np.random.default_rng(21)
        B = 5
        z = rng.standard_normal((B, T, cfg.d)).astype(np.float32)
        mask = mixed_mask(cfg, B)

        out, attn = mha_forward(params.layer(0), cfg, Tensor(z), mask, return_attn=True)
        ref, ref_attn = composed_mha_forward(params.layer(0), cfg, Tensor(z), mask, return_attn=True)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == ref.data.tobytes()
        assert attn.shape == (B, cfg.h, T, T)
        assert attn.tobytes() == ref_attn.tobytes()

    def test_gradients_match_composed_path(self, monkeypatch):
        cfg = tiny_config()
        T = cfg.seq_len
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", 4 * T * T)
        rng = np.random.default_rng(22)
        B = 3
        z0 = rng.standard_normal((B, T, cfg.d))
        r = rng.standard_normal((B, T, cfg.d))
        mask = mixed_mask(cfg, B)

        grads = []
        for forward in (mha_forward, composed_mha_forward):
            params = params_astype(init_params(cfg, seed=22), cfg, np.float64)
            z = Tensor(z0, requires_grad=True)
            out, _ = forward(params.layer(0), cfg, z, mask)
            readout(out, r).backward()
            lp = params.layer(0)
            grads.append([z.grad] + [getattr(lp, n).grad for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")])
        for fused, composed in zip(*grads):
            np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-12)


class TestQueryRowBlocks:
    """Budgets below one slice's T x T logits: every slice runs in blocks of
    query rows.  L=6 gives T=16; at most 6 and 5 rows per block make blocks
    of 5/5/6 and 4/4/4/4 rows."""

    @pytest.mark.parametrize("block_rows", [6, 5])
    def test_float32_bit_identical_with_probs(self, monkeypatch, block_rows):
        cfg = tiny_config(L=6, d=12, d_h=6)
        T = cfg.seq_len
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", block_rows * T)
        params = init_params(cfg, seed=24)
        rng = np.random.default_rng(24)
        B = 3
        z = rng.standard_normal((B, T, cfg.d)).astype(np.float32)
        mask = mixed_mask(cfg, B)

        ref, ref_attn = composed_mha_forward(params.layer(0), cfg, Tensor(z), mask, return_attn=True)
        # Without recording or return_attn the op runs in FlashAttention
        # form (normalised after P.v; base 2 on the unpadded pairs' tiles),
        # which rounds differently: it is held to twice the float32 composed
        # path's own distance from the float64 composed path (6.2e-8 against
        # 4.9e-8 at these sizes).
        with ag.no_grad():
            exact, _ = composed_mha_forward(
                params_astype(params, cfg, np.float64).layer(0), cfg, Tensor(z.astype(np.float64)), mask
            )
        bound = 2 * np.abs(ref.data - exact.data).max()
        for recording in (False, True):  # the parameters require grad
            for return_attn in (False, True):
                with contextlib.nullcontext() if recording else ag.no_grad():
                    out, attn = mha_forward(params.layer(0), cfg, Tensor(z), mask, return_attn=return_attn)
                if recording or return_attn:
                    assert out.data.tobytes() == ref.data.tobytes()
                else:
                    assert attn is None
                    assert np.abs(out.data - exact.data).max() <= bound
            assert attn.tobytes() == ref_attn.tobytes()

    def test_gradients_match_composed_path(self, monkeypatch):
        cfg = tiny_config(L=6)
        T = cfg.seq_len
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", 5 * T)
        rng = np.random.default_rng(26)
        B = 3
        z0 = rng.standard_normal((B, T, cfg.d))
        r = rng.standard_normal((B, T, cfg.d))
        mask = mixed_mask(cfg, B)

        grads = []
        for forward in (mha_forward, composed_mha_forward):
            params = params_astype(init_params(cfg, seed=26), cfg, np.float64)
            z = Tensor(z0, requires_grad=True)
            out, _ = forward(params.layer(0), cfg, z, mask)
            readout(out, r).backward()
            lp = params.layer(0)
            grads.append([z.grad] + [getattr(lp, n).grad for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")])
        for fused, composed in zip(*grads):
            assert fused.dtype == np.float64
            np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-12)

    def test_peak_below_one_slice_of_logits_without_grad(self, monkeypatch):
        B, h, T, dh = 2, 2, 96, 4
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", 20 * T)
        slice_bytes = T * T * 4
        rng = np.random.default_rng(27)
        q, k, v = (Tensor(rng.standard_normal((B, h, T, dh)).astype(np.float32)) for _ in range(3))
        mask = np.ones((B, 1, T), dtype=bool)
        mask[1, :, T // 3 :] = False

        tracemalloc.start()
        try:
            with ag.no_grad():
                ag.attention(q, k, v, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slice_bytes


class TestFlashForm:
    """Without recording or return_probs the op scales the queries (by
    log2(e)/sqrt(d_h) and takes exp2 where a tile has no masked key) and
    divides the context by the row sums: in float32 it stays finite, leaves
    pairs with no valid key exactly zero, and matches the float64 op on the
    same inputs."""

    @pytest.mark.parametrize("Tq", [16, 3, 1])
    @pytest.mark.parametrize("budget_rows", [None, 5, 1])  # whole slices, 5-row blocks, 1-row blocks
    @pytest.mark.parametrize("masked", [False, True])
    def test_finite_inert_and_close_to_float64(self, monkeypatch, Tq, budget_rows, masked):
        B, h, T, dh = 3, 2, 16, 6
        if budget_rows is not None:
            monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", budget_rows * T)
        rng = np.random.default_rng(30)
        q = rng.standard_normal((B, h, Tq, dh)).astype(np.float32)
        k, v = (rng.standard_normal((B, h, T, dh)).astype(np.float32) for _ in range(2))
        mask = np.ones((B, 1, T), dtype=bool)
        if masked:
            mask[1, :, T // 2 :] = False
            mask[1, :, 2] = False
            mask[2] = False  # no valid key at all
        with ag.no_grad():
            out, probs = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask)
        exact, _ = ag.attention(*(Tensor(x.astype(np.float64)) for x in (q, k, v)), mask, return_probs=True)
        assert probs is None and out.data.dtype == np.float32
        assert np.isfinite(out.data).all()
        if masked:
            assert not out.data[2].any()
        np.testing.assert_allclose(out.data, exact.data, rtol=1e-6, atol=1e-6)

    def test_exp2_only_on_tiles_without_masked_keys(self, monkeypatch):
        # np.exp2 runs a slow path on inputs below -126, masked keys' -inf
        # among them, so a tile with masked keys must take np.exp.
        B, h, T, dh = 3, 2, 16, 6
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", h * T * T)  # one pair per tile
        calls, exp2 = [], np.exp2

        def spy(z, out=None):
            calls.append(bool(np.isneginf(z).any()))
            return exp2(z, out=out)

        monkeypatch.setattr(np, "exp2", spy)
        rng = np.random.default_rng(31)
        q, k, v = (Tensor(rng.standard_normal((B, h, T, dh)).astype(np.float32)) for _ in range(3))
        mask = np.ones((B, 1, T), dtype=bool)
        mask[1, :, T // 2 :] = False
        with ag.no_grad():
            ag.attention(q, k, v, mask)
        assert calls == [False, False]  # pairs 0 and 2


class TestLeadingQueryRows:
    """q holds Tq < T query rows against all T keys and values: the result
    equals the first Tq rows of the full op, in context and probabilities."""

    @pytest.mark.parametrize("Tq", [1, 3, 15])
    @pytest.mark.parametrize("budget_rows", [None, 4, 1])  # whole slices, 4-row blocks, 1-row blocks
    @pytest.mark.parametrize("masked", [False, True])
    def test_rows_match_full_op(self, monkeypatch, Tq, budget_rows, masked):
        B, h, T, dh = 3, 2, 16, 6
        if budget_rows is not None:
            monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", budget_rows * T)
        rng = np.random.default_rng(28)
        q, k, v = (rng.standard_normal((B, h, T, dh)).astype(np.float32) for _ in range(3))
        mask = np.ones((B, 1, T), dtype=bool)
        if masked:
            mask[1, :, T // 2 :] = False
            mask[2] = False  # no valid key at all
        full, full_probs = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask, return_probs=True)
        for return_probs in (False, True):
            out, probs = ag.attention(Tensor(q[:, :, :Tq]), Tensor(k), Tensor(v), mask, return_probs=return_probs)
            assert out.shape == (B, h, Tq, dh)
            np.testing.assert_allclose(out.data, full.data[:, :, :Tq], rtol=1e-6, atol=1e-6)
        assert probs.shape == (B, h, Tq, T)
        np.testing.assert_allclose(probs, full_probs[:, :, :Tq], rtol=1e-6, atol=1e-7)
        if masked:
            assert not out.data[2].any() and not probs[2].any()

    @pytest.mark.parametrize(
        "q_shape, kv_shapes",
        [
            ((1, 2, 3, 4), [(1, 2, 5, 4), (1, 2, 4, 4)]),  # k and v disagree on T
            ((1, 2, 3, 4), [(1, 2, 5, 4), (1, 2, 5, 3)]),  # k and v disagree on d_h
            ((1, 2, 3, 4), [(1, 2, 5, 3), (1, 2, 5, 3)]),  # q and k, v disagree on d_h
            ((1, 2, 3, 4), [(1, 1, 5, 4), (1, 1, 5, 4)]),  # heads disagree
            ((2, 2, 3, 4), [(1, 2, 5, 4), (1, 2, 5, 4)]),  # batch disagrees
            ((1, 2, 6, 4), [(1, 2, 5, 4), (1, 2, 5, 4)]),  # more queries than keys
            ((2, 3, 4), [(2, 3, 4), (2, 3, 4)]),  # not [B, h, T, d_h]
        ],
    )
    def test_shape_mismatch_rejected(self, q_shape, kv_shapes):
        k_shape, v_shape = kv_shapes
        with pytest.raises(ValueError, match="Tq <= T"):
            ag.attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape)), True)


def check_gradients(q_shape, kv_shape, seed):
    """The op's gradients in float64 against central differences, with one
    pair's keys partly masked, one's all masked (inert: zero output, zero
    gradients) and one's all valid."""
    rng = np.random.default_rng(seed)
    q0 = rng.standard_normal(q_shape)
    k0, v0 = (rng.standard_normal(kv_shape) for _ in range(2))
    mask = np.array(
        [[True, False, True, True, False], [False] * 5, [True] * 5]
    )[:, None, :]
    r = rng.standard_normal(q_shape)

    def f(q, k, v):
        out, _ = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask)
        return float((out.data * r).sum())

    q, k, v = (Tensor(x, requires_grad=True) for x in (q0, k0, v0))
    out, probs = ag.attention(q, k, v, mask)
    assert probs is None
    np.testing.assert_array_equal(out.data[1], 0.0)  # no valid key: inert, not NaN
    readout(out, r).backward()

    numeric = [
        central_difference(lambda x: f(x, k0, v0), q0),
        central_difference(lambda x: f(q0, x, v0), k0),
        central_difference(lambda x: f(q0, k0, x), v0),
    ]
    for t, n in zip((q, k, v), numeric):
        assert t.grad.shape == t.shape
        assert np.all(np.isfinite(t.grad))
        np.testing.assert_array_equal(t.grad[1], 0.0)
        assert max_rel_err(t.grad, n) < 1e-6


class TestAttentionOp:
    def test_gradcheck_with_masked_and_all_masked_keys(self, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", 5 * 5)  # one slice per tile
        check_gradients((3, 2, 5, 3), (3, 2, 5, 3), seed=23)  # [B, h, T, d_h]

    @pytest.mark.parametrize("budget", [2 * 5, 1 << 18], ids=["row_blocks", "one_tile"])
    def test_gradcheck_with_fewer_queries_than_keys(self, monkeypatch, budget):
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", budget)
        check_gradients((3, 2, 2, 3), (3, 2, 5, 3), seed=29)  # Tq=2 queries, T=5 keys

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one"):
            ag.attention(Tensor(np.zeros((1, 2, 3, 4))), Tensor(np.zeros((1, 2, 3, 4))), Tensor(np.zeros((1, 2, 3, 5))), np.ones((1, 2, 3), bool))

    def test_no_full_logits_buffer_without_grad(self, monkeypatch):
        B, h, T, dh = 16, 4, 64, 8
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", T * T)
        full_bytes = B * h * T * T * 4
        rng = np.random.default_rng(25)
        q, k, v = (Tensor(rng.standard_normal((B, h, T, dh)).astype(np.float32)) for _ in range(3))
        mask = np.ones((B, 1, T), dtype=bool)
        mask[::2, :, T // 2 :] = False

        def peak(return_probs):
            tracemalloc.start()
            try:
                with ag.no_grad():
                    ag.attention(q, k, v, mask, return_probs=return_probs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(return_probs=True) >= full_bytes  # the probe sees numpy buffers
        assert peak(return_probs=False) < full_bytes // 4
