"""The fused attention op runs one forward body: its float32 context has the
same bytes with and without recording and kept probabilities, so training and
scoring get the same logits, and the same bytes across tile sizes, since no
tile holds a padded pair beside an unpadded one (so a pair's logit does not
depend on its chunk-mates' padding); context and probabilities stay within
float32 rounding of the composed reference path (twice its own distance from
the float64 composed path) across tile and query-row block boundaries, and a
query-row block has the bytes of the op on its rows alone.  Also
fewer queries than keys equal to the full op's leading rows, gradients
against central differences and against the composed path, masked and
all-masked keys, and the memory bounds that motivate the tiling."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from rrt import autograd as ag
from rrt.autograd import Tensor
from rrt.benchmark import benchmark_model_config, train_synth_config
from rrt.data import normalize_records, synth_generate
from rrt.model import forward_pair_logits, init_params, mha_forward

from gradcheck import central_difference, max_rel_err
from helpers import params_astype, tiny_config
from oracles import composed_mha_forward, readout


def rows(x):
    """The [B*n, h*d_h] token rows that ag.attention takes, of a [B, h, n,
    d_h] head array; ag._heads views them as heads again."""
    B, h, n, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(B * n, h * dh)


def mixed_mask(cfg, B):
    """Key masks for B pairs: even pairs unpadded, odd pairs padded."""
    T = cfg.seq_len
    mask = np.ones((B, T), dtype=bool)
    mask[1::2, T // 2 + 1 :] = False
    mask[1::2, 2] = False
    return mask


def fused_forward(params, cfg, z, mask):
    """mha_forward's float32 context and probabilities, after checking that
    the context has the same bytes with and without recording and with and
    without return_attn (the parameters require grad), and the
    probabilities the same bytes with and without recording."""
    outs, attns = set(), set()
    for recording in (False, True):
        for return_attn in (False, True):
            with contextlib.nullcontext() if recording else ag.no_grad():
                out, attn = mha_forward(params.layer(0), cfg, Tensor(z), mask, return_attn=return_attn)
            assert out.data.dtype == np.float32 and (out._grad_fn is not None) == recording
            outs.add(out.data.tobytes())
            if return_attn:
                attns.add(attn.tobytes())
            else:
                assert attn is None
    assert len(outs) == 1 and len(attns) == 1
    return out.data, attn


def assert_near_composed(params, cfg, z, mask, out, attn):
    """Context and probabilities within twice the float32 composed path's
    distance from the float64 composed path, in each."""
    ref, ref_attn = composed_mha_forward(params.layer(0), cfg, Tensor(z), mask, return_attn=True)
    with ag.no_grad():
        exact, exact_attn = composed_mha_forward(
            params_astype(params, cfg, np.float64).layer(0), cfg, Tensor(z.astype(np.float64)), mask,
            return_attn=True,
        )
    assert attn.shape == exact_attn.shape
    assert np.abs(out - exact.data).max() <= 2 * np.abs(ref.data - exact.data).max()
    assert np.abs(attn - exact_attn).max() <= 2 * np.abs(ref_attn - exact_attn).max()


def two_branch_spans(B, h, tile, masked):
    """The tile spans as a fork on tile >= h computed them, within each run
    of consecutive pairs that agree in masked: whole pairs with every head,
    else one pair's heads in runs of tile."""
    spans, start = [], 0
    for stop in range(1, B + 1):
        if stop < B and masked[stop] == masked[start]:
            continue
        if tile >= h:
            step = tile // h
            spans += [(np.s_[b : min(b + step, stop)], slice(None)) for b in range(start, stop, step)]
        else:
            spans += [(np.s_[b : b + 1], np.s_[c : c + tile]) for b in range(start, stop) for c in range(0, h, tile)]
        start = stop
    return spans


class TestSpans:
    @pytest.mark.parametrize(
        "Tq, T", [(36, 36), (1, 36), (1004, 1004), (1, 1004)],
        ids=["frozen", "frozen_cls_only", "paper", "paper_cls_only"],
    )
    def test_span_list_matches_two_branch_rule(self, Tq, T):
        tile = max(1, ag.ATTENTION_TILE_FLOATS // (Tq * T))
        for B in (1, 2, 3, 16, 50, 100):
            self.check(B, 4, tile, np.zeros(B, dtype=bool))
            self.check(B, 4, tile, np.arange(B) % 2 == 1)

    def test_partial_tiles_match_two_branch_rule(self):
        rng = np.random.default_rng(20)
        for B in (1, 5, 9):
            for h in (3, 4):
                for tile in range(1, 10):
                    for masked in (np.zeros(B, dtype=bool), np.ones(B, dtype=bool), rng.random(B) < 0.5):
                        self.check(B, h, tile, masked)

    @staticmethod
    def check(B, h, tile, masked):
        got = [(bs.indices(B), hs.indices(h)) for bs, hs in ag._spans(B, h, tile, masked)]
        want = [(bs.indices(B), hs.indices(h)) for bs, hs in two_branch_spans(B, h, tile, masked)]
        assert got == want, (B, h, tile, masked)


class TestMatchesComposedPath:
    @pytest.mark.parametrize("slices_per_tile", [1, 2, 4, 64])
    def test_float32_bit_identical_across_tiles(self, monkeypatch, slices_per_tile):
        # h=2: one slice per tile splits each pair's heads, two put each
        # pair in its own tile, four leave a partial last tile.  A tile takes
        # base 2 only when none of its keys is masked, and no tile holds a
        # padded pair beside an unpadded one, so every pair takes the base
        # of its own keys whatever the tile size, and the bytes of the
        # default tiles are the reference under every mask.  d_h=6 keeps the
        # 1/sqrt(d_h) scale inexact.
        cfg = tiny_config(d=12, d_h=6)
        T = cfg.seq_len
        params = init_params(cfg, seed=21)
        rng = np.random.default_rng(21)
        B = 5
        z = rng.standard_normal((B, T, cfg.d)).astype(np.float32)
        padded = np.arange(T) < np.arange(T // 2, T // 2 + B)[:, None]  # pair b keeps T // 2 + b keys
        masks = {"mixed": mixed_mask(cfg, B), "padded": padded, "unpadded": np.ones((B, T), dtype=bool)}
        whole = {name: fused_forward(params, cfg, z, mask) for name, mask in masks.items()}

        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", slices_per_tile * T * T)
        for name, mask in masks.items():
            out, attn = fused_forward(params, cfg, z, mask)
            assert attn.shape == (B, cfg.h, T, T)
            assert out.tobytes() == whole[name][0].tobytes(), name
            assert attn.tobytes() == whole[name][1].tobytes(), name
            assert_near_composed(params, cfg, z, mask, out, attn)

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
        # A block of query rows gives the bytes, context and probabilities,
        # of the op called on those rows alone with whole slices, under
        # every mask: each pair takes the exponential base of its own keys
        # in both.  Whole slices are not the reference: the row
        # sums are a matrix-vector product, whose bytes depend on the call's
        # row count on every kernel (blocks of 5/5/6 rows move the last
        # row's).  Through mha_forward, recording and kept probabilities
        # leave the bytes as they are (fused_forward), and under every mask
        # context and probabilities stay within twice the float32 composed
        # path's own distance from the float64 composed path.
        cfg = tiny_config(L=6, d=12, d_h=6)
        T = cfg.seq_len
        params = init_params(cfg, seed=24)
        rng = np.random.default_rng(24)
        B = 3
        z = rng.standard_normal((B, T, cfg.d)).astype(np.float32)
        q, k, v = (rng.standard_normal((B, cfg.h, T, cfg.d_h)).astype(np.float32) for _ in range(3))
        padded = np.arange(T) < np.arange(T // 2, T // 2 + B)[:, None]  # pair b keeps T // 2 + b keys
        masks = {"mixed": mixed_mask(cfg, B), "padded": padded, "unpadded": np.ones((B, T), dtype=bool)}
        blocks = ag._row_blocks(T, block_rows)
        assert len(blocks) > 1
        alone = {}
        with ag.no_grad():
            for name in masks:
                calls = [ag.attention(Tensor(rows(q[:, :, rs])), Tensor(rows(k)), Tensor(rows(v)), masks[name], cfg.h,
                                      return_probs=True)
                         for rs in blocks]
                alone[name] = [np.concatenate(parts, axis=2)
                               for parts in zip(*((ag._heads(c.data, B, cfg.h), p) for c, p in calls))]

        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", block_rows * T)
        for name, mask in masks.items():
            out, attn = fused_forward(params, cfg, z, mask)
            assert_near_composed(params, cfg, z, mask, out, attn)
            with ag.no_grad():
                ctx, probs = ag.attention(Tensor(rows(q)), Tensor(rows(k)), Tensor(rows(v)), mask, cfg.h, return_probs=True)
            assert ag._heads(ctx.data, B, cfg.h).tobytes() == alone[name][0].tobytes(), name
            assert probs.tobytes() == alone[name][1].tobytes(), name

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
        q, k, v = (Tensor(rows(rng.standard_normal((B, h, T, dh)).astype(np.float32))) for _ in range(3))
        mask = np.ones((B, T), dtype=bool)
        mask[1, T // 3 :] = False

        tracemalloc.start()
        try:
            with ag.no_grad():
                ag.attention(q, k, v, mask, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slice_bytes


class TestFlashForm:
    """The op scales the queries (by log2(e)/sqrt(d_h) and takes exp2 where
    a tile has no masked key) and divides the context by the row sums:
    without recording or return_probs, in float32, it stays finite, leaves
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
        q, k, v = (rows(x) for x in (q, k, v))
        mask = np.ones((B, T), dtype=bool)
        if masked:
            mask[1, T // 2 :] = False
            mask[1, 2] = False
            mask[2] = False  # no valid key at all
        with ag.no_grad():
            out, probs = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask, h)
        exact, _ = ag.attention(*(Tensor(x.astype(np.float64)) for x in (q, k, v)), mask, h, return_probs=True)
        assert probs is None and out.data.dtype == np.float32
        assert np.isfinite(out.data).all()
        if masked:
            assert not ag._heads(out.data, B, h)[2].any()
        np.testing.assert_allclose(out.data, exact.data, rtol=1e-6, atol=1e-6)

    def test_exp2_only_on_tiles_without_masked_keys(self, monkeypatch):
        # np.exp2 runs a slow path on inputs below -126, masked keys' -inf
        # among them, so a tile with masked keys must take np.exp.
        self.check_exp2_tiles(monkeypatch, pairs_per_tile=1)

    def test_padded_pair_cuts_a_whole_batch_tile(self, monkeypatch):
        # A budget of three pairs would put the padded pair 1 beside pairs 0
        # and 2; the cut gives each its own tile, so both still take exp2.
        self.check_exp2_tiles(monkeypatch, pairs_per_tile=3)

    @staticmethod
    def check_exp2_tiles(monkeypatch, pairs_per_tile):
        B, h, T, dh = 3, 2, 16, 6
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", pairs_per_tile * h * T * T)
        calls, exp2 = [], np.exp2

        def spy(z, out=None):
            calls.append(bool(np.isneginf(z).any()))
            return exp2(z, out=out)

        monkeypatch.setattr(np, "exp2", spy)
        rng = np.random.default_rng(31)
        q, k, v = (Tensor(rows(rng.standard_normal((B, h, T, dh)).astype(np.float32))) for _ in range(3))
        mask = np.ones((B, T), dtype=bool)
        mask[1, T // 2 :] = False
        with ag.no_grad():
            ag.attention(q, k, v, mask, h)
        assert calls == [False, False]  # pairs 0 and 2


@pytest.fixture(scope="module")
def frozen_pairs():
    """32 pairs of the benchmark's seed-1 training gallery."""
    _, gallery, _ = synth_generate(train_synth_config(1))
    records = normalize_records(gallery[:64])
    return list(zip(records[::2], records[1::2]))


class TestOneForward:
    """Training and scoring run the same arithmetic: forward_pair_logits
    gives the same bytes recording, as a training step runs it, and under
    no_grad, as scoring runs it."""

    @pytest.mark.parametrize("case", ["frozen", "padded", "row_blocks"])
    def test_recording_equals_no_grad(self, monkeypatch, frozen_pairs, case):
        cfg = benchmark_model_config()
        params = init_params(cfg, seed=1)
        pairs = frozen_pairs
        if case == "padded":  # 5 and 9 of 16 locals: masked keys, base e
            pairs = [(a.truncated(5), b.truncated(9)) for a, b in pairs]
        if case == "row_blocks":  # every slice in blocks of at most 5 query rows
            monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", 5 * cfg.seq_len)
        recorded = forward_pair_logits(params, cfg, pairs)
        with ag.no_grad():
            scored = forward_pair_logits(params, cfg, pairs)
        assert recorded._grad_fn is not None and scored._grad_fn is None
        assert recorded.data.tobytes() == scored.data.tobytes()


class TestChunkMates:
    """A pair's score bytes depend on its own records, not on its
    chunk-mates': a full pair keeps its logit's bytes beside full and beside
    padded pairs, and a padded pair beside padded and beside full pairs, at
    the same place in a chunk of the same size."""

    def test_logit_bytes_do_not_depend_on_chunk_mates_padding(self, frozen_pairs):
        cfg = benchmark_model_config()
        params = init_params(cfg, seed=1)
        full = frozen_pairs
        padded = [(a, b.truncated(5)) for a, b in full]
        alternating = [p if i % 2 == 0 else padded[i] for i, p in enumerate(full)]
        halves = full[:16] + padded[16:]
        with ag.no_grad():
            logits = {name: forward_pair_logits(params, cfg, pairs).data.reshape(-1)
                      for name, pairs in (("full", full), ("padded", padded),
                                          ("alternating", alternating), ("halves", halves))}
        assert logits["alternating"][::2].tobytes() == logits["full"][::2].tobytes()
        assert logits["alternating"][1::2].tobytes() == logits["padded"][1::2].tobytes()
        assert logits["halves"][:16].tobytes() == logits["full"][:16].tobytes()
        assert logits["halves"][16:].tobytes() == logits["padded"][16:].tobytes()


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
        mask = np.ones((B, T), dtype=bool)
        if masked:
            mask[1, T // 2 :] = False
            mask[2] = False  # no valid key at all
        full, full_probs = ag.attention(Tensor(rows(q)), Tensor(rows(k)), Tensor(rows(v)), mask, h, return_probs=True)
        for return_probs in (False, True):
            out, probs = ag.attention(Tensor(rows(q[:, :, :Tq])), Tensor(rows(k)), Tensor(rows(v)), mask, h,
                                      return_probs=return_probs)
            assert out.shape == (B * Tq, h * dh)
            out_h = ag._heads(out.data, B, h)
            np.testing.assert_allclose(out_h, ag._heads(full.data, B, h)[:, :, :Tq], rtol=1e-6, atol=1e-6)
        assert probs.shape == (B, h, Tq, T)
        np.testing.assert_allclose(probs, full_probs[:, :, :Tq], rtol=1e-6, atol=1e-7)
        if masked:
            assert not out_h[2].any() and not probs[2].any()

    @pytest.mark.parametrize(
        "q_shape, kv_shapes",
        [
            ((6, 8), [(10, 8), (8, 8)]),  # k and v disagree on B*T
            ((6, 8), [(10, 8), (10, 6)]),  # k and v disagree on d
            ((6, 8), [(10, 6), (10, 6)]),  # q and k, v disagree on d
            ((6, 6), [(10, 6), (10, 6)]),  # h does not divide d
            ((6, 8), [(5, 8), (5, 8)]),  # k rows are not the mask's B*T
            ((12, 8), [(10, 8), (10, 8)]),  # more queries than keys
            ((2, 3, 8), [(2, 5, 8), (2, 5, 8)]),  # not rows
            ((5, 8), [(10, 8), (10, 8)]),  # q rows are not B*Tq
        ],
    )
    def test_shape_mismatch_rejected(self, q_shape, kv_shapes):
        # The mask is [B, T] = [2, 5] and h is 4.
        k_shape, v_shape = kv_shapes
        with pytest.raises(ValueError, match="Tq <= T"):
            ag.attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape)),
                         np.ones((2, 5), dtype=bool), 4)


def check_gradients(q_shape, kv_shape, seed):
    """The op's gradients in float64 against central differences, with one
    pair's keys partly masked, one's all masked (inert: zero output, zero
    gradients) and one's all valid.  Shapes are [B, h, n, d_h]; the op gets
    their rows."""
    rng = np.random.default_rng(seed)
    B, h = q_shape[:2]
    q0 = rows(rng.standard_normal(q_shape))
    k0, v0 = (rows(rng.standard_normal(kv_shape)) for _ in range(2))
    mask = np.array([[True, False, True, True, False], [False] * 5, [True] * 5])
    r = rows(rng.standard_normal(q_shape))

    def f(q, k, v):
        out, _ = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask, h)
        return float((out.data * r).sum())

    q, k, v = (Tensor(x, requires_grad=True) for x in (q0, k0, v0))
    out, probs = ag.attention(q, k, v, mask, h)
    assert probs is None
    np.testing.assert_array_equal(ag._heads(out.data, B, h)[1], 0.0)  # no valid key: inert, not NaN
    readout(out, r).backward()

    numeric = [
        central_difference(lambda x: f(x, k0, v0), q0),
        central_difference(lambda x: f(q0, x, v0), k0),
        central_difference(lambda x: f(q0, k0, x), v0),
    ]
    for t, n in zip((q, k, v), numeric):
        assert t.grad.shape == t.shape
        assert np.all(np.isfinite(t.grad))
        np.testing.assert_array_equal(ag._heads(t.grad, B, h)[1], 0.0)
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
        # a [B, 1, T] mask, broadcast per head before the op took rows
        with pytest.raises(ValueError, match="one"):
            ag.attention(Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 8))), np.ones((1, 1, 3), bool), 2)

    def test_no_full_logits_buffer_without_grad(self, monkeypatch):
        B, h, T, dh = 16, 4, 64, 8
        monkeypatch.setattr(ag, "ATTENTION_TILE_FLOATS", T * T)
        full_bytes = B * h * T * T * 4
        rng = np.random.default_rng(25)
        q, k, v = (Tensor(rows(rng.standard_normal((B, h, T, dh)).astype(np.float32))) for _ in range(3))
        mask = np.ones((B, T), dtype=bool)
        mask[::2, T // 2 :] = False

        def peak(return_probs):
            tracemalloc.start()
            try:
                with ag.no_grad():
                    ag.attention(q, k, v, mask, h, return_probs=return_probs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(return_probs=True) >= full_bytes  # the probe sees numpy buffers
        assert peak(return_probs=False) < full_bytes // 4
