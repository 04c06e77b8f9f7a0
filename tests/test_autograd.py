"""Unit tests for the tensor/autograd core.

Expected values are either hand-computable or checked against direct 64-bit
formula evaluation / central finite differences computed independently of the
library's backward pass.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt import autograd as ag
from rrt.autograd import (
    Tensor,
    affine,
    bce_with_logits,
    concat,
    embedding,
    layer_norm,
    masked_softmax_lastdim,
    matmul,
    mlp,
    no_grad,
    swapaxes,
)

from gradcheck import central_difference, max_rel_err
from oracles import relu, sigmoid, stack


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, b)
        np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 2))

        a = Tensor(a0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        matmul(a, b).sum().backward()

        na = central_difference(lambda x: float((x @ b0).sum()), a0)
        nb = central_difference(lambda x: float((a0 @ x).sum()), b0)
        assert max_rel_err(a.grad, na) < 1e-5
        assert max_rel_err(b.grad, nb) < 1e-5

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a0 = rng.standard_normal((2, 3, 4))
        b0 = rng.standard_normal((4, 5))
        a = Tensor(a0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        matmul(a, b).sum().backward()
        na = central_difference(lambda x: float((x @ b0).sum()), a0)
        nb = central_difference(lambda x: float((a0 @ x).sum()), b0)
        assert max_rel_err(a.grad, na) < 1e-5
        assert max_rel_err(b.grad, nb) < 1e-5


class TestMaskedSoftmax:
    def test_symmetric_pair(self):
        out = masked_softmax_lastdim(Tensor([0.0, 0.0]), [True, True])
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_masked_entry_exact_zero(self):
        out = masked_softmax_lastdim(Tensor([10.0, -10.0, 5.0]), [True, False, True])
        assert out.data[1] == 0.0
        assert abs(out.data[0] + out.data[2] - 1.0) < 1e-6

    def test_against_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        out = masked_softmax_lastdim(Tensor(x, dtype=np.float64), [True] * 3)
        expected = np.exp(x) / np.exp(x).sum()
        assert max_rel_err(out.data, expected) < 1e-6

    def test_all_masked_row_is_zero_not_nan(self):
        out = masked_softmax_lastdim(
            Tensor([[1.0, 2.0], [3.0, 4.0]]), [[False, False], [True, True]]
        )
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
        assert not np.any(np.isnan(out.data))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_rows_sum_to_one(self, xs, data):
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(xs), max_size=len(xs))
        )
        out = masked_softmax_lastdim(Tensor(xs), mask).data
        assert np.all(out[~np.asarray(mask)] == 0.0)
        if any(mask):
            assert abs(out.sum() - 1.0) < 1e-6

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((2, 5))
        mask = np.array([[True, True, False, True, True]] * 2)
        w = rng.standard_normal((2, 5))  # fixed readout to make a scalar

        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        (masked_softmax_lastdim(x, mask) * Tensor(w, dtype=np.float64)).sum().backward()

        def f(v):
            shifted = np.where(mask, v, -np.inf)
            m = shifted.max(axis=-1, keepdims=True)
            e = np.where(mask, np.exp(v - m), 0.0)
            p = e / e.sum(axis=-1, keepdims=True)
            return float((p * w).sum())

        numeric = central_difference(f, x0)
        assert max_rel_err(x.grad, numeric) < 1e-4


class TestLayerNorm:
    def test_two_point_standardization(self):
        out = layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=1e-12)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_constant_vector_guarded_by_eps(self):
        out = layer_norm(Tensor([2.0] * 4), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        g = rng.standard_normal(4)
        b = rng.standard_normal(4)
        eps = 1e-5
        out = layer_norm(
            Tensor(x, dtype=np.float64), Tensor(g, dtype=np.float64), Tensor(b, dtype=np.float64), eps
        )
        expected = (x - x.mean()) / np.sqrt(x.var() + eps) * g + b
        assert max_rel_err(out.data, expected) < 1e-6

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=16).filter(
            lambda v: max(v) - min(v) > 1e-3
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_standardizes_nonconstant_vectors(self, xs):
        d = len(xs)
        out = layer_norm(
            Tensor(xs, dtype=np.float64),
            Tensor(np.ones(d), dtype=np.float64),
            Tensor(np.zeros(d), dtype=np.float64),
            eps=1e-10,
        ).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.var() - 1.0) < 1e-4

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 6))
        g0 = rng.standard_normal(6)
        b0 = rng.standard_normal(6)
        readout = rng.standard_normal((3, 6))
        eps = 1e-5

        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        g = Tensor(g0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        (layer_norm(x, g, b, eps) * Tensor(readout, dtype=np.float64)).sum().backward()

        def f_of(which):
            def f(v):
                xx, gg, bb = x0, g0, b0
                if which == "x":
                    xx = v
                elif which == "g":
                    gg = v
                else:
                    bb = v
                mu = xx.mean(axis=-1, keepdims=True)
                var = ((xx - mu) ** 2).mean(axis=-1, keepdims=True)
                y = (xx - mu) / np.sqrt(var + eps) * gg + bb
                return float((y * readout).sum())

            return f

        assert max_rel_err(x.grad, central_difference(f_of("x"), x0)) < 1e-4
        assert max_rel_err(g.grad, central_difference(f_of("g"), g0)) < 1e-4
        assert max_rel_err(b.grad, central_difference(f_of("b"), b0)) < 1e-4


class TestBCEWithLogits:
    def test_zero_logit_both_targets(self):
        for t in (0.0, 1.0):
            out = bce_with_logits(Tensor(0.0), t)
            assert abs(out.item() - math.log(2)) < 1e-6

    def test_against_direct_formula(self):
        out = bce_with_logits(Tensor(2.5, dtype=np.float64), 1.0)
        expected = -math.log(1.0 / (1.0 + math.exp(-2.5)))
        assert abs(out.item() - expected) / expected < 1e-7

    def test_rejects_nonbinary_target(self):
        with pytest.raises(ValueError):
            bce_with_logits(Tensor(0.0), 0.5)

    def test_finite_over_wide_logit_range(self):
        z = np.linspace(-80, 80, 321)
        out = bce_with_logits(Tensor(z, dtype=np.float64), np.ones_like(z))
        assert np.all(np.isfinite(out.data))

    def test_monotone_decreasing_in_logit_for_positive_target(self):
        z = np.linspace(-40, 40, 201)
        out = bce_with_logits(Tensor(z, dtype=np.float64), np.ones_like(z)).data
        assert np.all(np.diff(out) < 0)

    def test_gradient_vs_finite_differences(self):
        z0 = np.array([-3.0, -0.2, 0.0, 1.7, 4.0])
        t = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        z = Tensor(z0, requires_grad=True, dtype=np.float64)
        bce_with_logits(z, t).sum().backward()

        def f(v):
            return float(
                (np.maximum(v, 0) - v * t + np.log1p(np.exp(-np.abs(v)))).sum()
            )

        assert max_rel_err(z.grad, central_difference(f, z0)) < 1e-6


class TestBackward:
    def test_quadratic(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0])

    def test_detached_leaf_gets_no_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        d = w.detach()
        (w * d).sum().backward()
        np.testing.assert_allclose(w.grad, d.data)
        assert d.grad is None

    def test_backward_requires_scalar(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (w * w).backward()

    def test_double_backward_without_reforward_errors(self):
        w = Tensor([1.0], requires_grad=True)
        loss = (w * w).sum()
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_grad_accumulates_across_graphs(self):
        w = Tensor([1.0], requires_grad=True)
        (w * w).sum().backward()
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, [4.0])

    def test_no_grad_suppresses_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            loss = (w * w).sum()
        assert loss._grad_fn is None
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_shared_subexpression(self):
        # d/dw of (w*w + w*w) = 4w
        w = Tensor([3.0], requires_grad=True, dtype=np.float64)
        y = w * w
        (y + y).sum().backward()
        np.testing.assert_allclose(w.grad, [12.0])


class TestStructuralOps:
    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concat([a, b], axis=0)
        (out * Tensor(np.arange(10, dtype=np.float32).reshape(5, 2))).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    def test_stack_and_index_roundtrip_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b], axis=0)
        s[1].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_swapaxes_grad(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((2, 4, 3))
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        (swapaxes(x, 1, 2) * Tensor(w, dtype=np.float64)).sum().backward()
        numeric = central_difference(
            lambda v: float((np.swapaxes(v, 1, 2) * w).sum()), x0
        )
        assert max_rel_err(x.grad, numeric) < 1e-6

    def test_embedding_scatter_adds_duplicates(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = embedding(table, [0, 2, 0])
        out.sum().backward()
        np.testing.assert_allclose(table.grad, [[2, 2], [0, 0], [1, 1]])

    def test_relu_and_sigmoid_grads(self):
        x0 = np.array([-2.0, -0.5, 0.5, 2.0])
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0, 0, 1, 1])

        y = Tensor(x0, requires_grad=True, dtype=np.float64)
        sigmoid(y).sum().backward()
        s = 1 / (1 + np.exp(-x0))
        np.testing.assert_allclose(y.grad, s * (1 - s), rtol=1e-12)


def composed_mlp(x, w1, b1, w2, b2):
    return affine(relu(affine(x, w1, b1)), w2, b2)


class TestMLP:
    """The fused MLP against affine -> relu -> affine: same bits in float32
    for any row blocking, same gradients in float64."""

    D_IN, D_C, D_OUT = 8, 16, 4

    def weights(self, rng, dtype, requires_grad=False):
        shapes = [(self.D_IN, self.D_C), (self.D_C,), (self.D_C, self.D_OUT), (self.D_OUT,)]
        return [
            Tensor(rng.standard_normal(s).astype(dtype), requires_grad=requires_grad)
            for s in shapes
        ]

    @pytest.mark.parametrize("lead", [(13,), (3, 7)])
    @pytest.mark.parametrize("block_rows", [4, 5, 1000])
    def test_float32_bit_identical_across_row_blocks(self, monkeypatch, lead, block_rows):
        # 13 and 21 rows in blocks of at most 4 or 5 rows leave blocks of
        # unequal sizes; 1000 is one block.
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", block_rows * self.D_C)
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal(lead + (self.D_IN,)).astype(np.float32))
        w = self.weights(rng, np.float32)
        out = mlp(x, *w)
        ref = composed_mlp(x, *w)
        assert out.shape == lead + (self.D_OUT,) and out.dtype == np.float32
        assert out.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("lead", [(13,), (3, 7)])
    def test_float64_gradients_equal_composed(self, monkeypatch, lead):
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", 5 * self.D_C)
        rng = np.random.default_rng(41)
        x0 = rng.standard_normal(lead + (self.D_IN,))
        readout = Tensor(rng.standard_normal(lead + (self.D_OUT,)))
        w0 = [t.data for t in self.weights(rng, np.float64)]
        grads = []
        for f in (mlp, composed_mlp):
            x = Tensor(x0, requires_grad=True)
            w = [Tensor(a, requires_grad=True) for a in w0]
            (f(x, *w) * readout).sum().backward()
            grads.append([x.grad] + [t.grad for t in w])
        for fused, composed in zip(*grads):
            assert fused.dtype == np.float64
            np.testing.assert_array_equal(fused, composed)

    def test_gradient_vs_finite_differences(self, monkeypatch):
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", 2 * self.D_C)
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((2, 3, self.D_IN))
        w0 = [t.data for t in self.weights(rng, np.float64)]
        readout = rng.standard_normal((2, 3, self.D_OUT))
        x = Tensor(x0, requires_grad=True)
        w = [Tensor(a, requires_grad=True) for a in w0]
        (mlp(x, *w) * Tensor(readout)).sum().backward()

        args = [x0] + w0
        for i, t in enumerate([x] + w):
            def f(v, i=i):
                vals = [Tensor(a) for a in args[:i] + [v] + args[i + 1 :]]
                return float((mlp(*vals).data * readout).sum())

            assert max_rel_err(t.grad, central_difference(f, args[i])) < 1e-6

    def test_shape_mismatch_rejected(self):
        w1, b1, w2, b2 = self.weights(np.random.default_rng(43), np.float64)
        with pytest.raises(ValueError, match="mlp dimensions disagree"):
            mlp(Tensor(np.zeros((2, self.D_IN + 1))), w1, b1, w2, b2)
        with pytest.raises(ValueError, match="mlp dimensions disagree"):
            mlp(Tensor(np.zeros((2, self.D_IN))), w1, b1, Tensor(np.zeros((self.D_C + 1, 2))), b2)

    def test_no_full_hidden_buffer_without_grad(self, monkeypatch):
        n, d_c = 256, 256
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", 16 * d_c)
        rng = np.random.default_rng(44)
        x = Tensor(rng.standard_normal((4, n // 4, 8)).astype(np.float32), requires_grad=True)
        w = [
            Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
            for s in ((8, d_c), (d_c,), (d_c, 2), (2,))
        ]
        hidden_bytes = n * d_c * 4

        def peak(recording):
            tracemalloc.start()
            try:
                if recording:
                    mlp(x, *w)
                else:
                    with no_grad():
                        mlp(x, *w)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(recording=True) >= hidden_bytes  # the probe sees numpy buffers
        assert peak(recording=False) < hidden_bytes // 4
