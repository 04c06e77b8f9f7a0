"""Unit tests for the tensor/autograd core.

Expected values are either hand-computable or checked against direct 64-bit
formula evaluation / central finite differences computed independently of the
library's backward pass.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt import autograd as ag
from rrt.autograd import (
    Tensor,
    add,
    affine,
    bce_with_logits,
    concat,
    embedding,
    layer_norm,
    masked_softmax_lastdim,
    matmul,
    mlp,
    no_grad,
)

from gradcheck import central_difference, max_rel_err
from oracles import bce_per_element, mul, readout, relu, sigmoid, stack, swapaxes, tmean, tsum


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

        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        tsum(matmul(a, b)).backward()

        na = central_difference(lambda x: float((x @ b0).sum()), a0)
        nb = central_difference(lambda x: float((a0 @ x).sum()), b0)
        assert max_rel_err(a.grad, na) < 1e-5
        assert max_rel_err(b.grad, nb) < 1e-5

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a0 = rng.standard_normal((2, 3, 4))
        b0 = rng.standard_normal((4, 5))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        tsum(matmul(a, b)).backward()
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
        out = masked_softmax_lastdim(Tensor(x), [True] * 3)
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

        x = Tensor(x0, requires_grad=True)
        readout(masked_softmax_lastdim(x, mask), w).backward()

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
        out = layer_norm(Tensor(x), Tensor(g), Tensor(b), eps)
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
        out = layer_norm(Tensor(xs), Tensor(np.ones(d)), Tensor(np.zeros(d)), eps=1e-10).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.var() - 1.0) < 1e-4

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 6))
        g0 = rng.standard_normal(6)
        b0 = rng.standard_normal(6)
        w = rng.standard_normal((3, 6))
        eps = 1e-5

        x = Tensor(x0, requires_grad=True)
        g = Tensor(g0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        readout(layer_norm(x, g, b, eps), w).backward()

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
                return float((y * w).sum())

            return f

        assert max_rel_err(x.grad, central_difference(f_of("x"), x0)) < 1e-4
        assert max_rel_err(g.grad, central_difference(f_of("g"), g0)) < 1e-4
        assert max_rel_err(b.grad, central_difference(f_of("b"), b0)) < 1e-4


def single_losses(z):
    """bce_with_logits of each logit alone, target 1: the mean of one."""
    return np.array([float(bce_with_logits(Tensor(v), 1.0).data) for v in z])


class TestBCEWithLogits:
    def test_zero_logit_both_targets(self):
        for t in (0.0, 1.0):
            out = bce_with_logits(Tensor(0.0), t)
            assert abs(float(out.data) - math.log(2)) < 1e-6

    def test_against_direct_formula(self):
        out = bce_with_logits(Tensor(2.5), 1.0)
        expected = -math.log(1.0 / (1.0 + math.exp(-2.5)))
        assert abs(float(out.data) - expected) / expected < 1e-7

    def test_rejects_nonbinary_target(self):
        with pytest.raises(ValueError):
            bce_with_logits(Tensor(0.0), 0.5)

    def test_finite_over_wide_logit_range(self):
        z = np.linspace(-80, 80, 321)
        assert np.all(np.isfinite(single_losses(z)))
        assert np.isfinite(bce_with_logits(Tensor(z), np.ones_like(z)).data)

    def test_monotone_decreasing_in_logit_for_positive_target(self):
        assert np.all(np.diff(single_losses(np.linspace(-40, 40, 201))) < 0)

    def test_gradient_vs_finite_differences(self):
        z0 = np.array([-3.0, -0.2, 0.0, 1.7, 4.0])
        t = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        z = Tensor(z0, requires_grad=True)
        loss = bce_with_logits(z, t)
        assert loss.shape == ()
        loss.backward()

        def f(v):
            return float(
                (np.maximum(v, 0) - v * t + np.log1p(np.exp(-np.abs(v)))).mean()
            )

        assert max_rel_err(z.grad, central_difference(f, z0)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 7, 32, 100])
    def test_bits_equal_per_element_loss_then_mean(self, dtype, n):
        # The fused mean must keep the composed loss's reduction order: sum,
        # then one 1/n scale; and its gradient (g/n) * (sigmoid(z) - t).
        rng = np.random.default_rng(n)
        z0 = (3 * rng.standard_normal(n)).astype(dtype)
        t = (rng.random(n) < 0.5).astype(dtype)
        runs = []
        for loss_fn in (bce_with_logits, lambda z, t: tmean(bce_per_element(z, t))):
            z = Tensor(z0, requires_grad=True)
            loss = loss_fn(z, t)
            loss.backward()
            assert loss.dtype == dtype and z.grad.dtype == dtype
            runs.append((loss.data.tobytes(), z.grad.tobytes()))
        assert runs[0] == runs[1]


class TestBackward:
    def test_quadratic(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tsum(mul(w, w)).backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0])

    def test_detached_leaf_gets_no_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        d = Tensor(w.data)  # a leaf over the same buffer
        tsum(mul(w, d)).backward()
        np.testing.assert_allclose(w.grad, d.data)
        assert d.grad is None

    def test_backward_requires_scalar(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            mul(w, w).backward()

    def test_double_backward_without_reforward_errors(self):
        w = Tensor([1.0], requires_grad=True)
        loss = tsum(mul(w, w))
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_grad_accumulates_across_graphs(self):
        w = Tensor([1.0], requires_grad=True)
        tsum(mul(w, w)).backward()
        tsum(mul(w, w)).backward()
        np.testing.assert_allclose(w.grad, [4.0])

    def test_no_grad_suppresses_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            loss = tsum(mul(w, w))
        assert loss._grad_fn is None
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_no_grad_is_per_thread(self):
        # A enters, B enters, A exits, B exits.  With one process-wide switch,
        # B's exit would restore the False it saw on entry, for every thread.
        def records():
            w = Tensor([1.0], requires_grad=True)
            return mul(w, w)._grad_fn is not None

        a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
        seen = {}

        def thread_a():
            with no_grad():
                seen["A inside"] = records()
                a_in.set()
                b_in.wait(10)
            a_out.set()
            b_out.wait(10)
            seen["A after"] = records()

        def thread_b():
            a_in.wait(10)
            with no_grad():
                seen["B inside"] = records()
                b_in.set()
                a_out.wait(10)
            b_out.set()
            seen["B after"] = records()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert all(e.is_set() for e in (a_in, b_in, a_out, b_out))
        assert seen == {"A inside": False, "B inside": False, "A after": True, "B after": True}
        assert records()

    def test_shared_subexpression(self):
        # d/dw of (w*w + w*w) = 4w
        w = Tensor([3.0], requires_grad=True)
        y = mul(w, w)
        tsum(add(y, y)).backward()
        np.testing.assert_allclose(w.grad, [12.0])


class TestStructuralOps:
    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concat([a, b], axis=0)
        readout(out, np.arange(10, dtype=np.float32).reshape(5, 2)).backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    def test_stack_and_index_roundtrip_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b], axis=0)
        tsum(s[1]).backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_swapaxes_grad(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((2, 4, 3))
        x = Tensor(x0, requires_grad=True)
        readout(swapaxes(x, 1, 2), w).backward()
        numeric = central_difference(
            lambda v: float((np.swapaxes(v, 1, 2) * w).sum()), x0
        )
        assert max_rel_err(x.grad, numeric) < 1e-6

    def test_embedding_scatter_adds_duplicates(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = embedding(table, [0, 2, 0])
        tsum(out).backward()
        np.testing.assert_allclose(table.grad, [[2, 2], [0, 0], [1, 1]])

    def test_relu_and_sigmoid_grads(self):
        x0 = np.array([-2.0, -0.5, 0.5, 2.0])
        x = Tensor(x0, requires_grad=True)
        tsum(relu(x)).backward()
        np.testing.assert_allclose(x.grad, [0, 0, 1, 1])

        y = Tensor(x0, requires_grad=True)
        tsum(sigmoid(y)).backward()
        s = 1 / (1 + np.exp(-x0))
        np.testing.assert_allclose(y.grad, s * (1 - s), rtol=1e-12)


def composed_mlp(x, w1, b1, w2, b2):
    return affine(relu(affine(x, w1, b1)), w2, b2)


class TestMLP:
    """The fused MLP against affine -> relu -> affine: in float32, each row
    block has the bits of the composed path on that block's rows alone, for
    any row blocking; in float64, the same gradients."""

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
        # unequal sizes; 1000 is one block.  The reference for a block is
        # the composed path on its rows alone, not on all rows: where a gemm
        # row's bytes depend on the call's row count (OpenBLAS's Haswell
        # kernels), so do the composed path's.  Against the composed path on
        # all rows, the op stays within float32 rounding.
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", block_rows * self.D_C)
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal(lead + (self.D_IN,)).astype(np.float32))
        w = self.weights(rng, np.float32)
        out = mlp(x, *w)
        assert out.shape == lead + (self.D_OUT,) and out.dtype == np.float32
        rows = x.data.reshape(-1, self.D_IN)
        blocks = ag._row_blocks(len(rows), block_rows)
        ref = np.concatenate([composed_mlp(Tensor(rows[rs]), *w).data for rs in blocks])
        assert out.data.reshape(-1, self.D_OUT).tobytes() == ref.tobytes()
        np.testing.assert_allclose(out.data, composed_mlp(x, *w).data, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("lead", [(13,), (3, 7)])
    def test_float64_gradients_equal_composed(self, monkeypatch, lead):
        # Both backwards run each gradient as one product over all rows, so
        # they differ only where the hidden activations do: the op builds
        # them in blocks of at most 5 rows, the composed path in one product
        # (per 7-row matrix for lead (3, 7)).  Where this kernel gives those
        # products the same row bytes (OpenBLAS's SkylakeX kernels do), the
        # gradients are equal byte for byte; where it does not (its Haswell
        # kernels), within float64 rounding.
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", 5 * self.D_C)
        rng = np.random.default_rng(41)
        x0 = rng.standard_normal(lead + (self.D_IN,))
        r = rng.standard_normal(lead + (self.D_OUT,))
        w0 = [t.data for t in self.weights(rng, np.float64)]
        grads = []
        for f in (mlp, composed_mlp):
            x = Tensor(x0, requires_grad=True)
            w = [Tensor(a, requires_grad=True) for a in w0]
            readout(f(x, *w), r).backward()
            grads.append([x.grad] + [t.grad for t in w])
        rows, whole = x0.reshape(-1, self.D_IN), (x0 @ w0[0]).reshape(-1, self.D_C)
        same_hidden = all((rows[rs] @ w0[0]).tobytes() == whole[rs].tobytes()
                          for rs in ag._row_blocks(len(rows), 5))
        for fused, composed in zip(*grads):
            assert fused.dtype == np.float64
            if same_hidden:
                np.testing.assert_array_equal(fused, composed)
            else:
                np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)

    def test_gradient_vs_finite_differences(self, monkeypatch):
        monkeypatch.setattr(ag, "MLP_BLOCK_FLOATS", 2 * self.D_C)
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((2, 3, self.D_IN))
        w0 = [t.data for t in self.weights(rng, np.float64)]
        r = rng.standard_normal((2, 3, self.D_OUT))
        x = Tensor(x0, requires_grad=True)
        w = [Tensor(a, requires_grad=True) for a in w0]
        readout(mlp(x, *w), r).backward()

        args = [x0] + w0
        for i, t in enumerate([x] + w):
            def f(v, i=i):
                vals = [Tensor(a) for a in args[:i] + [v] + args[i + 1 :]]
                return float((mlp(*vals).data * r).sum())

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
