"""AdamW and gradient-clipping tests; expected values hand-executed from the
update recurrence."""

import numpy as np
import pytest

from rrt.autograd import Tensor
from rrt.optim import BETA1, BETA2, EPS, AdamW, clip_global_grad_norm


class TestAdamW:
    def test_first_step_moves_by_lr(self):
        # m_hat = g = 1, v_hat = 1 after bias correction, so the step is
        # lr * 1 / (1 + eps) with eps = 1e-8: w goes 1.0 -> ~0.9.
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([1.0], dtype=np.float32)
        opt = AdamW([w], lr=0.1, weight_decay=0.0)
        opt.step()
        assert abs(w.data[0] - 0.9) < 1e-6
        assert opt.step_count == 1

    def test_zero_gradient_leaves_weight(self):
        w = Tensor([2.0], requires_grad=True)
        w.grad = np.zeros(1, dtype=np.float32)
        AdamW([w], lr=0.1, weight_decay=0.0).step()
        assert w.data[0] == 2.0

    def test_decoupled_decay_with_zero_gradient(self):
        # Pure decay: w <- w * (1 - lr * wd) = w * 0.95.
        w = Tensor([2.0], requires_grad=True)
        w.grad = np.zeros(1, dtype=np.float32)
        AdamW([w], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(w.data, [2.0 * 0.95], rtol=1e-6)

    def test_lr_zero_is_bitwise_noop(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)
        before = w.data.tobytes()
        w.grad = rng.standard_normal(16).astype(np.float32)
        opt = AdamW([w], lr=0.0, weight_decay=4e-4)
        for _ in range(3):
            opt.step()
        assert w.data.tobytes() == before

    def test_missing_grad_errors(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            AdamW([w]).step()

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        assert (BETA1, BETA2, EPS) == (b1, b2, eps)
        w = Tensor(np.array([0.5]), requires_grad=True)
        opt = AdamW([w], lr=lr, weight_decay=0.0)
        grads = [0.3, -0.7]

        wh, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            w.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            wh -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(w.data, [wh], rtol=1e-12)


class TestClipGlobalGradNorm:
    def test_noop_below_threshold(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([0.5], dtype=np.float32)
        norm = clip_global_grad_norm([w], max_norm=1.0)
        assert abs(norm - 0.5) < 1e-7
        np.testing.assert_allclose(w.grad, [0.5])

    def test_scales_to_max_norm(self):
        a = Tensor([0.0], requires_grad=True)
        b = Tensor([0.0, 0.0], requires_grad=True)
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([0.0, 4.0], dtype=np.float32)
        pre = clip_global_grad_norm([a, b], max_norm=1.0)
        assert abs(pre - 5.0) < 1e-6
        post = np.sqrt(a.grad[0] ** 2 + np.sum(b.grad**2))
        assert post <= 1.0 + 1e-6

    def test_post_clip_norm_bound_random(self):
        rng = np.random.default_rng(1)
        params = []
        for n in (3, 7, 11):
            p = Tensor(np.zeros(n, dtype=np.float32), requires_grad=True)
            p.grad = rng.standard_normal(n).astype(np.float32) * 10
            params.append(p)
        for g in (0.1, 1.0, 5.0):
            clip_global_grad_norm(params, g)
            total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
            assert total <= g + 1e-6

    def test_overflowing_norm_leaves_gradients_unscaled(self):
        # The float32 sum of squares overflows: the norm reads inf without a
        # warning (warnings are errors here), and no gradient is scaled by
        # 0.1 / inf = 0.
        a = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        b = Tensor([0.0], requires_grad=True)
        a.grad = np.full(4, 1e20, dtype=np.float32)
        b.grad = np.array([3.0], dtype=np.float32)
        assert clip_global_grad_norm([a, b], max_norm=0.1) == np.inf
        np.testing.assert_array_equal(a.grad, np.full(4, 1e20, dtype=np.float32))
        np.testing.assert_array_equal(b.grad, [3.0])
