"""Decoupled-weight-decay Adam and gradient clipping."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .autograd import Tensor

__all__ = ["AdamW", "clip_global_grad_norm", "global_grad_norm"]

# Adam's moment decay rates and the guard added to the second-moment root.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay and bias correction.

    Moment buffers are zero-initialized at construction.  Weight decay is
    applied directly to the parameters, never through the moments.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-4, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One in-place update; every parameter must carry a gradient."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"AdamW.step: parameter {i} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            if self.weight_decay != 0.0:
                p.data -= p.data.dtype.type(self.lr * self.weight_decay) * p.data
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + EPS)).astype(
                p.data.dtype, copy=False
            )


def global_grad_norm(params: Sequence[Tensor]) -> float:
    """Joint L2 norm of all gradients.  Each tensor's sum of squares is one
    dot product in the gradient's own dtype, so for a float32 gradient it can
    overflow to inf there; only the sum of the per-tensor results
    accumulates in float64.  The overflow raises no warning: the norm reads
    inf, and ``train`` aborts on it."""
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            if p.grad is not None:
                g = p.grad.ravel()
                total += float(np.dot(g, g))
    return math.sqrt(total)


def clip_global_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm; a
    non-finite norm leaves them as they are.

    Returns the pre-clip global norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(params)
    if max_norm < norm < math.inf:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = (p.grad * p.grad.dtype.type(factor)).astype(
                    p.grad.dtype, copy=False
                )
    return norm
