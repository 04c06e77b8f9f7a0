"""Shared fixtures-in-code for the test suite."""

import ctypes
import glob
import os
import threading

import numpy as np

from rrt import model
from rrt.autograd import Tensor
from rrt.data import ImageRecord
from rrt.model import ModelConfig


# The benchmark's gates (rrt.benchmark) on full-list mAPs: global-only at
# most GATE_GLOBAL_MAX, the oracle at least GATE_ORACLE_MIN, and the learned
# rerank at least GATE_RRT_GAIN above global.
GATE_GLOBAL_MAX = 0.75
GATE_ORACLE_MIN = 0.95
GATE_RRT_GAIN = 0.15


def gate_results(maps: dict[str, float]) -> dict[str, bool]:
    """{gate: whether it holds} from the mAPs of global, oracle and rrt."""
    g, o, r = maps["global"], maps["oracle"], maps["rrt"]
    return {
        f"global <= {GATE_GLOBAL_MAX}": g <= GATE_GLOBAL_MAX,
        f"oracle >= {GATE_ORACLE_MIN}": o >= GATE_ORACLE_MIN,
        f"rrt >= global + {GATE_RRT_GAIN}": r >= g + GATE_RRT_GAIN,
    }


def blas_core():
    """The name of the OpenBLAS core whose kernels run (e.g. "SkylakeX"),
    as scipy-openblas's scipy_openblas_get_corename64_ reports it from the
    library numpy loaded; None where no such library or symbol exists.
    OPENBLAS_CORETYPE overrides the core a DYNAMIC_ARCH build picks."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    try:
        name = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    name.argtypes, name.restype = [], ctypes.c_char_p
    return name().decode()


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        L=4, d=8, h=2, d_h=4, layers=2, d_c=16, n_scales=3, d_g_raw=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


def params_astype(params, cfg: ModelConfig, dtype) -> model.ModelParams:
    """Leaf copies of every parameter in another precision, each keeping
    its requires_grad."""
    return model.ModelParams(
        cfg, {k: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad) for k, t in params.named()}
    )


def make_record(rng, rec_id, label, d_l, d_g, n_locals, n_scales, canvas=1024.0):
    """Unit-normalized random record."""
    vecs, uv, sidx = [], [], []
    for _ in range(n_locals):
        v = rng.standard_normal(d_l)
        v /= np.linalg.norm(v)
        vecs.append(v.astype(np.float32))
        uv.append((rng.uniform(0, canvas), rng.uniform(0, canvas)))
        sidx.append(int(rng.integers(0, n_scales)))
    g = rng.standard_normal(d_g)
    g /= np.linalg.norm(g)
    return ImageRecord(
        rec_id,
        label,
        g.astype(np.float32),
        np.reshape(vecs, (n_locals, d_l)),
        np.reshape(uv, (n_locals, 2)),
        sidx,
    )


def no_locals():
    """The (vecs, uv, scale_idx) arrays of a record without locals."""
    return np.zeros((0, 0), np.float32), np.zeros((0, 2), np.float32), np.zeros(0, np.uint8)


def make_pair(rng, cfg, n_a=None, n_b=None):
    n_a = cfg.L if n_a is None else n_a
    n_b = cfg.L if n_b is None else n_b
    a = make_record(rng, 0, 0, cfg.d, cfg.d_g_raw, n_a, cfg.n_scales)
    b = make_record(rng, 1, 1, cfg.d, cfg.d_g_raw, n_b, cfg.n_scales)
    return a, b


def spy_forward_passes(monkeypatch):
    """Record (batch size, ran on the main thread) for every
    forward_pair_logits call that score_batch makes."""
    calls = []
    forward = model.forward_pair_logits

    def spy(params, cfg, pairs, *args, **kwargs):
        calls.append((len(pairs), threading.current_thread() is threading.main_thread()))
        return forward(params, cfg, pairs, *args, **kwargs)

    monkeypatch.setattr(model, "forward_pair_logits", spy)
    return calls
