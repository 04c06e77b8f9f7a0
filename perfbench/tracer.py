"""Per-layer tracing from outside the package.

A Tracer replaces public entry points of the rrt modules with timing
wrappers, installed where each caller looks the name up (``rrt.train`` binds
``forward_pair_logits`` at import, so that binding is patched too).  Every
wrapper keeps a per-thread stack of open spans, so a span's self time is its
duration minus the time of the spans it opened; worker-thread spans (GV
scoring threads) are busy time summed over threads.  Aggregates are kept in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from time import perf_counter

# (span name, patch sites as (module, dotted attribute), records bytes out)
LAYERS = (
    ("data.synth_generate", (("rrt.data", "synth_generate"),), False),
    ("data.normalize_records", (("rrt.data", "normalize_records"),), False),
    ("model.load_checkpoint", (("rrt.model", "load_checkpoint"),), False),
    ("retrieval.build_index", (("rrt.retrieval", "build_index"), ("rrt.train", "build_index")), False),
    ("train.mine_neighbor_ids", (("rrt.train", "mine_neighbor_ids"),), False),
    ("train.PairSampler.sample_pair", (("rrt.train", "PairSampler.sample_pair"),), False),
    ("autograd.backward", (("rrt.autograd", "Tensor.backward"),), False),
    ("optim.AdamW.step", (("rrt.optim", "AdamW.step"),), False),
    ("optim.clip_global_grad_norm", (("rrt.train", "clip_global_grad_norm"),), False),
    (
        "model.forward_pair_logits",
        (("rrt.train", "forward_pair_logits"), ("rrt.model", "forward_pair_logits")),
        False,
    ),
    ("model.transformer_layer", (("rrt.model", "transformer_layer"),), True),
    ("model.mha_forward", (("rrt.model", "mha_forward"),), True),
    ("autograd.matmul", (("rrt.autograd", "matmul"),), True),
    ("autograd.masked_softmax_lastdim", (("rrt.autograd", "masked_softmax_lastdim"),), True),
    ("autograd.affine", (("rrt.autograd", "affine"),), True),
    ("autograd.layer_norm", (("rrt.autograd", "layer_norm"),), True),
    ("retrieval.knn_search", (("rrt.retrieval", "knn_search"),), False),
    ("retrieval.rerank_topk", (("rrt.retrieval", "rerank_topk"),), False),
    ("baselines.mutual_nn_matches", (("rrt.baselines", "mutual_nn_matches"),), False),
    ("baselines.ransac_homography", (("rrt.baselines", "ransac_homography"),), False),
)

# Scorer callables are passed into rerank_topk by the benchmark, which wraps
# them itself; their spans also count pairs scored.
SCORERS = ("rrt", "gv")


def _nbytes(out) -> int:
    """Bytes of the output array: a Tensor, or (Tensor, attention) pairs."""
    if isinstance(out, tuple):
        out = out[0]
    return int(out.data.nbytes)


def _unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".bytes_out"):
        return "bytes"
    if metric.endswith((".calls", ".pairs")):
        return "count"
    return "s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer emits, with its unit."""
    return {name: _unit(name) for name in Tracer().metrics(0.0, 0.0)}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes_out: dict[str, int] = defaultdict(int)
        self.pairs: dict[str, int] = defaultdict(int)
        self.useful: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, has_bytes: bool):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)  # time spent in child spans
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_s[name] += elapsed - child
                    tracer.calls[name] += 1
            if has_bytes:
                with tracer._lock:
                    tracer.bytes_out[name] += _nbytes(out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites, has_bytes in LAYERS:
            for module_name, attr in sites:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, has_bytes))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def wrap_scorer(self, kind: str, scorer):
        """Span `scorers.<kind>` around a scorer; counts pairs scored and
        pairs with a non-zero score (for GV: a non-zero inlier count)."""
        span = self._wrap(f"scorers.{kind}", scorer, False)

        def traced_scorer(query_id, candidate_ids):
            scores = span(query_id, candidate_ids)
            with self._lock:
                self.pairs[kind] += len(candidate_ids)
                self.useful[kind] += sum(1 for s in scores if s != 0)
            return scores

        return traced_scorer

    def metrics(self, traced_s: float, overhead_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, has_bytes in LAYERS:
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
            if has_bytes:
                out[f"{name}.bytes_out"] = self.bytes_out[name]
        for s in SCORERS:
            out[f"scorers.{s}.s"] = self.self_s[f"scorers.{s}"]
            out[f"scorers.{s}.calls"] = self.calls[f"scorers.{s}"]
            out[f"scorers.{s}.pairs"] = self.pairs[s]
        gv_pairs = self.pairs["gv"]
        out["baselines.gv.useful_ratio"] = self.useful["gv"] / gv_pairs if gv_pairs else 0.0
        out["trace.traced_s"] = traced_s
        out["trace.overhead_s"] = overhead_s
        return out
