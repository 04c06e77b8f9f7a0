"""The benchmark's three workloads, driven through the public rrt API.

Every workload is a closed loop: one process issues the next training step
or query only after the previous one returned.  Each runs in four phases:

1. set-up (inputs, loading, index, warm-up), repeated ``setup_repeats``
   times; the median repeat is ``setup_s``;
2. the timed loop, for at least ``seconds`` and at least a minimum amount of
   work; with tracing, that minimum runs once untraced and once traced, and
   the difference is the tracing overhead;
3. output checks (determinism, finite scores, gates, reference scores);
4. metrics: the end-to-end ones of BENCHMARK.json (the same on every
   workload), plus a report of the workload's named metrics.

Workloads:

- ``train``: ``rrt.train.train`` at the frozen config, 4 steps per epoch
  over its 30 epochs (120 steps of 32 pairs), repeated.
- ``rerank``: the frozen eval set (40 queries, 160 gallery images).  Every
  query runs ``knn_search`` then a top-100 ``rerank_topk``: once with GV,
  and at least three times with the RRT scorer (weights from the committed
  checkpoint), in RRT passes interleaved with blocks of the GV pass.  The
  mAP gates are checked on every run, and mAPs must equal the recorded
  ``run_benchmark`` results where those exist for the seed.
- ``paper-rerank``: paper-scale ``ModelConfig()`` with untrained weights;
  top-100 ``rerank_topk`` calls, scores checked against recorded ones.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from rrt import data, metrics, model, retrieval, scorers
from rrt import train as training
from rrt.baselines import GVConfig
from rrt.benchmark import (
    AQE_ALPHA,
    AQE_NQE,
    RERANK_DEPTH,
    benchmark_model_config,
    benchmark_train_config,
    eval_synth_config,
    train_synth_config,
)
from rrt.data import SynthConfig
from rrt.model import ModelConfig

from envinfo import file_sha256, nproc
from tracer import Tracer, metric_units

DATA_DIR = Path(__file__).resolve().parent / "data"
CHECKPOINT = DATA_DIR / "rrt_frozen_seed1.rrtm"
FROZEN_REFERENCE = DATA_DIR / "frozen_reference.json"
PAPER_REFERENCE = DATA_DIR / "paper_reference.json"

# GV scores each pair independently, so scores do not depend on the thread
# count; two threads match the `rrt rerank` default (one per CPU) on a
# two-CPU machine and keep the rerank run short.
GV_THREADS = min(2, nproc())
GV_ITERATIONS = 500  # as run_benchmark(include_gv=True) uses
GV_WARMUP_PAIRS = 8

# The gates documented in rrt.benchmark.
GATE_GLOBAL_MAX = 0.75
GATE_ORACLE_MIN = 0.95
GATE_RRT_MARGIN = 0.15

# Paper-scale inputs: 500 locals of d=128 per image, 2048-d globals, 26
# queries over 104 gallery images.  Queries and weights are fixed so that
# recorded reference scores cover every run; the workload seed picks one of
# the first PAPER_POOL queries.
PAPER_DATA = SynthConfig(
    n_instances=26,
    images_per_instance=5,
    queries_per_instance=1,
    parts_per_instance=32,
    parts_per_image=24,
    locals_per_image=500,
    d_l=128,
    d_g_raw=2048,
    global_confusion_pairs=13,
    seed=2103,
)
PAPER_MODEL_SEED = 0
PAPER_POOL = 4
PAPER_WARMUP_PAIRS = 4  # one short score_batch call through every layer
PAPER_SCORE_ATOL = 2e-5  # float32 noise on sigmoid scores near 0.6


@dataclass(frozen=True)
class Scale:
    """Input sizes and minimum work per run; FULL is the benchmark."""

    setup_repeats: int = 3
    train_corpus: Callable[[int], SynthConfig] = train_synth_config
    train_steps_per_epoch: int = 4
    train_min_calls: int = 3
    eval_set: Callable[[int], SynthConfig] = eval_synth_config
    gv_iterations: int = GV_ITERATIONS
    rrt_min_passes: int = 3  # 120 RRT query samples, so p90 has 12 beyond it
    paper_model: ModelConfig = field(default_factory=ModelConfig)
    paper_data: SynthConfig = PAPER_DATA


FULL = Scale()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Run:
    """State of one benchmark run: op and check accounting, timing phases,
    and the optional tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: Scale):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}
        self.report: dict[str, dict] = {}
        self.end_to_end: dict[str, float] = {}
        self.traced_s = 0.0
        self.overhead_s = 0.0

    # -- accounting ------------------------------------------------------

    def op(self, fn, *args):
        """One op (training step batch or query); a raised error counts as
        a failure and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            _log(f"op failed: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, ok: bool, detail) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            _log(f"check failed: {name}: {detail}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.report[name] = {"value": value, "unit": unit}

    # -- phases ------------------------------------------------------------

    def setup(self, build: Callable[[], object], warm_up: Callable[[object], object]):
        """Set up (build, then warm up) setup_repeats times; the median is
        setup_s.  The last state is the one measured."""
        times = []
        for _ in range(self.scale.setup_repeats):
            t0 = perf_counter()
            if self.tracer:  # trace the set-up layers, not the warm-up
                self.tracer.install()
            state = build()
            if self.tracer:
                self.tracer.uninstall()
            warm_up(state)
            times.append(perf_counter() - t0)
        setup_s = statistics.median(times)
        self.end_to_end["setup_s"] = setup_s
        self.metric("setup_s", setup_s, "s")
        return state

    def measure(self, body: Callable[[float, Callable], object]):
        """Run body(seconds, wrap_scorer) untraced; with tracing, run its
        minimum work once untraced and once traced.  Returns the untraced
        result (the traced one is checked by the body)."""
        if self.tracer is None:
            return body(self.seconds, lambda kind, s: s)
        t0 = perf_counter()
        result = body(0.0, lambda kind, s: s)
        untraced_s = perf_counter() - t0
        self.tracer.install()
        t0 = perf_counter()
        try:
            body(0.0, self.tracer.wrap_scorer)
        finally:
            self.traced_s = perf_counter() - t0
            self.tracer.uninstall()
        self.overhead_s = self.traced_s - untraced_s
        return result

    def finish(self) -> tuple[dict, dict]:
        rss = peak_rss_mb()
        self.end_to_end["peak_rss_mb"] = rss
        self.metric("peak_rss_mb", rss, "MB")
        self.metric("ops_attempted", self.attempted, "count")
        self.metric("ops_failed", self.failed, "count")
        if self.tracer is None:
            units = END_TO_END_UNITS
            values = self.end_to_end
        else:
            units = metric_units()
            values = self.tracer.metrics(self.traced_s, self.overhead_s)
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        report = {
            "workload": self.workload,
            "seed": self.seed,
            "metrics": self.report,
            "checks": self.checks,
        }
        return result, report


# The end-to-end metrics of BENCHMARK.json, the same on every workload:
#   setup_s      set-up with warm-up, median of repeats
#   peak_rss_mb  process peak resident set
#   op_ms_p50    median wall time of one op: a training step (train() wall
#                over its steps, mining included), an RRT query
#                (knn_search + rerank_topk), a paper-scale query
#   pass_s       wall time of one pass of the workload's fixed work: one
#                train() call; the RRT pass plus the GV pass over all
#                queries; one paper-scale top-100 rerank
END_TO_END_UNITS = {"op_ms_p50": "ms", "pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _finite_scores(nl) -> bool:
    return all(math.isfinite(s) for _, s in nl.entries)


# -- train -----------------------------------------------------------------


def run_train(run: Run) -> None:
    scale = run.scale
    model_cfg = benchmark_model_config()
    cfg = replace(benchmark_train_config(run.seed), steps_per_epoch=scale.train_steps_per_epoch)

    def build():
        _, records, _ = data.synth_generate(scale.train_corpus(run.seed))
        return data.normalize_records(records)

    warm = replace(cfg, epochs=1, steps_per_epoch=2)
    records = run.setup(build, lambda recs: training.train(recs, model_cfg, warm))

    histories: list[list[dict]] = []

    def body(seconds: float, _wrap):
        calls = []  # (wall seconds, steps, pairs)
        tries = 0
        t_start = perf_counter()
        while tries < scale.train_min_calls or perf_counter() - t_start < seconds:
            tries += 1
            t0 = perf_counter()
            got = run.op(training.train, records, model_cfg, cfg)
            wall = perf_counter() - t0
            if got is None:
                run.attempted += cfg.epochs * cfg.steps_per_epoch
                continue
            history = got[1]
            run.attempted += len(history)
            histories.append(history)
            calls.append((wall, len(history), 2 * cfg.batch_size * len(history)))
        return calls

    calls = run.measure(body)
    if not calls:
        raise RuntimeError("every train() call failed")

    first = [h["loss"] for h in histories[0]]
    run.check("train.steps", len(first) == cfg.epochs * cfg.steps_per_epoch, len(first))
    run.check("train.loss_finite", all(math.isfinite(x) for x in first), None)
    run.check(
        "train.deterministic",
        all([h["loss"] for h in hist] == first for hist in histories),
        f"{len(histories)} calls",
    )
    tail = max(1, len(first) // 5)
    train_loss = float(np.mean(first[-tail:]))
    run.check(
        "train.loss_decreased",
        train_loss < float(np.mean(first[:tail])),
        {"first": float(np.mean(first[:tail])), "last": train_loss},
    )

    pairs_per_s = [pairs / wall for wall, _, pairs in calls]
    run.end_to_end["op_ms_p50"] = statistics.median(1e3 * wall / steps for wall, steps, _ in calls)
    run.end_to_end["pass_s"] = statistics.median(wall for wall, _, _ in calls)
    run.metric("train_pairs_per_s", statistics.median(pairs_per_s), "1/s")
    run.metric("train_loss", train_loss, "nats")
    run.metric("train_calls", len(calls), "count")


# -- rerank ----------------------------------------------------------------


@dataclass
class _RerankState:
    queries: list
    gallery: list
    index: object
    rrt: Callable
    gv: Callable


def _rerank_query(index, query, n_gallery: int, scorer, method: str):
    nl = retrieval.knn_search(
        index, retrieval.query_vector(index, query), k=n_gallery, query_id=query.id
    )
    return nl, retrieval.rerank_topk(nl, scorer, RERANK_DEPTH, method=method)


def run_rerank(run: Run) -> None:
    scale = run.scale
    eval_cfg = scale.eval_set(run.seed)
    gv_cfg = GVConfig(iterations=scale.gv_iterations, seed=run.seed)

    def build():
        queries, gallery, _ = data.synth_generate(eval_cfg)
        queries = data.normalize_records(queries)
        gallery = data.normalize_records(gallery)
        params, model_cfg = model.load_checkpoint(CHECKPOINT)
        return _RerankState(
            queries,
            gallery,
            retrieval.build_index(gallery),
            scorers.make_rrt_scorer(params, model_cfg, queries, gallery),
            scorers.make_gv_scorer(queries, gallery, gv_cfg, threads=GV_THREADS),
        )

    def warm_up(st: _RerankState):
        q = st.queries[0]
        nl, _ = _rerank_query(st.index, q, len(st.gallery), st.rrt, "rrt")
        st.gv(q.id, nl.gallery_ids()[:GV_WARMUP_PAIRS])

    st = run.setup(build, warm_up)
    n_gallery = len(st.gallery)
    # per method, per query: every reranked list the timed loop produced
    outputs = {m: [[] for _ in st.queries] for m in ("rrt", "gv")}
    global_lists = [None] * len(st.queries)

    def query_op(i: int, scorer, method: str, times_ms: list):
        t0 = perf_counter()
        got = run.op(_rerank_query, st.index, st.queries[i], n_gallery, scorer, method)
        times_ms.append(1e3 * (perf_counter() - t0))
        run.attempted += 1
        if got is None:
            return
        nl, reranked = got
        if not _finite_scores(reranked):
            run.failed += 1
        if global_lists[i] is None:
            global_lists[i] = nl
        outputs[method][i].append(reranked)

    def body(seconds: float, wrap):
        """The GV pass over every query, in rrt_min_passes blocks with an
        RRT pass after each, so RRT samples spread over the whole run; more
        RRT passes follow until `seconds` have passed."""
        rrt_ms, gv_ms = [], []
        rrt, gv = wrap("rrt", st.rrt), wrap("gv", st.gv)
        n, blocks = len(st.queries), scale.rrt_min_passes

        def rrt_pass():
            for i in range(n):
                query_op(i, rrt, "rrt", rrt_ms)

        t_start = perf_counter()
        for b in range(blocks):
            for i in range(b * n // blocks, (b + 1) * n // blocks):
                query_op(i, gv, "gv", gv_ms)
            rrt_pass()
        while perf_counter() - t_start < seconds:
            rrt_pass()
        # one GV pass plus one RRT pass over every query
        pass_s = (sum(gv_ms) + statistics.mean(rrt_ms) * len(st.queries)) / 1e3
        return rrt_ms, gv_ms, pass_s

    rrt_ms, gv_ms, pass_s = run.measure(body)

    first = {}
    for method, per_query in outputs.items():
        same = all(
            outs and all(o.entries == outs[0].entries for o in outs) for outs in per_query
        )
        run.check(f"rerank.{method}_deterministic", same, sum(map(len, per_query)))
        first[method] = [outs[0] if outs else None for outs in per_query]

    maps = _rerank_maps(st, eval_cfg, global_lists, first)
    _check_gates(run, maps)
    _cross_check_frozen(run, maps)

    run.end_to_end["op_ms_p50"] = statistics.median(rrt_ms)
    run.end_to_end["pass_s"] = pass_s
    run.metric("rrt_query_ms_p50", statistics.median(rrt_ms), "ms")
    run.metric("rrt_query_ms_p90", float(np.percentile(rrt_ms, 90)), "ms")
    run.metric("rrt_query_samples", len(rrt_ms), "count")
    run.metric("gv_query_ms_p50", statistics.median(gv_ms), "ms")
    run.metric("gv_query_samples", len(gv_ms), "count")
    for name in ("global", "rrt", "gv", "oracle", "aqe+rrt"):
        if name in maps:
            run.metric("map_" + name.replace("+", "_"), maps[name]["map@100"], "mAP@100")


def _rerank_maps(st: _RerankState, eval_cfg, global_lists, first) -> dict:
    """mAP (full list, as run_benchmark reports it) and mAP@100 per method;
    methods with a failed query are left out, which fails their checks."""
    oracle = scorers.make_oracle_scorer(data.part_prototypes(eval_cfg), st.queries, st.gallery)
    lists = {
        "global": global_lists,
        "rrt": first["rrt"],
        "gv": first["gv"],
        "oracle": [
            None if nl is None else retrieval.rerank_topk(nl, oracle, RERANK_DEPTH, method="oracle")
            for nl in global_lists
        ],
        "aqe+rrt": [
            retrieval.aqe_then_rerank(
                st.index, retrieval.query_vector(st.index, q), q.id, st.rrt,
                AQE_NQE, AQE_ALPHA, RERANK_DEPTH,
            )
            for q in st.queries
        ],
    }
    gt = metrics.build_ground_truth(st.queries, st.gallery)
    maps = {}
    for name, ls in lists.items():
        if len(ls) != len(st.queries) or any(nl is None for nl in ls):
            continue
        rep = metrics.evaluate_neighbors(ls, gt, map_ks=(100,), method=name)
        maps[name] = {"map": rep.map, "map@100": rep.map_at[100]}
    return maps


def _check_gates(run: Run, maps: dict) -> None:
    """The gates documented in rrt.benchmark, on the full-list mAP that
    run_benchmark reports."""
    g = maps.get("global", {}).get("map", math.nan)
    o = maps.get("oracle", {}).get("map", math.nan)
    r = maps.get("rrt", {}).get("map", math.nan)
    run.check("gate.global_max", g <= GATE_GLOBAL_MAX, {"global": g, "max": GATE_GLOBAL_MAX})
    run.check("gate.oracle_min", o >= GATE_ORACLE_MIN, {"oracle": o, "min": GATE_ORACLE_MIN})
    run.check(
        "gate.rrt_margin",
        r >= g + GATE_RRT_MARGIN,
        {"rrt": r, "global": g, "margin": GATE_RRT_MARGIN},
    )


def _cross_check_frozen(run: Run, maps: dict) -> None:
    """Where run_benchmark(seed, include_gv=True, gv_iterations=500) was
    recorded for this seed, the mAPs that do not depend on the model must
    equal it exactly; on the checkpoint's own seed the RRT ones must too."""
    frozen = json.loads(FROZEN_REFERENCE.read_text())
    ref = frozen["run_benchmark"].get(str(run.seed))
    if ref is None or run.scale is not FULL:
        return
    names = ["global", "gv", "oracle"]
    if run.seed == frozen["checkpoint"]["seed"]:
        names += ["rrt", "aqe+rrt"]
    for name in names:
        want = ref["maps"][name]
        got = maps.get(name)
        run.check(f"frozen.{name}", got == want, {"got": got, "want": want})


# -- paper-rerank ------------------------------------------------------------


@dataclass
class _PaperState:
    query: object
    neighbors: object
    scorer: Callable


def paper_inputs(scale: Scale):
    """(queries, gallery, params, index) of the paper-scale workload."""
    queries, gallery, _ = data.synth_generate(scale.paper_data)
    queries = data.normalize_records(queries)
    gallery = data.normalize_records(gallery)
    params = model.init_params(scale.paper_model, seed=PAPER_MODEL_SEED)
    return queries, gallery, params, retrieval.build_index(gallery)


def paper_neighbors(index, query, n_gallery: int):
    return retrieval.knn_search(
        index, retrieval.query_vector(index, query), k=n_gallery, query_id=query.id
    )


def run_paper(run: Run) -> None:
    scale = run.scale
    pick = int(np.random.default_rng(run.seed).integers(PAPER_POOL))

    def build():
        queries, gallery, params, index = paper_inputs(scale)
        query = queries[pick % len(queries)]
        return _PaperState(
            query,
            paper_neighbors(index, query, len(gallery)),
            scorers.make_rrt_scorer(params, scale.paper_model, queries, gallery),
        )

    def warm_up(st: _PaperState):
        st.scorer(st.query.id, st.neighbors.gallery_ids()[:PAPER_WARMUP_PAIRS])

    st = run.setup(build, warm_up)
    ref = json.loads(PAPER_REFERENCE.read_text())
    want = ref["scores"].get(str(st.query.id)) if ref["inputs"] == paper_inputs_key(scale) else None
    results = []

    def body(seconds: float, wrap):
        calls = []  # (wall seconds, pairs)
        scorer = wrap("rrt", st.scorer)
        t_start = perf_counter()
        while not calls or perf_counter() - t_start < seconds:
            t0 = perf_counter()
            got = run.op(retrieval.rerank_topk, st.neighbors, scorer, RERANK_DEPTH, "rrt")
            wall = perf_counter() - t0
            run.attempted += 1
            results.append(got)
            calls.append((wall, min(RERANK_DEPTH, len(st.neighbors.entries))))
        return calls

    calls = run.measure(body)
    for i, got in enumerate(results):
        ok = got is not None and _finite_scores(got)
        run.check(f"paper.call{i}.finite", ok, None)
        if ok:
            run.check(f"paper.call{i}.reference", *_compare_reference(got, want))

    ms_per_pair = [1e3 * wall / pairs for wall, pairs in calls]
    run.end_to_end["op_ms_p50"] = statistics.median(1e3 * wall for wall, _ in calls)
    run.end_to_end["pass_s"] = statistics.median(wall for wall, _ in calls)
    run.metric("paper_ms_per_pair", statistics.median(ms_per_pair), "ms")
    run.metric("paper_calls", len(calls), "count")


def paper_inputs_key(scale: Scale) -> dict:
    """What the recorded paper scores depend on."""
    key = {
        "data": asdict(scale.paper_data),
        "model": asdict(scale.paper_model),
        "model_seed": PAPER_MODEL_SEED,
        "depth": RERANK_DEPTH,
    }
    return json.loads(json.dumps(key))  # tuples as lists, as read back from JSON


def _compare_reference(reranked, want: Optional[dict]):
    if want is None:
        return False, "no recorded scores for these inputs"
    got = {g: s for g, s in reranked.entries[:RERANK_DEPTH]}
    if set(got) != {int(g) for g in want}:
        return False, "candidate set differs from the recorded one"
    worst = max(abs(got[int(g)] - s) for g, s in want.items())
    return worst <= PAPER_SCORE_ATOL, {"max_abs_diff": worst, "atol": PAPER_SCORE_ATOL}


WORKLOADS = {"train": run_train, "rerank": run_rerank, "paper-rerank": run_paper}


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL
) -> tuple[dict, dict]:
    """(result line, report) of one run."""
    run = Run(workload, seed, seconds, trace, scale)
    WORKLOADS[workload](run)
    return run.finish()


def checkpoint_digest() -> Optional[str]:
    return file_sha256(CHECKPOINT) if CHECKPOINT.is_file() else None
