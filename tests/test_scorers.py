"""Scorer factories: at the frozen config the RRT scorer splits a top 100
into two chunks of 50, on worker threads when there are two CPUs, and the
GV scorer verifies it in one call on the calling thread; one CPU and two
give the same score bytes.  The oracle keeps query and gallery part sets
apart.  Once warm, RRT and GV scoring take their buffers from the heap they
kept, not from fresh pages."""

import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rrt import scorers
from rrt.baselines import GVConfig, gv_scores
from rrt.benchmark import RERANK_DEPTH, benchmark_model_config, eval_synth_config
from rrt.data import ImageRecord, normalize_records, synth_generate
from rrt.entry import BLAS_THREAD_VARS
from rrt.model import forward_pair_logits, init_params
from rrt.retrieval import build_index, rank_queries

from helpers import blas_core, spy_forward_passes


@pytest.fixture(scope="module")
def frozen_top100():
    """Seed-1 frozen eval set: (queries, gallery, first query, its top 100)."""
    queries, gallery, _ = synth_generate(eval_synth_config(1))
    queries, gallery = normalize_records(queries), normalize_records(gallery)
    [nl] = rank_queries(build_index(gallery), queries[:1], k=RERANK_DEPTH)
    return queries, gallery, queries[0], nl.gallery_ids()


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def spy_gv_calls(monkeypatch):
    """Record (candidates, ran on the main thread) per gv_scores call the GV
    scorer makes."""
    calls = []

    def spy(query, candidates, cfg):
        calls.append((len(candidates), threading.current_thread() is threading.main_thread()))
        return gv_scores(query, candidates, cfg)

    monkeypatch.setattr(scorers, "gv_scores", spy)
    return calls


def test_gv_scorer_gives_equal_bytes_on_one_and_two_workers(frozen_top100, monkeypatch):
    queries, gallery, q, ids = frozen_top100
    cfg = GVConfig(iterations=500, seed=1)
    by_id = {g.id: g for g in gallery}
    whole = [float(s) for s in gv_scores(q, [by_id[g] for g in ids], cfg)]
    calls = spy_gv_calls(monkeypatch)
    got = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        got[cpus] = scorers.make_gv_scorer(queries, gallery, cfg)(q.id, ids)
    assert calls == [(100, True)] * 2
    assert np.array(got[1]).tobytes() == np.array(got[2]).tobytes()
    assert got[2] == whole
    assert any(got[2])  # some candidate verifies, so the comparison means something


def test_rrt_scorer_at_frozen_config_gives_equal_bytes_on_one_and_two_workers(
    frozen_top100, monkeypatch
):
    queries, gallery, q, ids = frozen_top100
    cfg = benchmark_model_config()
    params = init_params(cfg, seed=1)
    by_id = {g.id: g for g in gallery}
    logits = forward_pair_logits(params, cfg, [(q, by_id[g]) for g in ids])
    whole = 1.0 / (1.0 + np.exp(-logits.data.astype(np.float64)))
    batches = spy_forward_passes(monkeypatch)
    got = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        got[cpus] = scorers.make_rrt_scorer(params, cfg, queries, gallery)(q.id, ids)
    # one chunk of 100 on the calling thread on one CPU, two of 50 on the pool on two
    assert batches == [(100, True)] + [(50, False)] * 2
    if blas_core() == "SkylakeX":  # a gemm row's bytes do not depend on the chunk here
        assert np.array(got[1]).tobytes() == np.array(got[2]).tobytes()
    else:
        np.testing.assert_allclose(got[1], got[2], rtol=0, atol=1e-6)
    # one forward pass over all 100, as a single chunk scored them before
    np.testing.assert_allclose(got[2], whole, rtol=0, atol=1e-6)


def test_oracle_scores_a_gallery_record_by_its_own_parts_when_a_query_shares_its_id():
    # Parts are the four basis directions; query 7 shows parts {0, 1}, the
    # gallery record also numbered 7 shows part {2}, gallery record 8 part {0}.
    bank = np.eye(4, dtype=np.float32)[None]

    def record(rec_id, parts):
        n = len(parts)
        return ImageRecord(rec_id, 0, np.ones(2, np.float32), bank[0, parts], np.zeros((n, 2)), np.zeros(n))

    scorer = scorers.make_oracle_scorer(bank, [record(7, [0, 1])], [record(7, [2]), record(8, [0])])
    assert scorer(7, [8, 7]) == [1.0, 0.0]


# Scores 2 warm-up queries of the seed-1 frozen eval set with the committed
# checkpoint, then prints the minor page faults of the next 10 top-100 RRT
# reranks.
FAULT_PROBE = """
import json, resource
from rrt.benchmark import RERANK_DEPTH, eval_synth_config
from rrt.data import normalize_records, synth_generate
from rrt.model import load_checkpoint
from rrt.retrieval import build_index, rank_queries, rerank_topk
from rrt.scorers import make_rrt_scorer

queries, gallery, _ = synth_generate(eval_synth_config(1))
queries, gallery = normalize_records(queries), normalize_records(gallery)
params, cfg = load_checkpoint({checkpoint!r})
lists = rank_queries(build_index(gallery), queries[:12], k=len(gallery))
scorer = make_rrt_scorer(params, cfg, queries, gallery)
for nl in lists[:2]:
    rerank_topk(nl, scorer, RERANK_DEPTH, method="rrt")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for nl in lists[2:]:
    rerank_topk(nl, scorer, RERANK_DEPTH, method="rrt")
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin sets glibc's thresholds")
def test_warm_rrt_reranks_take_no_fresh_pages():
    # Without the pinned thresholds, glibc hands each forward pass's
    # temporaries back to the OS and the next pass faults them in again:
    # about 3,000 minor faults a query.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), "PYTHONPATH": path}  # as the rrt command runs
    checkpoint = root / "perfbench" / "data" / "rrt_frozen_seed1.rrtm"
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE.format(checkpoint=str(checkpoint))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert faults < 1000, f"{faults} minor faults over 10 warm top-100 reranks"


# Builds only the GV scorer over the seed-1 frozen eval set, scores 2
# warm-up queries, then prints whether importing the package pinned the
# heap, the minor page faults of a top-100 GV rerank of all 40 queries, and
# the threads alive after it.
GV_FAULT_PROBE = """
import json, resource, threading
from rrt import model
from rrt.baselines import GVConfig
from rrt.benchmark import RERANK_DEPTH, eval_synth_config
from rrt.data import normalize_records, synth_generate
from rrt.retrieval import build_index, rank_queries, rerank_topk
from rrt.scorers import make_gv_scorer

pinned_on_import = model._heap_pinned
queries, gallery, _ = synth_generate(eval_synth_config(1))
queries, gallery = normalize_records(queries), normalize_records(gallery)
lists = rank_queries(build_index(gallery), queries, k=len(gallery))
scorer = make_gv_scorer(queries, gallery, GVConfig(iterations=500, seed=1))
for nl in lists[:2]:
    rerank_topk(nl, scorer, RERANK_DEPTH, method="gv")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for nl in lists:
    rerank_topk(nl, scorer, RERANK_DEPTH, method="gv")
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([pinned_on_import, faults, threading.active_count()]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin sets glibc's thresholds")
def test_warm_gv_pass_takes_no_fresh_pages_on_the_calling_thread():
    # Building the GV scorer pins the heap, so a process that scores with
    # GV alone keeps its RANSAC buffers: a few hundred minor faults a warm
    # 40-query pass, against about 170,000 unpinned.  GV starts no pool.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), "PYTHONPATH": path}  # as the rrt command runs
    proc = subprocess.run([sys.executable, "-c", GV_FAULT_PROBE],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned_on_import, faults, threads = json.loads(proc.stdout.strip().splitlines()[-1])
    assert pinned_on_import is None  # importing rrt leaves the heap alone
    assert faults < 2000, f"{faults} minor faults over a warm 40-query GV pass"
    assert threads == 1
