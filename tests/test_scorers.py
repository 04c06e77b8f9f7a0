"""Scorer factories on the worker pool: at the frozen config the GV and RRT
scorers split a top 100 into two chunks of 50, and one CPU and two give the
same score bytes, with the chunks on worker threads when there are two.  The
oracle keeps query and gallery part sets apart."""

import os
import threading

import numpy as np
import pytest

from rrt import scorers
from rrt.baselines import GVConfig, gv_scores
from rrt.benchmark import RERANK_DEPTH, benchmark_model_config, eval_synth_config
from rrt.data import ImageRecord, normalize_records, synth_generate
from rrt.model import forward_pair_logits, init_params
from rrt.retrieval import build_index, rank_queries

from helpers import spy_forward_passes


@pytest.fixture(scope="module")
def frozen_top100():
    """Seed-1 frozen eval set: (queries, gallery, first query, its top 100)."""
    queries, gallery, _ = synth_generate(eval_synth_config(1))
    queries, gallery = normalize_records(queries), normalize_records(gallery)
    [nl] = rank_queries(build_index(gallery), queries[:1], k=RERANK_DEPTH)
    return queries, gallery, queries[0], nl.gallery_ids()


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def spy_gv_chunks(monkeypatch):
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
    calls = spy_gv_chunks(monkeypatch)
    got = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        got[cpus] = scorers.make_gv_scorer(queries, gallery, cfg)(q.id, ids)
    assert calls == [(50, True)] * 2 + [(50, False)] * 2
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
    assert batches == [(50, True)] * 2 + [(50, False)] * 2
    assert np.array(got[1]).tobytes() == np.array(got[2]).tobytes()
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
