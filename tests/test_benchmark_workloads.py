"""The benchmark's workloads (perfbench/workloads.py, loaded unchanged): the
train workload at a tiny size runs its steps with a finite loss history,
the same on every call, and no failed op; the rerank workload at a tiny
size passes its determinism checks and gates on one CPU and on two; every
workload, traced and untraced, runs its ops at the tiny size of
perfbench/test_smoke.py without one raising; at the full paper scale
(T=1004, where attention runs in query-row blocks), scores equal the
recorded ones, and chunks give the same bytes on the calling thread and on
two workers."""

import importlib.util
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rrt.benchmark import eval_synth_config, train_synth_config
from rrt.model import ModelConfig, score_batch

from helpers import spy_forward_passes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # its envinfo and tracer imports
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_train_workload_at_tiny_scale(workloads):
    tiny = workloads.Scale(
        setup_repeats=1,
        train_corpus=lambda seed: replace(
            train_synth_config(seed), n_instances=8, global_confusion_pairs=4
        ),
        train_steps_per_epoch=1,
        train_min_calls=2,
    )
    result, report = workloads.run_workload("train", seed=3, seconds=0.0, trace=False, scale=tiny)
    checks = report["checks"]
    for name in ("train.steps", "train.loss_finite", "train.deterministic"):
        assert checks[name]["ok"], (name, checks[name])
    assert report["metrics"]["train_calls"]["value"] == 2
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {"op_ms_p50", "pass_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("cpus", [1, 2])
def test_rerank_workload_at_tiny_scale(workloads, monkeypatch, cpus):
    # 12 queries over a 36-image gallery: each top 100 is the whole gallery,
    # 18 candidates per chunk.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    tiny = workloads.Scale(
        setup_repeats=1,
        eval_set=lambda seed: replace(
            eval_synth_config(seed), n_instances=6, global_confusion_pairs=3
        ),
        gv_iterations=50,
        rrt_min_passes=1,
    )
    result, report = workloads.run_workload("rerank", seed=1, seconds=0.0, trace=False, scale=tiny)
    checks = report["checks"]
    for name in ("rerank.rrt_deterministic", "rerank.gv_deterministic"):
        assert checks[name]["ok"], (name, checks[name])
    assert result["failed"] == 0 and result["correct"], checks
    assert set(result["metrics"]) == {"op_ms_p50", "pass_s", "peak_rss_mb", "setup_s"}


def smoke_scale(workloads):
    """The tiny Scale of perfbench/test_smoke.py."""
    return workloads.Scale(
        setup_repeats=1,
        train_corpus=lambda seed: replace(train_synth_config(seed), n_instances=8, global_confusion_pairs=4),
        train_steps_per_epoch=1,
        train_min_calls=1,
        eval_set=lambda seed: replace(eval_synth_config(seed), n_instances=4, global_confusion_pairs=2),
        gv_iterations=20,
        rrt_min_passes=1,
        paper_model=ModelConfig(L=8, d=8, h=2, d_h=4, layers=1, d_c=16, d_g_raw=16),
        paper_data=replace(
            workloads.PAPER_DATA, n_instances=4, global_confusion_pairs=2, parts_per_instance=4,
            parts_per_image=2, locals_per_image=8, d_l=8, d_g_raw=16,
        ),
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("paper-rerank", False), ("train", True), ("rerank", True), ("paper-rerank", True)],
)
def test_workload_ops_do_not_raise(workloads, capsys, workload, trace):
    # An op that raises, such as a call whose signature the package no
    # longer has, only counts as failed and the run goes on; the tracer
    # patches its sites by name.  Gates and the paper reference do not hold
    # at this size, so `correct` is not asserted.
    result, _ = workloads.run_workload(workload, seed=1, seconds=0.0, trace=trace, scale=smoke_scale(workloads))
    assert result["attempted"] >= 1
    assert "op failed:" not in capsys.readouterr().err


def test_paper_scale_scores_match_reference(workloads):
    ref = json.loads(workloads.PAPER_REFERENCE.read_text())
    assert ref["inputs"] == workloads.paper_inputs_key(workloads.FULL)
    queries, gallery, params, _ = workloads.paper_inputs(workloads.FULL)
    query = queries[0]
    want = ref["scores"][str(query.id)]
    by_id = {g.id: g for g in gallery}
    ids = [int(g) for g in want][:2]
    got = score_batch(params, workloads.FULL.paper_model, query, [by_id[g] for g in ids])
    for gid, score in zip(ids, got):
        assert abs(score - want[str(gid)]) <= workloads.PAPER_SCORE_ATOL, gid


def test_paper_scale_chunks_give_equal_bytes_on_one_and_two_workers(workloads, monkeypatch):
    # 8 recorded candidates run as four chunks of 2, on the calling thread
    # and on two workers: the same bytes, within tolerance of the record.
    ref = json.loads(workloads.PAPER_REFERENCE.read_text())
    queries, gallery, params, _ = workloads.paper_inputs(workloads.FULL)
    query = queries[0]
    want = ref["scores"][str(query.id)]
    by_id = {g.id: g for g in gallery}
    ids = [int(g) for g in want][:8]
    cands = [by_id[g] for g in ids]
    batches = spy_forward_passes(monkeypatch)
    got = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        got[cpus] = score_batch(params, workloads.FULL.paper_model, query, cands)
    assert batches == [(2, True)] * 4 + [(2, False)] * 4
    assert got[1] == got[2]
    for gid, score in zip(ids, got[2]):
        assert abs(score - want[str(gid)]) <= workloads.PAPER_SCORE_ATOL, gid
