"""Smoke test of the benchmark's own code path at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload emits every metric of BENCHMARK.json, and every
named report metric, with its unit.  Gates and recorded references do not
hold at this size, so `correct` is not asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from rrt.benchmark import eval_synth_config, train_synth_config  # noqa: E402
from rrt.model import ModelConfig  # noqa: E402

TINY = workloads.Scale(
    setup_repeats=1,
    train_corpus=lambda seed: replace(
        train_synth_config(seed), n_instances=8, global_confusion_pairs=4
    ),
    train_steps_per_epoch=1,
    train_min_calls=1,
    eval_set=lambda seed: replace(
        eval_synth_config(seed), n_instances=4, global_confusion_pairs=2
    ),
    gv_iterations=20,
    rrt_min_passes=1,
    paper_model=ModelConfig(L=8, d=8, h=2, d_h=4, layers=1, d_c=16, d_g_raw=16),
    paper_data=replace(
        workloads.PAPER_DATA,
        n_instances=4,
        global_confusion_pairs=2,
        parts_per_instance=4,
        parts_per_image=2,
        locals_per_image=8,
        d_l=8,
        d_g_raw=16,
    ),
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "ops_attempted": "count", "ops_failed": "count"}
REPORTED = {
    "train": {**COMMON, "train_pairs_per_s": "1/s", "train_loss": "nats"},
    "rerank": {
        **COMMON,
        "rrt_query_ms_p50": "ms",
        "rrt_query_ms_p90": "ms",
        "gv_query_ms_p50": "ms",
        "map_rrt": "mAP@100",
        "map_gv": "mAP@100",
    },
    "paper-rerank": {**COMMON, "paper_ms_per_pair": "ms"},
}


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(REPORTED))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    result, report = workloads.run_workload(workload, seed=1, seconds=0.0, trace=trace, scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    section = "per_layer" if trace else "end_to_end"
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    reported = {k: v["unit"] for k, v in report["metrics"].items()}
    for name, unit in REPORTED[workload].items():
        assert reported.get(name) == unit, name
    json.dumps([result, report])  # serializable as printed


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_environment_block_names_the_build_and_threads():
    from envinfo import environment

    env = environment(1, seed=7)
    for key in ("python", "numpy", "blas_build", "blas_threads", "nproc", "seed"):
        assert key in env, key
    assert env["blas_build"]["blas"]["name"]


def test_without_the_package_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
