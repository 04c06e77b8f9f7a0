"""The frozen mAPs and gates: rrt.benchmark.rank_eval_set, run with the
committed checkpoint on each frozen eval set, gets exactly the map and
map@100 recorded in perfbench/data/frozen_reference.json.  That is global,
oracle and aqe on every recorded seed, and rrt and aqe+rrt on the
checkpoint's seed.  On every recorded seed it passes the gates that
rrt.benchmark documents (helpers.gate_results).  The checkpoint is the
recorded file, trained under today's frozen configs.  The test only reads
those files.  GV is left to tests/check_gv_reference.py, which takes about a
minute per seed, and the gates on freshly trained weights to
tests/check_training_gates.py."""

import functools
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from rrt.benchmark import benchmark_model_config, benchmark_train_config, rank_eval_set, train_synth_config
from rrt.metrics import config_digest
from rrt.model import load_checkpoint

from helpers import gate_results

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
FROZEN = json.loads((DATA / "frozen_reference.json").read_text())
CHECKPOINT = FROZEN["checkpoint"]


def test_checkpoint_is_the_recorded_one():
    assert hashlib.sha256((DATA / CHECKPOINT["file"]).read_bytes()).hexdigest() == CHECKPOINT["sha256"]


def test_checkpoint_was_trained_under_the_frozen_configs():
    # Editing a frozen config leaves the committed checkpoint stale.
    seed = CHECKPOINT["seed"]
    frozen = {
        "model": asdict(benchmark_model_config()),
        "train": asdict(benchmark_train_config(seed)),
        "train_data": asdict(train_synth_config(seed)),
    }
    assert config_digest(frozen) == CHECKPOINT["config_digest"]
    assert load_checkpoint(DATA / CHECKPOINT["file"])[1] == benchmark_model_config()


SEEDS = sorted(FROZEN["run_benchmark"], key=int)


@functools.cache
def maps(seed: str) -> dict:
    """{method: {"map", "map@100"}} of rank_eval_set on the seed's eval set
    with the committed checkpoint."""
    reports = rank_eval_set(int(seed), *load_checkpoint(DATA / CHECKPOINT["file"]))["reports"]
    return {name: {"map": rep.map, "map@100": rep.map_at[100]} for name, rep in reports.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_maps_equal_the_recorded_ones(seed):
    want = FROZEN["run_benchmark"][seed]["maps"]
    for name in ["global", "oracle", "aqe"] + (["rrt", "aqe+rrt"] if int(seed) == CHECKPOINT["seed"] else []):
        assert maps(seed)[name] == want[name], name


@pytest.mark.parametrize("seed", SEEDS)
def test_gates_hold(seed):
    held = gate_results({name: m["map"] for name, m in maps(seed).items()})
    assert all(held.values()), (held, maps(seed))
