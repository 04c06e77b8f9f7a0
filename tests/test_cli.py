"""Command-line exit codes on bad descriptor data, corrupt checkpoints,
repeated record ids, mismatched query/gallery pairs, bad oracle part banks
and label sets with nothing to score: 3, never a traceback, and no output
written; bad GV settings, bad flag and config values, bad --config files and
records the model cannot take exit 2, naming the flag, field, line or record;
--config files parse as the flags do; every command prints its help; config
digests free of machine facts, which the sidecars record beside them; flag defaults build the default configs; the
compare table and the correspond dump hold the library's values."""

import importlib
import inspect
import json
import os
import platform
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rrt import cli
from rrt import model as rrt_model
from rrt.baselines import GVConfig
from rrt.benchmark import AQE_ALPHA, AQE_NQE, RERANK_DEPTH
from rrt.cli import main
from rrt.data import DatasetManifest, ImageRecord, SynthConfig, load_dataset, normalize_records, save_dataset
from rrt.entry import BLAS_THREAD_VARS
from rrt.metrics import ablation_locals_sweep, evaluate_neighbors
from rrt.model import ModelConfig, attention_correspondences, init_params, load_checkpoint, save_checkpoint
from rrt.train import TrainConfig
from rrt.retrieval import NeighborList, build_index, read_neighbors, save_index, write_neighbors

from helpers import no_locals


def write_gallery(path, globals_, ids=None, labels=None):
    ids = range(len(globals_)) if ids is None else ids
    labels = [0] * len(globals_) if labels is None else labels
    recs = [
        ImageRecord(i, lab, np.asarray(g, dtype=np.float32), *no_locals())
        for i, lab, g in zip(ids, labels, globals_)
    ]
    manifest = DatasetManifest(d_g_raw=2, d_l=4, n_scales=1, scale_values=(1.0,))
    save_dataset(recs, manifest, path)


def test_index_with_zero_global_exits_3_naming_record(tmp_path, capsys):
    data = tmp_path / "g.rrtd"
    write_gallery(data, [[1.0, 0.0], [0.0, 0.0]])
    assert main(["index", "--data", str(data), "--out", str(tmp_path / "g.rrti")]) == 3
    assert "record 1" in capsys.readouterr().err


def test_index_of_empty_gallery_exits_3(tmp_path, capsys):
    data, out = tmp_path / "g.rrtd", tmp_path / "g.rrti"
    write_gallery(data, [])
    assert main(["index", "--data", str(data), "--out", str(out)]) == 3
    assert "no records to index" in capsys.readouterr().err
    assert not (out / "model.rrtm").exists()
    assert not out.exists()


def test_projected_index_and_retrieve_need_a_global_projection(tmp_path, capsys):
    # synth, then train without the global token: the model has no
    # global_proj tensors to embed the gallery or the queries with.
    data, trained = tmp_path / "d", tmp_path / "m"
    assert main(["synth", "--out", str(data), "--instances", "4", "--confusion-pairs", "2"]) == 0
    assert main(["train", "--data", str(data / "gallery.rrtd"), "--out", str(trained), "--epochs", "1",
                 "--locals-max", "16", "--layers", "1", "--mlp-dim", "16", "--no-global-token"]) == 0
    checkpoint = trained / "model.rrtm"
    capsys.readouterr()
    index = tmp_path / "g.rrti"
    assert main(["index", "--data", str(data / "gallery.rrtd"), "--out", str(index),
                 "--checkpoint", str(checkpoint)]) == 2
    message = f"--checkpoint {checkpoint} has no global projection (trained with --no-global-token)"
    assert message in capsys.readouterr().err
    assert not index.exists() and not Path(str(index) + ".meta.json").exists()

    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=128)
    projector = tmp_path / "p.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, projector)
    assert main(["index", "--data", str(data / "gallery.rrtd"), "--out", str(index),
                 "--checkpoint", str(projector)]) == 0
    capsys.readouterr()
    out = tmp_path / "n.jsonl"
    assert main(["retrieve", "--data", str(index), "--queries", str(data / "queries.rrtd"),
                 "--checkpoint", str(checkpoint), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["index", "retrieve"])
def test_projection_checkpoint_of_other_global_dim_exits_2(tmp_path, capsys, command):
    data, index, out = tmp_path / "g.rrtd", tmp_path / "g.rrti", tmp_path / "out"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    checkpoints = []
    for d_g_raw in (2, 3):
        cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=d_g_raw)
        checkpoints.append(tmp_path / f"m{d_g_raw}.rrtm")
        save_checkpoint(init_params(cfg, seed=0), cfg, checkpoints[-1])
    assert main(["index", "--data", str(data), "--out", str(index), "--checkpoint", str(checkpoints[0])]) == 0
    capsys.readouterr()
    argv = {
        "index": ["--data", str(data)],
        "retrieve": ["--data", str(index), "--queries", str(data)],
    }[command]
    assert main([command, *argv, "--checkpoint", str(checkpoints[1]), "--out", str(out)]) == 2
    assert f"--checkpoint {checkpoints[1]} projects 3-dim globals, but the data's are 2-dim" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_with_checkpoint_of_other_model_dim_exits_2(tmp_path, capsys):
    data, index, out = tmp_path / "g.rrtd", tmp_path / "g.rrti", tmp_path / "n.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    checkpoints = []
    for d in (4, 8):
        cfg = ModelConfig(L=2, d=d, h=2, d_h=d // 2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
        checkpoints.append(tmp_path / f"m{d}.rrtm")
        save_checkpoint(init_params(cfg, seed=0), cfg, checkpoints[-1])
    assert main(["index", "--data", str(data), "--out", str(index), "--checkpoint", str(checkpoints[0])]) == 0
    capsys.readouterr()
    assert main(["retrieve", "--data", str(index), "--queries", str(data), "--checkpoint", str(checkpoints[1]),
                 "--out", str(out)]) == 2
    assert f"--checkpoint {checkpoints[1]} projects to 8 dims, but the index holds 4-dim vectors" in capsys.readouterr().err
    assert not out.exists()


def projector(tmp_path):
    """A checkpoint of a tiny model whose global projection takes the 2-dim
    globals of write_gallery."""
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    return checkpoint


def test_index_with_checkpoint_holds_the_projected_globals(tmp_path):
    data, index, want = tmp_path / "g.rrtd", tmp_path / "g.rrti", tmp_path / "want.rrti"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    checkpoint = projector(tmp_path)
    assert main(["index", "--data", str(data), "--out", str(index), "--checkpoint", str(checkpoint)]) == 0
    save_index(build_index(normalize_records(load_dataset(data)[0]), params=load_checkpoint(checkpoint)[0]), want)
    assert index.read_bytes() == want.read_bytes()


def test_retrieve_from_raw_index_with_checkpoint_exits_2(tmp_path, capsys):
    data, index, out = tmp_path / "g.rrtd", tmp_path / "g.rrti", tmp_path / "n.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    checkpoint = projector(tmp_path)
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["retrieve", "--data", str(index), "--queries", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: --checkpoint {checkpoint} given, but --data {index} is a raw index" in captured.err
    assert captured.out == "" and not out.exists() and not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command", ["index", "retrieve", "eval", "compare", "ablate", "correspond"])
def test_seed_exits_2_where_no_random_number_is_drawn(tmp_path, capsys, monkeypatch, command, given):
    ran = []
    help_text, flags, _ = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (help_text, flags, lambda cfg: ran.append(cfg) or 0))
    argv = [command, *(token for f in flags if f.required for token in (f.name, "1"))]
    if given == "flag":
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    else:
        conf = tmp_path / "c.cfg"
        conf.write_text("seed=1\n")
        assert main([*argv, "--config", str(conf)]) == 2
        assert "c.cfg:1: unknown key 'seed'" in capsys.readouterr().err
    assert ran == []


def test_retrieve_with_nan_descriptor_exits_3(tmp_path, capsys):
    data = tmp_path / "g.rrtd"
    index = tmp_path / "g.rrti"
    out = tmp_path / "n.jsonl"
    write_gallery(data, [[1.0, 0.0], [np.nan, 1.0]])
    assert main(["index", "--data", str(data), "--out", str(index)]) == 3
    assert "record 1" in capsys.readouterr().err
    assert not index.exists()

    clean = tmp_path / "clean.rrtd"
    write_gallery(clean, [[1.0, 0.0], [0.0, 1.0]])
    assert main(["index", "--data", str(clean), "--out", str(index)]) == 0
    code = main(["retrieve", "--data", str(index), "--queries", str(data), "--k", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "record 1" in err and "non-finite" in err
    assert not out.exists()


def test_duplicate_record_id_exits_3_naming_it(tmp_path, capsys):
    data = tmp_path / "g.rrtd"
    write_gallery(data, [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], ids=[1, 1, 2], labels=[0, 1, 1])
    assert main(["index", "--data", str(data), "--out", str(tmp_path / "g.rrti")]) == 3
    assert "record id 1 appears more than once" in capsys.readouterr().err
    train_argv = ["train", "--data", str(data), "--out", str(tmp_path / "model"),
                  "--locals-max", "2", "--heads", "2", "--layers", "1", "--mlp-dim", "8",
                  "--epochs", "1"]
    assert main(train_argv) == 3
    assert "record id 1 appears more than once" in capsys.readouterr().err


def test_retrieve_from_index_with_duplicate_id_exits_3(tmp_path, capsys):
    data = tmp_path / "g.rrtd"
    index = tmp_path / "g.rrti"
    write_gallery(data, [[1.0, 0.0], [0.0, 1.0]], ids=[7, 8])
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    raw = bytearray(index.read_bytes())
    ids_at = 4 + struct.calcsize("<IBII")
    raw[ids_at + 4 : ids_at + 8] = struct.pack("<I", 7)  # ids 7, 7
    index.write_bytes(bytes(raw))
    out = tmp_path / "n.jsonl"
    code = main(["retrieve", "--data", str(index), "--queries", str(data), "--k", "1", "--out", str(out)])
    assert code == 3
    assert "record id 7 appears more than once" in capsys.readouterr().err
    assert not out.exists()


REPEATED = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]  # ids 1, 2, 2 below


@pytest.mark.parametrize("scorer", ["gv", "aqe"])
@pytest.mark.parametrize("side", ["queries", "gallery"])
def test_rerank_with_repeated_record_id_exits_3(tmp_path, capsys, scorer, side):
    clean, repeated = tmp_path / "clean.rrtd", tmp_path / "repeated.rrtd"
    write_gallery(clean, REPEATED, ids=[1, 2, 3])
    write_gallery(repeated, REPEATED, ids=[1, 2, 2])
    neighbors = tmp_path / "n.jsonl"
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (2, 0.4)])])
    files = {"queries": clean, "gallery": clean, side: repeated}
    out = tmp_path / "r.jsonl"
    code = main(["rerank", "--data", str(neighbors), "--queries", str(files["queries"]),
                 "--gallery", str(files["gallery"]), "--scorer", scorer, "--out", str(out)])
    assert code == 3
    assert "record id 2 appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side", ["queries", "gallery"])
def test_correspond_with_repeated_record_id_exits_3(tmp_path, capsys, side):
    clean, repeated = tmp_path / "clean.rrtd", tmp_path / "repeated.rrtd"
    write_gallery(clean, REPEATED, ids=[1, 2, 3])
    write_gallery(repeated, REPEATED, ids=[1, 2, 2])
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    files = {"queries": clean, "gallery": clean, side: repeated}
    out = tmp_path / "c.json"
    argv = ["correspond", "--queries", str(files["queries"]), "--gallery", str(files["gallery"]),
            "--checkpoint", str(checkpoint), "--query-id", "2", "--gallery-id", "2", "--out", str(out)]
    assert main(argv) == 3
    assert "record id 2 appears more than once" in capsys.readouterr().err
    assert not out.exists()


def gv_rerank_and_eval_argvs(tmp_path) -> dict:
    """{output path: argv} of a GV rerank of a three-record set's retrieved
    lists, then its eval, in run order."""
    data = tmp_path / "g.rrtd"
    index = tmp_path / "g.rrti"
    neighbors = tmp_path / "n.jsonl"
    out, report = tmp_path / "r.jsonl", tmp_path / "e.json"
    write_gallery(data, [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    assert main(["retrieve", "--data", str(index), "--queries", str(data), "--k", "3", "--out", str(neighbors)]) == 0
    return {
        out: ["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
              "--scorer", "gv", "--out", str(out)],
        report: ["eval", "--data", str(out), "--queries", str(data), "--gallery", str(data),
                 "--out", str(report)],
    }


def test_rerank_digest_does_not_depend_on_cpu_count(tmp_path, monkeypatch):
    argvs = gv_rerank_and_eval_argvs(tmp_path)
    report = list(argvs)[1]
    metas = []
    try:
        for cpus in (1, 64):
            with monkeypatch.context() as m:
                m.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
                m.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
                # flag defaults are evaluated when the module is imported
                reloaded = importlib.reload(cli)
                for path, argv in argvs.items():
                    assert reloaded.main(argv) == 0
                    metas.append(json.loads(Path(str(path) + ".meta.json").read_text()))
    finally:
        importlib.reload(cli)
    assert [m["environment"]["workers"] for m in metas] == [1, 1, 2, 2]
    assert metas[0]["config_digest"] == metas[2]["config_digest"]
    assert metas[1]["config_digest"] == metas[3]["config_digest"]
    assert json.loads(report.read_text())["config_digest"] == metas[1]["config_digest"]


def test_sidecars_record_blas_threads_and_heap_pin_outside_the_digest(tmp_path, monkeypatch):
    argvs = gv_rerank_and_eval_argvs(tmp_path)
    settings = ({"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"})
    metas = []
    for setting in settings:
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in setting.items():
            monkeypatch.setenv(var, value)
        for path, argv in argvs.items():
            assert main(argv) == 0
            metas.append(json.loads(Path(str(path) + ".meta.json").read_text()))
    blas = [{var: setting.get(var) for var in BLAS_THREAD_VARS} | {"blas_core": cli.blas_core()}
            for setting in settings]
    workers = rrt_model.score_workers()
    # building the GV scorer pins the heap; the pin is per process, so an
    # earlier test may have taken it (the fault probe in test_scorers.py
    # checks that GV alone takes it)
    pinned = {"heap_pinned": platform.libc_ver()[0] == "glibc"}
    assert [m["environment"] for m in metas] == [
        {"workers": workers, **blas[0], **pinned}, {"workers": workers, **blas[0]},
        {"workers": workers, **blas[1], **pinned}, {"workers": workers, **blas[1]},
    ]
    # machine facts are blanked for byte identity, as wallclock_s is
    blanked = [json.dumps({**m, "environment": None}, sort_keys=True) for m in metas]
    assert blanked[:2] == blanked[2:]


def test_blas_core_names_the_core_that_runs_and_none_without_a_library(monkeypatch):
    if cli.blas_core() is None:
        pytest.skip("numpy's BLAS reports no core name here")
    # OpenBLAS picks its core when numpy loads it, so a fresh interpreter asks.
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "from rrt.cli import blas_core; print(blas_core())"],
                          env={**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, "Haswell"), proc.stderr
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: [])
    assert cli.blas_core() is None


def write_rrt_inputs(tmp_path, bad_id):
    """A checkpoint at L=2 and a descriptor file of records 1..7 with two
    locals each, except record `bad_id`, which has three."""
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    rng = np.random.default_rng(0)
    recs = []
    for i in range(1, 8):
        n = 3 if i == bad_id else 2
        vecs = rng.standard_normal((n, 4)).astype(np.float32)
        uv = rng.uniform(0, 64, (n, 2)).astype(np.float32)
        recs.append(ImageRecord(i, 0, rng.standard_normal(2).astype(np.float32), vecs, uv, np.zeros(n, np.uint8)))
    data = tmp_path / "g.rrtd"
    save_dataset(recs, DatasetManifest(d_g_raw=2, d_l=4, n_scales=1, scale_values=(1.0,)), data)
    return cfg, checkpoint, data


def test_rerank_rrt_with_model_rejected_record_in_later_chunk_exits_2(tmp_path, capsys, monkeypatch):
    # Six candidates in chunks of two on two workers; the third chunk holds
    # a record with more locals than the model takes.  The scorer checks
    # every record when it is built, so no chunk is scored.
    cfg, checkpoint, data = write_rrt_inputs(tmp_path, bad_id=6)
    neighbors, out = tmp_path / "n.jsonl", tmp_path / "r.jsonl"
    write_neighbors(neighbors, [NeighborList(1, [(g, 1.0 - g / 10) for g in range(2, 8)])])
    monkeypatch.setattr(rrt_model, "SCORE_CHUNK_FLOATS", 2 * cfg.seq_len * cfg.d)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = main(["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                 "--scorer", "rrt", "--checkpoint", str(checkpoint), "--out", str(out)])
    assert code == 2
    assert "record 6 has 3 locals but the model takes at most 2" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_rerank_rrt_with_model_rejected_record_never_retrieved_exits_2(tmp_path, capsys):
    # Record 7 is in no neighbour list, so no forward pass would reach it.
    _, checkpoint, data = write_rrt_inputs(tmp_path, bad_id=7)
    neighbors, out = tmp_path / "n.jsonl", tmp_path / "r.jsonl"
    write_neighbors(neighbors, [NeighborList(1, [(g, 1.0 - g / 10) for g in range(2, 7)])])
    code = main(["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                 "--scorer", "rrt", "--checkpoint", str(checkpoint), "--out", str(out)])
    assert code == 2
    assert "record 7 has 3 locals but the model takes at most 2" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_evaluating_queries_without_relevant_items_exits_3(tmp_path, capsys, command):
    data, neighbors, out = tmp_path / "g.rrtd", tmp_path / "n.jsonl", tmp_path / "e.out"
    write_gallery(data, REPEATED, ids=[1, 2, 3], labels=[0, 1, 2])  # every label once
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    code = main([command, "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                 "--out", str(out)])
    assert code == 3
    assert f"{neighbors}: no query has a relevant gallery item" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_ablating_queries_without_relevant_items_exits_3(tmp_path, capsys):
    data, checkpoint, out = tmp_path / "g.rrtd", tmp_path / "m.rrtm", tmp_path / "a.tsv"
    write_gallery(data, REPEATED, ids=[1, 2, 3], labels=[0, 1, 2])  # every label once
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    code = main(["ablate", "--queries", str(data), "--gallery", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out)])
    assert code == 3
    assert "no query has a relevant gallery item" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_ablate_at_a_full_budget_equals_retrieve_rerank_eval(tmp_path):
    # Budgets that keep every local leave the records whole, so each ablate
    # row is the pipeline's own rrt mAP over the whole gallery.
    data, checkpoint = tmp_path / "d", tmp_path / "m.rrtm"
    assert main(["synth", "--out", str(data), "--instances", "6", "--confusion-pairs", "3", "--seed", "2"]) == 0
    synth = SynthConfig()
    cfg = ModelConfig(L=synth.locals_per_image, d=synth.d_l, h=4, d_h=synth.d_l // 4, layers=1, d_c=32,
                      n_scales=synth.n_scales, d_g_raw=synth.d_g_raw)
    save_checkpoint(init_params(cfg, seed=3), cfg, checkpoint)
    pair = ["--queries", str(data / "queries.rrtd"), "--gallery", str(data / "gallery.rrtd")]
    n_gallery = 6 * (synth.images_per_instance - synth.queries_per_instance)
    steps = [
        ["index", "--data", str(data / "gallery.rrtd"), "--out", str(tmp_path / "g.rrti")],
        ["retrieve", "--data", str(tmp_path / "g.rrti"), "--queries", str(data / "queries.rrtd"),
         "--k", str(n_gallery), "--out", str(tmp_path / "global.jsonl")],
        ["rerank", "--data", str(tmp_path / "global.jsonl"), *pair, "--scorer", "rrt",
         "--checkpoint", str(checkpoint), "--out", str(tmp_path / "rrt.jsonl")],
        ["eval", "--data", str(tmp_path / "rrt.jsonl"), *pair, "--out", str(tmp_path / "rrt.json")],
        ["ablate", *pair, "--checkpoint", str(checkpoint), "--counts", f"{synth.locals_per_image},99",
         "--out", str(tmp_path / "a.tsv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    want = f"{json.loads((tmp_path / 'rrt.json').read_text())['map']:.6f}"
    rows = [line.split("\t") for line in (tmp_path / "a.tsv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == [want, want]


def synth_and_retrieve(tmp_path):
    """A synthetic set (6 instances, 2 confusion pairs, seed 1) under d/, and
    its global top-100 in global.jsonl; returns (d, the --queries and
    --gallery flags, the neighbour file)."""
    data, index, neighbors = tmp_path / "d", tmp_path / "g.rrti", tmp_path / "global.jsonl"
    for argv in (
        ["synth", "--out", str(data), "--instances", "6", "--confusion-pairs", "2", "--seed", "1"],
        ["index", "--data", str(data / "gallery.rrtd"), "--out", str(index)],
        ["retrieve", "--data", str(index), "--queries", str(data / "queries.rrtd"), "--out", str(neighbors)],
    ):
        assert main(argv) == 0, argv
    return data, ["--queries", str(data / "queries.rrtd"), "--gallery", str(data / "gallery.rrtd")], neighbors


def test_eval_of_a_file_listing_a_query_twice_exits_3(tmp_path, capsys):
    _, pair, neighbors = synth_and_retrieve(tmp_path)
    lines = neighbors.read_text().splitlines(keepends=True)
    neighbors.write_text(lines[0] + "".join(lines))
    out = tmp_path / "e.json"
    capsys.readouterr()
    assert main(["eval", "--data", str(neighbors), *pair, "--out", str(out)]) == 3
    query = json.loads(lines[0])["query"]
    assert f"bad neighbor line 2: query id {query} already on line 1" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_compare_table_holds_each_files_eval_values(tmp_path, capsys):
    _, pair, global_list = synth_and_retrieve(tmp_path)
    aqe = tmp_path / "aqe.jsonl"
    assert main(["rerank", "--data", str(global_list), *pair, "--scorer", "aqe", "--out", str(aqe)]) == 0
    cutoffs = ["--map-ks", "5,100", "--recall-ks", "1,5"]
    table = tmp_path / "c.tsv"
    capsys.readouterr()
    assert main(["compare", "--data", str(global_list), str(aqe), *pair, *cutoffs, "--out", str(table)]) == 0
    rows = [line.split("\t") for line in table.read_text().splitlines()]
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == rows
    assert rows[0] == ["file", "method", "map", "map@5", "map@100", "r@1", "r@5"]
    assert len(rows) == 3
    for row, path in zip(rows[1:], (global_list, aqe)):
        report = tmp_path / f"{path.stem}.json"
        assert main(["eval", "--data", str(path), *pair, *cutoffs, "--out", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert row == [path.name, rep["method"], f"{rep['map']:.6f}",
                       *(f"{rep['map_at'][k]:.6f}" for k in ("5", "100")),
                       *(f"{rep['recall_at'][k]:.6f}" for k in ("1", "5"))]
    assert rows[1][2:] != rows[2][2:]  # the two rankings differ, so each row is its own file's


def test_correspond_writes_the_attention_matches_with_their_positions(tmp_path):
    data, pair, _ = synth_and_retrieve(tmp_path)
    synth = SynthConfig()
    # four pad slots a side, as a checkpoint trained with a larger --locals-max has
    cfg = ModelConfig(L=synth.locals_per_image + 4, d=synth.d_l, h=4, d_h=synth.d_l // 4, layers=2, d_c=32,
                      n_scales=synth.n_scales, d_g_raw=synth.d_g_raw)
    checkpoint, out = tmp_path / "m.rrtm", tmp_path / "c.json"
    save_checkpoint(init_params(cfg, seed=4), cfg, checkpoint)
    q = normalize_records(load_dataset(data / "queries.rrtd")[0])[0]
    g = normalize_records(load_dataset(data / "gallery.rrtd")[0])[3]
    assert main(["correspond", *pair, "--checkpoint", str(checkpoint), "--query-id", str(q.id),
                 "--gallery-id", str(g.id), "--out", str(out)]) == 0
    matches = attention_correspondences(load_checkpoint(checkpoint)[0], cfg, q, g)
    assert len(matches) == synth.locals_per_image
    payload = json.loads(out.read_text())
    assert (payload["query"], payload["gallery"]) == (q.id, g.id)
    assert payload["matches"] == [
        {"query_local": i, "gallery_local": j, "weight": w, "query_uv": q.uv[i].tolist(),
         "gallery_uv": g.uv[j].tolist()}
        for i, j, w in matches
    ]


def test_checkpoint_with_more_locals_than_a_record_holds_exits_3(tmp_path, capsys):
    # Byte 11 is the top byte of the config's u32 L, so L reads 2**31 + 2;
    # every forward pass would pad to it.  A projected index reads only the
    # global projection, so only the load can reject it.
    data, checkpoint, out = tmp_path / "g.rrtd", tmp_path / "m.rrtm", tmp_path / "g.rrti"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    raw = bytearray(checkpoint.read_bytes())
    raw[11] ^= 0x80
    checkpoint.write_bytes(bytes(raw))
    code = main(["index", "--data", str(data), "--checkpoint", str(checkpoint), "--out", str(out)])
    assert code == 3
    message = "L must be at most 65535, the most locals a .rrtd record holds, got 2147483650 (at byte offset 8)"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_with_more_locals_than_a_record_holds_exits_2(tmp_path, capsys, monkeypatch):
    # train() is stubbed out: at this L it would pad every pair to 65,536
    # locals a side.
    capture(monkeypatch, "train")
    data, out = tmp_path / "g.rrtd", tmp_path / "out"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    assert main(["train", "--data", str(data), "--out", str(out), "--locals-max", "65536"]) == 2
    assert "L must be at most 65535, the most locals a .rrtd record holds, got 65536" in capsys.readouterr().err
    assert not out.exists()


def test_query_expansion_of_a_projected_list_does_not_read_its_scores(tmp_path):
    # The list only picks the expansion neighbors, whose weights are cosines
    # in the raw index that rerank builds: rewriting the scores of a list
    # from a projected index leaves the output bytes as they are.
    data, checkpoint, index = tmp_path / "d", tmp_path / "m.rrtm", tmp_path / "g.rrti"
    assert main(["synth", "--out", str(data), "--instances", "4", "--confusion-pairs", "2"]) == 0
    synth = SynthConfig()
    cfg = ModelConfig(L=synth.locals_per_image, d=synth.d_l, h=4, d_h=synth.d_l // 4, layers=1, d_c=32,
                      n_scales=synth.n_scales, d_g_raw=synth.d_g_raw)
    save_checkpoint(init_params(cfg, seed=3), cfg, checkpoint)
    pair = ["--queries", str(data / "queries.rrtd"), "--gallery", str(data / "gallery.rrtd")]
    projected, rewritten = tmp_path / "projected.jsonl", tmp_path / "rewritten.jsonl"
    assert main(["index", "--data", str(data / "gallery.rrtd"), "--out", str(index),
                 "--checkpoint", str(checkpoint)]) == 0
    assert main(["retrieve", "--data", str(index), "--queries", str(data / "queries.rrtd"),
                 "--checkpoint", str(checkpoint), "--out", str(projected)]) == 0
    write_neighbors(rewritten, [replace(nl, entries=[(g, 0.01) for g in nl.gallery_ids()])
                                for nl in read_neighbors(projected)])
    for scorer, model in (("aqe", []), ("aqe+rrt", ["--checkpoint", str(checkpoint)])):
        outs = []
        for lists in (projected, rewritten):
            out = tmp_path / f"{lists.stem}.{scorer}.jsonl"
            assert main(["rerank", "--data", str(lists), *pair, "--scorer", scorer, *model,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], scorer


def test_rerank_with_negative_locals_budget_exits_2(tmp_path, capsys):
    # Also when no record is there to cut: the flag itself is checked.
    data, neighbors, out = tmp_path / "g.rrtd", tmp_path / "n.jsonl", tmp_path / "r.jsonl"
    for ids in ([1, 2, 3], []):
        write_gallery(data, REPEATED[: len(ids)], ids=ids)
        write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])] if ids else [])
        code = main(["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                     "--scorer", "gv", "--locals-max", "-3", "--out", str(out)])
        assert code == 2
        assert "--locals-max must be non-negative, got -3" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ransac-iters", "-5"], "GV iterations must be at least 1, got -5"),
        (["--ransac-thresh", "0"], "GV inlier threshold must be finite and positive, got 0.0"),
        (["--ransac-thresh", "nan"], "GV inlier threshold must be finite and positive, got nan"),
        (["--ratio", "-1.0"], "GV ratio must be finite and positive, got -1.0"),
    ],
    ids=["iterations_-5", "threshold_0", "threshold_nan", "ratio_-1"],
)
def test_rerank_with_bad_gv_setting_exits_2(tmp_path, capsys, flags, message):
    data, neighbors, out = tmp_path / "g.rrtd", tmp_path / "n.jsonl", tmp_path / "r.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    code = main(["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                 "--scorer", "gv", "--out", str(out), *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("retrieve", ["--k", "0"], "--k must be at least 1, got 0"),
        ("retrieve", ["--k", "-1"], "--k must be at least 1, got -1"),
        ("rerank", ["--scorer", "gv", "--k", "-1"], "--k must be non-negative, got -1"),
        ("rerank", ["--scorer", "aqe", "--nqe", "-1"], "--nqe must be non-negative, got -1"),
        ("rerank", ["--scorer", "aqe", "--alpha", "nan"], "--alpha must be finite and non-negative, got nan"),
        ("rerank", ["--scorer", "aqe", "--alpha", "-0.5"], "--alpha must be finite and non-negative, got -0.5"),
        ("ablate", ["--k", "-1"], "--k must be non-negative, got -1"),
        ("train", ["--heads", "0"], "--heads must be at least 1, got 0"),
        ("train", ["--grad-clip", "nan"], "grad_clip_norm must be finite and positive when set, got nan"),
        ("train", ["--lr", "nan"], "lr must be finite and non-negative, got nan"),
        ("train", ["--weight-decay", "inf"], "weight_decay must be finite and non-negative, got inf"),
        ("train", ["--steps-per-epoch", "0"], "steps_per_epoch must be positive when set, got 0"),
        ("train", ["--layers", "256"], "layers must be at most 255 to fit a .rrtm file, got 256"),
        ("train", ["--mlp-dim", "70000"], "d_c must be at most 65535 to fit a .rrtm file, got 70000"),
        ("synth", ["--global-noise", "nan"], "global_noise must be finite and non-negative, got nan"),
        ("synth", ["--local-noise", "inf"], "local_noise must be finite and non-negative, got inf"),
        ("synth", ["--dim-local", "0"], "d_l must be positive, got 0"),
        ("synth", ["--dim-global", "0"], "d_g_raw must be positive, got 0"),
        ("synth", ["--instances", "0", "--confusion-pairs", "0"], "n_instances must be positive, got 0"),
        ("synth", ["--images-per-instance", "0", "--queries-per-instance", "0"],
         "images_per_instance must be positive, got 0"),
        ("synth", ["--parts-per-image", "-2", "--locals-per-image", "-1"],
         "parts_per_image must be non-negative, got -2"),
        ("synth", ["--queries-per-instance", "-1"], "queries_per_instance must be non-negative, got -1"),
        ("synth", ["--confusion-pairs", "-1"], "global_confusion_pairs must be non-negative, got -1"),
        ("synth", ["--locals-per-image", "70000", "--dim-local", "1"],
         "locals_per_image must be at most 65535 to fit a .rrtd file, got 70000"),
        ("synth", ["--dim-local", "70000"], "d_l must be at most 65535 to fit a .rrtd file, got 70000"),
        ("eval", ["--format", "xml"], "--format must be json or csv, got xml"),
        ("eval", ["--map-ks", "0"], "--map-ks must be positive integers, got [0]"),
        ("eval", ["--recall-ks", "-1"], "--recall-ks must be positive integers, got [-1]"),
        ("compare", ["--map-ks", "0"], "--map-ks must be positive integers, got [0]"),
        ("compare", ["--recall-ks", "-1"], "--recall-ks must be positive integers, got [-1]"),
    ],
    ids=["retrieve_k_0", "retrieve_k_-1", "rerank_k_-1", "rerank_nqe_-1", "rerank_alpha_nan",
         "rerank_alpha_-0.5", "ablate_k_-1", "train_heads_0", "train_grad_clip_nan", "train_lr_nan",
         "train_weight_decay_inf", "train_steps_per_epoch_0", "train_layers_256", "train_mlp_dim_70000",
         "synth_global_noise_nan",
         "synth_local_noise_inf", "synth_dim_local_0", "synth_dim_global_0", "synth_instances_0",
         "synth_images_per_instance_0", "synth_parts_per_image_-2", "synth_queries_per_instance_-1",
         "synth_confusion_pairs_-1", "synth_locals_per_image_70000", "synth_dim_local_70000",
         "eval_format_xml",
         "eval_map_ks_0", "eval_recall_ks_-1", "compare_map_ks_0", "compare_recall_ks_-1"],
)
def test_bad_flag_value_exits_2_naming_it_without_output(tmp_path, capsys, command, flags, message):
    data, index, neighbors = tmp_path / "g.rrtd", tmp_path / "g.rrti", tmp_path / "n.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    capsys.readouterr()
    out = tmp_path / "out"
    labels = ["--queries", str(data), "--gallery", str(data)]
    argv = {
        "retrieve": ["--data", str(index), "--queries", str(data)],
        "rerank": ["--data", str(neighbors), *labels],
        "ablate": [*labels, "--checkpoint", str(checkpoint)],
        "train": ["--data", str(data)],
        "synth": [],
        "eval": ["--data", str(neighbors), *labels],
        "compare": ["--data", str(neighbors), *labels],
    }[command]
    assert main([command, *argv, "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_train_with_head_dim_beyond_the_checkpoint_format_exits_2(tmp_path, capsys):
    data, out = tmp_path / "wide.rrtd", tmp_path / "out"
    recs = [ImageRecord(i, 0, np.ones(2, np.float32), *no_locals()) for i in range(3)]
    save_dataset(recs, DatasetManifest(d_g_raw=2, d_l=256, n_scales=1, scale_values=(1.0,)), data)
    assert main(["train", "--data", str(data), "--out", str(out), "--heads", "1"]) == 2
    assert "d_h must be at most 255 to fit a .rrtm file, got 256" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("clip", [["--grad-clip", "0.1"], ["--grad-clip", "none"]])
def test_train_with_overflowing_gradient_norm_exits_4(tmp_path, capsys, clip):
    # At lr 1000 the float32 gradient norm overflows to inf by step 2, while
    # the loss stays finite; no update may follow it, and no output directory
    # is made.
    data, out = tmp_path / "d", tmp_path / "m"
    assert main(["synth", "--out", str(data), "--instances", "6", "--confusion-pairs", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    code = main(["train", "--data", str(data / "gallery.rrtd"), "--out", str(out), "--epochs", "3",
                 "--lr", "1000", *clip])
    assert code == 4
    assert "numerical abort: non-finite gradient norm at step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_prints_for_every_command(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--stride", "0"], "got counts [0, 2, 4, 8, 16], stride 0"),
        (["--counts", "0,-1,4"], "got counts [0, -1, 4], stride 16"),
    ],
)
def test_ablate_with_bad_budget_exits_2_before_scoring(
    tmp_path, capsys, monkeypatch, flags, message
):
    data, out = tmp_path / "g.rrtd", tmp_path / "a.tsv"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    monkeypatch.setattr(cli, "make_rrt_scorer", lambda *a: pytest.fail("scored before the check"))
    code = main(["ablate", "--queries", str(data), "--gallery", str(data),
                 "--checkpoint", str(checkpoint), "--k", "2", "--out", str(out), *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ablate_with_no_counts_exits_2_before_reading_a_file(tmp_path, capsys):
    # None of the input files exists, so reading any of them would exit 3.
    missing, out = str(tmp_path / "missing"), tmp_path / "a.tsv"
    code = main(["ablate", "--queries", missing, "--gallery", missing, "--checkpoint", missing,
                 "--counts", ",", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "--counts must be a non-empty list, got []" in captured.err and captured.out == ""
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def _bad_name(raw):
    raw[28] = 0xFF  # first byte of the first tensor's name, "layers.0.wq"


def _huge_dims(raw):
    raw[39:48] = bytes([4]) + struct.pack("<4I", *(65536,) * 4)  # ndim and dims of layers.0.wq


def _zero_model_dim(raw):
    raw[12:14] = struct.pack("<H", 0)  # the config's d


def _unknown_flag(raw):
    raw[24] |= 0x10  # bit 4 of the config's flags byte


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_bad_name, "does not match the config's layout entry layers.0.wq"),
        (_huge_dims, "with shape (65536, 65536, 65536, 65536) does not match"),
        (_zero_model_dim, "bad model config: h*d_h = 4 must equal d = 0 (at byte offset 8)"),
        (_unknown_flag, "unknown model flag bits 0x16 (at byte offset 24)"),
    ],
    ids=["name_byte_0xff", "dims_65536x4", "zero_model_dim", "flag_bit_4"],
)
def test_correspond_with_corrupt_checkpoint_exits_3(tmp_path, capsys, corrupt, message):
    data = tmp_path / "g.rrtd"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    raw = bytearray(checkpoint.read_bytes())
    corrupt(raw)
    checkpoint.write_bytes(bytes(raw))
    out = tmp_path / "c.json"
    argv = ["correspond", "--queries", str(data), "--gallery", str(data),
            "--checkpoint", str(checkpoint), "--query-id", "1", "--gallery-id", "2", "--out", str(out)]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# -- flag defaults ------------------------------------------------------------
# A flag that sets a config field reads its default from that field.  The
# command's own mapping builds the config from the flag defaults, so a flag
# mapped to the wrong field, or a switch mapped the wrong way round, fails
# here.


class Captured(Exception):
    pass


def capture(monkeypatch, name):
    """Replace cli.<name> with a stub that raises Captured with its positional
    arguments."""

    def stub(*args, **kwargs):
        raise Captured(*args)

    monkeypatch.setattr(cli, name, stub)


def flag_defaults(flags, **given):
    return {**{f.key: f.default for f in flags}, **given}


def test_synth_flag_defaults_build_the_default_synth_config(tmp_path, monkeypatch):
    capture(monkeypatch, "synth_generate")
    with pytest.raises(Captured) as got:
        cli.cmd_synth(flag_defaults(cli.SYNTH_FLAGS, out=str(tmp_path / "out")))
    assert got.value.args == (SynthConfig(),)


def test_train_flag_defaults_build_the_default_model_and_train_configs(tmp_path, monkeypatch):
    m = ModelConfig()  # the data fixes d, n_scales and d_g_raw; give it the defaults
    data = tmp_path / "g.rrtd"
    recs = [ImageRecord(i, 0, np.ones(m.d_g_raw, np.float32), *no_locals()) for i in range(2)]
    save_dataset(recs, DatasetManifest(d_g_raw=m.d_g_raw, d_l=m.d, n_scales=m.n_scales), data)
    capture(monkeypatch, "train")
    with pytest.raises(Captured) as got:
        cli.cmd_train(flag_defaults(cli.TRAIN_FLAGS, data=str(data), out=str(tmp_path / "out")))
    _, model_cfg, train_cfg = got.value.args
    assert (model_cfg, train_cfg) == (ModelConfig(), TrainConfig())


def test_gv_flag_defaults_build_the_default_gv_config(monkeypatch):
    capture(monkeypatch, "make_gv_scorer")
    with pytest.raises(Captured) as got:
        cli._scorer_from_flags(flag_defaults(cli.RERANK_FLAGS, scorer="gv"), [], [], 0)
    assert got.value.args[2] == GVConfig()


def test_rerank_depth_and_query_expansion_flags_default_to_the_pipeline_constants():
    rerank = flag_defaults(cli.RERANK_FLAGS)
    assert (rerank["k"], rerank["nqe"], rerank["alpha"]) == (RERANK_DEPTH, AQE_NQE, AQE_ALPHA)
    assert flag_defaults(cli.ABLATE_FLAGS)["k"] == RERANK_DEPTH


def test_cutoff_and_stride_flags_default_to_the_library_ones():
    # Lists, not the signatures' tuples, so --help prints [100] as it always has.
    evaluate = inspect.signature(evaluate_neighbors).parameters
    for flags in (cli.EVAL_FLAGS, cli.COMPARE_FLAGS):
        got = flag_defaults(flags)
        assert (got["map_ks"], got["recall_ks"]) == (list(evaluate["map_ks"].default),
                                                     list(evaluate["recall_ks"].default))
    stride = inspect.signature(ablation_locals_sweep).parameters["stride"].default
    assert flag_defaults(cli.ABLATE_FLAGS)["stride"] == stride


# -- config files ---------------------------------------------------------------


def parsed(monkeypatch, argv):
    """The cfg that main hands to the command's runner, which is stubbed out."""
    got = []
    help_text, flags, _ = cli.COMMANDS[argv[0]]
    monkeypatch.setitem(cli.COMMANDS, argv[0], (help_text, flags, lambda cfg: got.append(cfg) or 0))
    assert main(argv) == 0
    return got[0]


def test_config_file_values_sit_under_the_command_line(tmp_path, monkeypatch):
    conf = tmp_path / "c.cfg"
    conf.write_text("# a comment\n\n  instances = 4\nconfusion-pairs=1\n   # indented comment\n"
                    "local_noise=0.25\ncodebook=none\nout=from-file\n")
    cfg = parsed(monkeypatch, ["synth", "--config", str(conf), "--instances", "6", "--seed", "3"])
    want = {"instances": 6, "confusion_pairs": 1, "local_noise": 0.25, "codebook": None, "out": "from-file",
            "seed": 3, "parts_per_image": SynthConfig().parts_per_image, "command": "synth", "config": str(conf)}
    assert {k: cfg[k] for k in want} == want


@pytest.mark.parametrize(
    "lines, argv, want",
    [
        (["lr-schedule=true", "pos_embed=1"], [], (True, True, False)),
        (["lr_schedule=False", "pos-embed=0", "mlp-residual=TRUE"], [], (False, False, True)),
        (["lr-schedule=false"], ["--lr-schedule"], (True, False, False)),
    ],
    ids=["true_and_1", "false_0_and_TRUE", "command_line_switch_wins"],
)
def test_config_file_switches(tmp_path, monkeypatch, lines, argv, want):
    conf = tmp_path / "c.cfg"
    conf.write_text("\n".join(["data=g.rrtd", "out=o", *lines]) + "\n")
    cfg = parsed(monkeypatch, ["train", "--config", str(conf), *argv])
    assert (cfg["lr_schedule"], cfg["pos_embed"], cfg["mlp_residual"]) == want


def test_config_file_lists_and_values_that_start_with_a_dash(tmp_path, monkeypatch):
    conf = tmp_path / "c.cfg"
    conf.write_text("data=a.jsonl,b.jsonl\nqueries=q.rrtd\ngallery=g.rrtd\nout=-t.tsv\nmap-ks=5,10\n")
    cfg = parsed(monkeypatch, ["compare", "--config", str(conf)])
    assert (cfg["data"], cfg["out"], cfg["map_ks"]) == (["a.jsonl", "b.jsonl"], "-t.tsv", [5, 10])
    assert parsed(monkeypatch, ["compare", "--config", str(conf), "--data", "c.jsonl"])["data"] == ["c.jsonl"]


def test_config_file_list_item_that_starts_with_a_dash_exits_2(tmp_path, capsys):
    # One token per item would reach argparse as a flag, as on the command line.
    conf = tmp_path / "c.cfg"
    conf.write_text(f"queries=q.rrtd\ngallery=g.rrtd\nout={tmp_path / 't.tsv'}\ndata=a.jsonl,-b.jsonl\n")
    assert main(["compare", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert "c.cfg:4: data item '-b.jsonl' reads as a flag; write ./-b.jsonl" in captured.err
    assert captured.out == "" and not (tmp_path / "t.tsv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("out=o\nnope=1\n", "c.cfg:2: unknown key 'nope'"),
        ("out=o\n\n# x\ninstances\n", "c.cfg:4: expected key=value, got 'instances'"),
        ("out=o\nlr=0.1\n", "c.cfg:2: unknown key 'lr'"),
        ("# no out\ninstances=4\n", "missing required flag --out"),
    ],
    ids=["unknown_key", "no_equals", "key_of_another_command", "missing_required"],
)
def test_bad_config_file_exits_2_naming_the_line(tmp_path, capsys, text, message):
    conf = tmp_path / "c.cfg"
    conf.write_text(text)
    assert main(["synth", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_config_file_switch_value_must_be_boolean(tmp_path, capsys):
    conf = tmp_path / "c.cfg"
    conf.write_text("data=g.rrtd\nout=o\nlr-schedule=yes\n")
    assert main(["train", "--config", str(conf)]) == 2
    assert "c.cfg:3: lr_schedule wants true/false" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["4.5", "many", ""])
def test_config_file_value_argparse_rejects_exits_2(tmp_path, capsys, value):
    # The value is parsed while the file is read, so the error names the line.
    conf = tmp_path / "c.cfg"
    conf.write_text(f"out={tmp_path / 'o'}\ninstances={value}\n")
    assert main(["synth", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {conf}:2: invalid instances value '{value}'" in captured.err
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_config_file_cutoff_list_with_a_bad_item_exits_2_naming_the_line(tmp_path, capsys):
    conf = tmp_path / "c.cfg"
    conf.write_text(f"data=a.jsonl\nqueries=q.rrtd\ngallery=g.rrtd\nout={tmp_path / 'o.json'}\nmap-ks=5,x\n")
    assert main(["eval", "--config", str(conf)]) == 2
    assert "c.cfg:5: invalid map_ks value '5,x'" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_missing_config_file_exits_2_naming_it(tmp_path, capsys):
    # A directory is no more a config file than a missing path is.
    missing, directory = tmp_path / "missing.cfg", tmp_path / "dir.cfg"
    directory.mkdir()
    for conf, message in ((missing, "No such file"), (directory, "Is a directory")):
        assert main(["synth", "--out", str(tmp_path / "o"), "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: --config " + str(conf) in err and message in err
        assert not (tmp_path / "o").exists()


def test_meta_from_a_config_file_equals_the_one_from_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = Path("c.cfg")
    flags = {"out": "d", "instances": "4", "confusion-pairs": "2", "global-noise": "0.125", "codebook": "64",
             "seed": "7"}
    conf.write_text("".join(f"{k}={v}\n" for k, v in flags.items()))
    assert main(["synth", "--config", str(conf)]) == 0
    from_file = {p.name: p.read_bytes() for p in Path("d").iterdir()}
    conf.write_text("# every value is on the command line\n")
    assert main(["synth", "--config", str(conf), *(t for k, v in flags.items() for t in (f"--{k}", v))]) == 0
    assert {p.name: p.read_bytes() for p in Path("d").iterdir()} == from_file
    assert json.loads(from_file["dataset.meta.json"])["config"]["global_noise"] == 0.125


# -- query/gallery pairs, retrieve widths, oracle part banks --------------------


def test_pair_with_different_headers_exits_3_without_output(tmp_path, capsys):
    data, other, neighbors = tmp_path / "g.rrtd", tmp_path / "q.rrtd", tmp_path / "n.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    recs = [ImageRecord(i, 0, np.asarray(g, np.float32), *no_locals()) for i, g in zip([1, 2, 3], REPEATED)]
    save_dataset(recs, DatasetManifest(d_g_raw=2, d_l=8, n_scales=1, scale_values=(1.0,)), other)
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    cfg = ModelConfig(L=2, d=4, h=2, d_h=2, layers=1, d_c=8, n_scales=1, d_g_raw=2)
    checkpoint = tmp_path / "m.rrtm"
    save_checkpoint(init_params(cfg, seed=0), cfg, checkpoint)
    pair = ["--queries", str(other), "--gallery", str(data)]
    argvs = {
        "rerank": ["--data", str(neighbors), "--scorer", "gv"],
        "eval": ["--data", str(neighbors)],
        "compare": ["--data", str(neighbors)],
        "ablate": ["--checkpoint", str(checkpoint)],
        "correspond": ["--checkpoint", str(checkpoint), "--query-id", "1", "--gallery-id", "2"],
    }
    for command, argv in argvs.items():
        out = tmp_path / f"{command}.out"
        assert main([command, *pair, *argv, "--out", str(out)]) == 3, command
        captured = capsys.readouterr()
        assert f"--queries {other} and --gallery {data} differ in d_l 8 against 4" in captured.err
        assert captured.out == ""
        assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_retrieve_from_raw_index_of_other_width_exits_3(tmp_path, capsys):
    data, queries, index, out = tmp_path / "g.rrtd", tmp_path / "q.rrtd", tmp_path / "g.rrti", tmp_path / "n.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    recs = [ImageRecord(7, 0, np.ones(3, np.float32), *no_locals())]
    save_dataset(recs, DatasetManifest(d_g_raw=3, d_l=4, n_scales=1, scale_values=(1.0,)), queries)
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["retrieve", "--data", str(index), "--queries", str(queries), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"--data {index} holds 2-dim vectors, but --queries {queries} has 3-dim globals" in captured.err
    assert captured.out == "" and not out.exists() and not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("command", ["index", "retrieve", "eval", "rerank"])
def test_data_flag_naming_a_directory_exits_3_naming_it(tmp_path, capsys, command):
    data, directory, out = tmp_path / "g.rrtd", tmp_path / "dir", tmp_path / "out"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    directory.mkdir()
    rest = {
        "index": [],
        "retrieve": ["--queries", str(data)],
        "eval": ["--queries", str(data), "--gallery", str(data)],
        "rerank": ["--queries", str(data), "--gallery", str(data), "--scorer", "aqe"],
    }[command]
    assert main([command, "--data", str(directory), *rest, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "data error" in captured.err and str(directory) in captured.err and captured.out == ""
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_index_out_naming_a_directory_exits_3_naming_it(tmp_path, capsys):
    data, out = tmp_path / "g.rrtd", tmp_path / "dir"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    out.mkdir()
    assert main(["index", "--data", str(data), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "data error" in captured.err and str(out) in captured.err and captured.out == ""
    assert list(out.iterdir()) == [] and not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_out_directory_that_exists_as_a_file_exits_3_naming_it(tmp_path, capsys, monkeypatch, command):
    # train() is stubbed out: the file must be refused before training starts.
    capture(monkeypatch, "train")
    data, out = tmp_path / "g.rrtd", tmp_path / "taken"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    out.write_text("kept\n")
    argv = {"synth": [], "train": ["--data", str(data), "--locals-max", "2", "--heads", "2"]}[command]
    assert main([command, *argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "data error" in captured.err and str(out) in captured.err and captured.out == ""
    assert out.read_text() == "kept\n"


def _save_npy(array):
    return lambda path: np.save(path, array)


def _save_npz(path):
    with open(path, "wb") as fh:  # np.savez would append .npz to a path
        np.savez(fh, parts=np.ones((2, 3, 4), np.float32))


def _npy_header(shape, data_bytes):
    """A .npy file: the header of a little-endian float64 array of shape,
    then data_bytes zero bytes, as many as the header declares or not."""
    def write(path):
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
            fh.write(bytes(data_bytes))
    return write


@pytest.mark.parametrize(
    "write, message",
    [
        (_save_npy(np.ones((3, 5), np.float32)), "got float32 (3, 5)"),
        (_save_npy(np.ones((2, 3, 5), np.float32)), "got float32 (2, 3, 5)"),
        (_save_npy(np.full((2, 3, 4), np.nan, np.float32)), "got float32 (2, 3, 4)"),
        (_save_npy(np.ones((2, 3, 4), np.int64)), "got int64 (2, 3, 4)"),
        (_save_npy(np.ones((0, 3, 4), np.float32)), "got float32 (0, 3, 4)"),
        (lambda path: path.write_text("not an array\n"), "the magic string is not correct"),
        (_save_npz, "the magic string is not correct"),
        (lambda path: path.write_bytes(b""), "--parts"),
        (_save_npy(np.array([{"x": 1}], dtype=object)), "got object (1,)"),
        (lambda path: None, "No such file"),
        # A header that declares more data than the file holds is refused
        # before anything is allocated for it (here 6.6 TB).
        (_npy_header((2**36, 3, 4), 64), f"its header declares {2**36 * 96} data bytes, but 64 follow it"),
        (_npy_header((2, 3, 4), 184), "its header declares 192 data bytes, but 184 follow it"),
        (_npy_header((2, 3, 4), 200), "its header declares 192 data bytes, but 200 follow it"),
    ],
    ids=["2d", "last_dim_5", "all_nan", "int64", "empty", "text", "npz", "empty_file", "pickled", "missing",
         "header_beyond_file", "short_data", "trailing_bytes"],
)
def test_oracle_with_bad_part_bank_exits_3_naming_parts(tmp_path, capsys, write, message):
    data, neighbors, parts, out = tmp_path / "g.rrtd", tmp_path / "n.jsonl", tmp_path / "p.npy", tmp_path / "r.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    write(parts)
    argv = ["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
            "--scorer", "oracle", "--parts", str(parts), "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"--parts {parts}" in captured.err and message in captured.err and captured.out == ""
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()
    np.save(parts, np.ones((2, 3, 4), np.float32))
    assert main(argv) == 0


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "scorer, flag, value, readers",
    [
        ("oracle", "--checkpoint", "m.rrtm", "scorers rrt, aqe+rrt"),
        ("rrt", "--parts", "p.npy", "scorer oracle"),
        ("gv", "--nqe", "9", "scorers aqe, aqe+rrt"),
        ("rrt", "--alpha", "2.5", "scorers aqe, aqe+rrt"),
        ("oracle", "--ransac-iters", "7", "scorer gv"),
        ("aqe", "--ransac-thresh", "3.5", "scorer gv"),
        ("rrt", "--ratio", "0.8", "scorer gv"),
        ("oracle", "--seed", "5", "scorer gv"),
        ("aqe", "--k", "50", "scorers rrt, gv, aqe+rrt, oracle"),
        ("aqe", "--locals-max", "3", "scorers rrt, gv, aqe+rrt, oracle"),
    ],
    ids=["checkpoint", "parts", "nqe", "alpha", "ransac_iters", "ransac_thresh", "ratio", "seed", "k",
         "locals_max"],
)
def test_rerank_refuses_a_flag_its_scorer_does_not_read(tmp_path, capsys, scorer, flag, value, readers, via):
    # Before anything is read: none of the input files exists.
    out = tmp_path / "r.jsonl"
    given = [flag, value]
    if via == "config":
        conf = tmp_path / "rerank.conf"
        conf.write_text(f"{flag.lstrip('-').replace('-', '_')}={value}\n")
        given = ["--config", str(conf)]
    code = main(["rerank", "--data", str(tmp_path / "n.jsonl"), "--queries", str(tmp_path / "q.rrtd"),
                 "--gallery", str(tmp_path / "g.rrtd"), "--scorer", scorer, "--out", str(out), *given])
    assert code == 2
    captured = capsys.readouterr()
    assert f"configuration error: {flag} is read only by {readers}, not by {scorer}" in captured.err
    assert captured.out == "" and not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_rerank_takes_other_scorers_flags_at_their_defaults(tmp_path):
    # Given at their defaults, flags the oracle does not read change neither
    # its list nor its config digest.
    data, neighbors, parts = tmp_path / "g.rrtd", tmp_path / "n.jsonl", tmp_path / "p.npy"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    np.save(parts, np.ones((2, 3, 4), np.float32))
    gv = GVConfig()
    defaults = ["--seed", "0", "--nqe", str(AQE_NQE), "--alpha", str(AQE_ALPHA), "--ransac-iters",
                str(gv.iterations), "--ransac-thresh", str(gv.inlier_threshold), "--ratio", "none"]
    out, outputs = tmp_path / "r.jsonl", []  # the digest covers --out
    for given in ([], defaults):
        assert main(["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                     "--scorer", "oracle", "--parts", str(parts), "--out", str(out), *given]) == 0
        outputs.append((out.read_bytes(), json.loads(Path(str(out) + ".meta.json").read_text())["config_digest"]))
    assert outputs[0] == outputs[1]
