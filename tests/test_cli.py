"""Command-line exit codes on bad descriptor data, corrupt checkpoints and
repeated record ids: 3, never a traceback, and no output written; config
digests free of machine facts."""

import importlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from rrt import cli
from rrt.cli import main
from rrt.data import DatasetManifest, ImageRecord, save_dataset
from rrt.model import ModelConfig, init_params, save_checkpoint
from rrt.retrieval import NeighborList, write_neighbors

from helpers import no_locals


def write_gallery(path, globals_, ids=None, labels=None):
    ids = range(len(globals_)) if ids is None else ids
    labels = [0] * len(globals_) if labels is None else labels
    recs = [
        ImageRecord(i, lab, np.asarray(g, dtype=np.float32), *no_locals())
        for i, lab, g in zip(ids, labels, globals_)
    ]
    manifest = DatasetManifest(d_g_raw=2, d_l=4, n_scales=1, scale_values=(1.0,), n_images=len(recs))
    save_dataset(recs, manifest, path)


def test_index_with_zero_global_exits_3_naming_record(tmp_path, capsys):
    data = tmp_path / "g.rrtd"
    write_gallery(data, [[1.0, 0.0], [0.0, 0.0]])
    assert main(["index", "--data", str(data), "--out", str(tmp_path / "g.rrti")]) == 3
    assert "record 1" in capsys.readouterr().err


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


def test_rerank_digest_does_not_depend_on_cpu_count(tmp_path, monkeypatch):
    data = tmp_path / "g.rrtd"
    index = tmp_path / "g.rrti"
    neighbors = tmp_path / "n.jsonl"
    out = tmp_path / "r.jsonl"
    write_gallery(data, [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    assert main(["retrieve", "--data", str(index), "--queries", str(data), "--k", "3", "--out", str(neighbors)]) == 0
    argv = ["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
            "--scorer", "gv", "--out", str(out)]
    digests = []
    try:
        for cpus in (1, 64):
            with monkeypatch.context() as m:
                m.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
                # flag defaults are evaluated when the module is imported
                assert importlib.reload(cli).main(argv) == 0
            digests.append(json.loads(Path(str(out) + ".meta.json").read_text())["config_digest"])
    finally:
        importlib.reload(cli)
    assert digests[0] == digests[1]


def test_rerank_with_negative_locals_budget_exits_2(tmp_path, capsys):
    data, neighbors, out = tmp_path / "g.rrtd", tmp_path / "n.jsonl", tmp_path / "r.jsonl"
    write_gallery(data, REPEATED, ids=[1, 2, 3])
    write_neighbors(neighbors, [NeighborList(2, [(1, 0.5), (3, 0.4)])])
    code = main(["rerank", "--data", str(neighbors), "--queries", str(data), "--gallery", str(data),
                 "--scorer", "gv", "--locals-max", "-3", "--out", str(out)])
    assert code == 2
    assert "max_locals must be non-negative, got -3" in capsys.readouterr().err
    assert not out.exists()


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


def _bad_name(raw):
    raw[28] = 0xFF  # first byte of the first tensor's name, "layers.0.wq"


def _huge_dims(raw):
    raw[39:48] = bytes([4]) + struct.pack("<4I", *(65536,) * 4)  # ndim and dims of layers.0.wq


def _zero_model_dim(raw):
    raw[12:14] = struct.pack("<H", 0)  # the config's d


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_bad_name, "does not match the config's layout entry layers.0.wq"),
        (_huge_dims, "with shape (65536, 65536, 65536, 65536) does not match"),
        (_zero_model_dim, "bad model config: h*d_h = 4 must equal d = 0 (at byte offset 8)"),
    ],
    ids=["name_byte_0xff", "dims_65536x4", "zero_model_dim"],
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
