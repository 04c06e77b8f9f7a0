"""Command-line exit codes on bad descriptor data: 3, never a traceback."""

import numpy as np

from rrt.cli import main
from rrt.data import DatasetManifest, ImageRecord, save_dataset


def write_gallery(path, globals_):
    recs = [ImageRecord(i, 0, np.asarray(g, dtype=np.float32), []) for i, g in enumerate(globals_)]
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
    assert main(["index", "--data", str(data), "--out", str(index)]) == 0
    code = main(["retrieve", "--data", str(index), "--queries", str(data), "--k", "2", "--out", str(out)])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
