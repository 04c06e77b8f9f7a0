"""The shared reader's error policy on every binary format: a cut, a wrong
magic, a wrong version or a trailing byte raises DataFormatError at the
offset of the first failing byte.  `.rrtd` cuts are checked field by field
against the per-local reference parser in test_data.TestReaderParity."""

import struct

import numpy as np
import pytest

from rrt.data import DatasetManifest, load_dataset, save_dataset
from rrt.errors import DataFormatError
from rrt.model import init_params, load_checkpoint, param_shapes, save_checkpoint
from rrt.retrieval import build_index, load_index, save_index

from helpers import make_record, tiny_config


def _checkpoint(path):
    """A one-layer tiny checkpoint and the byte size of each field, in file
    order."""
    cfg = tiny_config(layers=1)
    save_checkpoint(init_params(cfg, seed=3), cfg, path)
    sizes = [4, 4, 17, 2]  # magic, version, config, tensor count
    for name, shape, _ in param_shapes(cfg):
        sizes += [1, len(name), 1, 4 * len(shape), 4 * int(np.prod(shape))]
    return load_checkpoint, sizes


def _index(path, projected):
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    recs = [make_record(rng, i, 0, cfg.d, cfg.d_g_raw, 0, cfg.n_scales) for i in range(3)]
    params = init_params(cfg, seed=4) if projected else None
    index = build_index(recs, projected=projected, params=params, cfg=cfg)
    save_index(index, path)
    n, dim = index.vectors.shape
    return load_index, [4, 4, 9, 4 * n, 4 * n * dim]


def _dataset(path):
    rng = np.random.default_rng(5)
    recs = [make_record(rng, i, 0, 3, 2, 2, 1) for i in range(2)]
    save_dataset(recs, DatasetManifest(d_g_raw=2, d_l=3, n_scales=1, scale_values=(1.0,)), path)
    return load_dataset, None


FORMATS = {
    "rrtm": _checkpoint,
    "rrti_raw": lambda path: _index(path, projected=False),
    "rrti_projected": lambda path: _index(path, projected=True),
}


def _offset_error(load, path):
    with pytest.raises(DataFormatError) as exc:
        load(path)
    return exc.value


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_cut_reports_the_start_of_the_cut_field(tmp_path, fmt):
    path = tmp_path / "f"
    load, sizes = FORMATS[fmt](path)
    raw = path.read_bytes()
    assert sum(sizes) == len(raw)
    starts = np.cumsum([0] + sizes[:-1])
    cut = tmp_path / "cut"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        err = _offset_error(load, cut)
        field_start = int(starts[np.searchsorted(starts, end, side="right") - 1])
        assert (err.offset, "truncated file" in str(err)) == (field_start, True), end


@pytest.mark.parametrize("fmt", [*FORMATS, "rrtd"])
def test_trailing_magic_and_version_faults_report_their_offset(tmp_path, fmt):
    path = tmp_path / "f"
    load, _ = {**FORMATS, "rrtd": _dataset}[fmt](path)
    raw = path.read_bytes()
    for bad, offset, message in (
        (raw + b"\x00", len(raw), "1 trailing bytes after"),
        (b"XXXX" + raw[4:], 0, "bad magic b'XXXX'"),
        (raw[:4] + struct.pack("<I", 2) + raw[8:], 4, "unsupported version 2"),
    ):
        path.write_bytes(bad)
        err = _offset_error(load, path)
        assert (err.offset, message in str(err)) == (offset, True)
