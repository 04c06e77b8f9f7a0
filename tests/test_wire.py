"""The shared reader's error policy on every binary format: a cut, a wrong
magic, a wrong version, a trailing byte or a non-finite float payload value
raises DataFormatError at the offset of the first failing byte.  `.rrtd` cuts are checked field by field
against the per-local reference parser in test_data.TestReaderParity.  Files
edited at several places (bytes set, cuts, inserts, splices, deletions) load or
raise DataFormatError or IntegrityError, never another exception."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt.data import DatasetManifest, load_dataset, save_dataset
from rrt.errors import DataFormatError, IntegrityError
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
    index = build_index(recs, params=params)
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


@pytest.mark.parametrize(
    "fmt, offset, written, bad, message",
    [
        ("rrtm", 24, 0x06, 0x16, "unknown model flag bits 0x16"),  # flags: bit 4 set
        ("rrtm", 24, 0x06, 0x86, "unknown model flag bits 0x86"),  # flags: bit 7 set
        ("rrti_raw", 8, 0, 7, "projected byte 7 is neither 0 nor 1"),
        ("rrti_projected", 8, 1, 2, "projected byte 2 is neither 0 nor 1"),
    ],
)
def test_byte_no_writer_produces_reports_its_offset(tmp_path, fmt, offset, written, bad, message):
    path = tmp_path / "f"
    load, _ = FORMATS[fmt](path)
    raw = bytearray(path.read_bytes())
    assert raw[offset] == written
    raw[offset] = bad
    path.write_bytes(bytes(raw))
    err = _offset_error(load, path)
    assert (err.offset, message in str(err)) == (offset, True)


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_index_with_a_non_finite_vector_entry_reports_its_offset(tmp_path, projected, value):
    path = tmp_path / "f"
    _index(path, projected)
    raw = bytearray(path.read_bytes())
    n, dim = struct.unpack_from("<II", raw, 9)
    k = dim + 2  # vector 1, entry 2
    offset = 17 + 4 * n + 4 * k  # header 8, projected 1, n and dim 8, ids
    raw[offset : offset + 4] = struct.pack("<f", value)
    raw[offset + 4 : offset + 8] = struct.pack("<f", np.nan)  # a later one is not the one reported
    path.write_bytes(bytes(raw))
    err = _offset_error(load_index, path)
    assert err.offset == offset
    assert f"the vector table holds a non-finite value ({np.float32(value)}) at entry {k}" in str(err)


# One edit of a file: (kind, place, second place or length, bytes).
# Places wrap around the file's length at the time of the edit.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["set", "cut", "insert", "splice", "delete"]),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.binary(min_size=1, max_size=8) | st.sampled_from([b"\xff" * 4, b"\x00" * 4, b"\x7f\xff\xff\xff"]),
    ),
    min_size=2,
    max_size=5,
)


def edited(raw: bytes, edits) -> bytes:
    """raw after each edit in turn: set overwrites bytes, cut ends the file,
    insert adds bytes, splice copies a run of the file's own bytes to
    another place, delete removes a run."""
    out = bytearray(raw)
    for kind, at, other, data in edits:
        at %= len(out) + 1
        if kind == "set":
            out[at : at + len(data)] = data
        elif kind == "cut":
            del out[at:]
        elif kind == "insert":
            out[at:at] = data
        elif kind == "splice":
            start = other % (len(out) + 1)
            out[at:at] = out[start : start + 1 + other % 64]
        else:
            del out[at : at + 1 + other % 64]
    return bytes(out)


@pytest.mark.parametrize("fmt", [*FORMATS, "rrtd"])
def test_edited_files_load_or_raise_a_format_error(tmp_path_factory, fmt):
    path = tmp_path_factory.mktemp("f") / "f"
    load, _ = {**FORMATS, "rrtd": _dataset}[fmt](path)
    raw = path.read_bytes()

    @given(edits=EDITS)
    @settings(max_examples=150, deadline=None)
    def check(edits):
        path.write_bytes(edited(raw, edits))
        try:
            load(path)
        except (DataFormatError, IntegrityError):
            pass

    check()
