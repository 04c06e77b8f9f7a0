"""Descriptor store tests: normalization, binary round trips, the synthetic
generator's planted structure, grid dedup counts."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt.data import (
    DatasetManifest,
    ImageRecord,
    SynthConfig,
    grid_dedup_count,
    l2_normalize,
    l2_normalize_rows,
    load_dataset,
    normalize_records,
    part_prototypes,
    save_dataset,
    synth_generate,
)
from rrt.errors import ConfigError, DataFormatError

from oracles import (
    l2_normalize_one,
    load_dataset_per_local,
    normalize_per_local,
    per_local_columns,
    synth_generate_per_local,
)
from helpers import no_locals


def records_equal_bitwise(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.id != rb.id or ra.label != rb.label:
            return False
        if ra.global_desc.tobytes() != rb.global_desc.tobytes():
            return False
        for name in ("vecs", "uv", "scale_idx"):
            x, y = getattr(ra, name), getattr(rb, name)
            if len(x) != len(y) or x.tobytes() != y.tobytes():
                return False
    return True


def random_records(seed, n_images, d_g=8, d_l=4, n_scales=3, max_locals=5):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n_images):
        n = int(rng.integers(0, max_locals + 1))
        vecs, uv, sidx = np.zeros((n, d_l), np.float32), np.zeros((n, 2)), np.zeros(n, np.uint8)
        for k in range(n):
            vecs[k] = rng.standard_normal(d_l)
            uv[k] = rng.uniform(0, 1024), rng.uniform(0, 1024)
            sidx[k] = rng.integers(0, n_scales)
        label, g = int(rng.integers(0, 4)), rng.standard_normal(d_g).astype(np.float32)
        recs.append(ImageRecord(i, label, g, vecs, uv, sidx))
    manifest = DatasetManifest(
        d_g_raw=d_g,
        d_l=d_l,
        n_scales=n_scales,
        scale_values=(0.5, 1.0, 2.0, 4.0)[:n_scales],
        n_images=n_images,
    )
    return recs, manifest


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_vector_fixed_point(self):
        v = np.zeros(16)
        v[3] = 1.0
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-7)

    def test_random_vector_norm_recomputed(self):
        v = np.random.default_rng(7).standard_normal(128)
        out = l2_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(4))

    @pytest.mark.parametrize("vec", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 0.0]])
    def test_non_finite_vector_rejected(self, vec):
        with pytest.raises(DataFormatError, match="non-finite"):
            l2_normalize(np.array(vec, dtype=np.float32))

    def test_zero_descriptor_names_its_record(self):
        recs, _ = random_records(3, 3)
        recs[1] = replace(recs[1], vecs=np.zeros((1, 4)), uv=[[1.0, 2.0]], scale_idx=[0])
        with pytest.raises(DataFormatError, match=f"record {recs[1].id}: .*zero vector"):
            normalize_records(recs)


class TestPersistence:
    def test_empty_dataset_round_trip(self, tmp_path):
        recs, manifest = random_records(0, 0)
        p = tmp_path / "empty.rrtd"
        save_dataset(recs, manifest, p)
        loaded, m2 = load_dataset(p)
        assert loaded == []
        assert m2 == manifest

    def test_three_image_round_trip_bit_exact(self, tmp_path):
        cfg = SynthConfig(
            n_instances=3, images_per_instance=1, queries_per_instance=0,
            parts_per_instance=2, parts_per_image=2, locals_per_image=3,
            d_l=4, d_g_raw=6, global_confusion_pairs=1, seed=5,
        )
        _, gallery, manifest = synth_generate(cfg)
        p = tmp_path / "g.rrtd"
        save_dataset(gallery, manifest, p)
        loaded, m2 = load_dataset(p)
        assert records_equal_bitwise(gallery, loaded)
        assert m2 == manifest

    @pytest.mark.parametrize("field, value", [("id", 2**32 + 5), ("id", -1), ("label", 2**32)])
    def test_ids_and_labels_outside_u32_rejected_on_save(self, tmp_path, field, value):
        recs, manifest = random_records(1, 3)
        recs[1] = replace(recs[1], **{field: value})
        p = tmp_path / "d.rrtd"
        with pytest.raises(DataFormatError, match=f"record {recs[1].id}: {field} {value} "):
            save_dataset(recs, manifest, p)
        assert not p.exists()

    def test_corrupted_magic_is_format_error(self, tmp_path):
        recs, manifest = random_records(1, 2)
        p = tmp_path / "d.rrtd"
        save_dataset(recs, manifest, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_dataset(p)

    def test_truncated_file_reports_offset(self, tmp_path):
        recs, manifest = random_records(2, 3)
        p = tmp_path / "d.rrtd"
        save_dataset(recs, manifest, p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(DataFormatError, match="byte offset"):
            load_dataset(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        recs, manifest = random_records(3, 1)
        p = tmp_path / "d.rrtd"
        save_dataset(recs, manifest, p)
        p.write_bytes(p.read_bytes() + b"\x00\x01")
        with pytest.raises(DataFormatError, match="trailing"):
            load_dataset(p)

    def test_max_locals_truncates_by_file_order(self, tmp_path):
        recs, manifest = random_records(4, 2, max_locals=5)
        p = tmp_path / "d.rrtd"
        save_dataset(recs, manifest, p)
        loaded, _ = load_dataset(p, max_locals=1)
        for orig, got in zip(recs, loaded):
            assert len(got.vecs) == len(got.uv) == len(got.scale_idx) == min(1, len(orig.vecs))
            assert got.vecs.tobytes() == orig.vecs[:1].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n_images=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, seed, n_images):
        recs, manifest = random_records(seed, n_images)
        p = tmp_path_factory.mktemp("rt") / "d.rrtd"
        save_dataset(recs, manifest, p)
        loaded, m2 = load_dataset(p)
        assert records_equal_bitwise(recs, loaded)
        assert m2 == manifest


class TestSynthGenerate:
    def test_deterministic_bytes(self, tmp_path):
        cfg = SynthConfig(n_instances=4, images_per_instance=3, queries_per_instance=1,
                          global_confusion_pairs=2, seed=11)
        out = []
        for name in ("a", "b"):
            q, g, m = synth_generate(cfg)
            p = tmp_path / f"{name}.rrtd"
            save_dataset(q + g, m, p)
            out.append(p.read_bytes())
        assert out[0] == out[1]

    def test_record_invariants(self):
        cfg = SynthConfig(n_instances=4, images_per_instance=4, queries_per_instance=1,
                          global_confusion_pairs=1, seed=3)
        q, g, m = synth_generate(cfg)
        all_recs = q + g
        ids = [r.id for r in all_recs]
        assert len(set(ids)) == len(ids)
        assert m.n_query == len(q) == 4
        assert m.n_gallery == len(g) == 12
        labels = {}
        for r in all_recs:
            labels.setdefault(r.label, 0)
            labels[r.label] += 1
            assert abs(np.linalg.norm(r.global_desc) - 1.0) < 1e-5
            assert r.vecs.shape == (cfg.locals_per_image, cfg.d_l)
            assert np.all(np.abs(np.linalg.norm(r.vecs, axis=1) - 1.0) < 1e-5)
            assert np.all(r.scale_idx < cfg.n_scales)
            assert np.all((0 <= r.uv) & (r.uv < cfg.canvas))
        assert labels == {i: cfg.images_per_instance for i in range(cfg.n_instances)}

    def test_confused_pairs_share_global_direction(self):
        cfg = SynthConfig(n_instances=6, images_per_instance=2, queries_per_instance=0,
                          global_confusion_pairs=2, global_noise=0.02, seed=9)
        _, g, _ = synth_generate(cfg)
        by_label = {}
        for r in g:
            by_label.setdefault(r.label, []).append(r.global_desc)
        # paired instances: cosine close to 1 across the pair
        for a, b in [(0, 1), (2, 3)]:
            cos = float(by_label[a][0] @ by_label[b][0])
            assert cos > 0.9
        # unpaired instances stay distinguishable
        cos = float(by_label[4][0] @ by_label[5][0])
        assert cos < 0.5

    def test_part_prototypes_match_generator_stream(self):
        cfg = SynthConfig(n_instances=3, images_per_instance=2, queries_per_instance=0,
                          global_confusion_pairs=0, local_noise=0.0, seed=21)
        protos = part_prototypes(cfg)
        assert protos.shape == (3, cfg.parts_per_instance, cfg.d_l)
        _, g, _ = synth_generate(cfg)
        # With zero local noise every planted part equals some prototype of
        # its own instance exactly (up to renormalization in float32).
        for r in g:
            own = protos[r.label]
            best = np.max(r.vecs @ own.T, axis=1)
            assert np.sum(best > 0.999) >= cfg.parts_per_image

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(parts_per_image=9, parts_per_instance=4).validate()
        with pytest.raises(ConfigError):
            SynthConfig(locals_per_image=2, parts_per_image=4).validate()
        with pytest.raises(ConfigError):
            SynthConfig(n_instances=4, global_confusion_pairs=3).validate()


class TestNormalizeRecords:
    def test_normalizes_globals_and_locals(self):
        g = np.array([3.0, 4.0], dtype=np.float32)
        rec = ImageRecord(0, 0, g, [[0.0, 2.0]], [[1.0, 2.0]], [0])
        (out,) = normalize_records([rec])
        np.testing.assert_allclose(out.global_desc, [0.6, 0.8], rtol=1e-6)
        np.testing.assert_allclose(out.vecs[0], [0.0, 1.0], rtol=1e-6)
        # source untouched
        np.testing.assert_allclose(rec.global_desc, [3.0, 4.0])


class TestGridDedup:
    def _rec(self, coords):
        n = len(coords)
        uv = np.reshape(coords, (n, 2))
        return ImageRecord(0, 0, np.zeros(2, np.float32), np.zeros((n, 2)), uv, np.zeros(n, np.uint8))

    def test_shared_cell_counted_once(self):
        assert grid_dedup_count(self._rec([(0, 0), (5, 5), (20, 0)]), 16) == 2

    def test_empty_locals(self):
        assert grid_dedup_count(self._rec([]), 16) == 0

    def test_random_against_set_recount(self):
        rng = np.random.default_rng(13)
        coords = [(float(u), float(v)) for u, v in rng.uniform(0, 1024, size=(100, 2))]
        got = grid_dedup_count(self._rec(coords), 16)
        expected = len({(int(u // 16), int(v // 16)) for u, v in coords})
        assert got == expected

    @given(st.integers(0, 2**16), st.integers(1, 64), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_local_count(self, seed, stride, n):
        rng = np.random.default_rng(seed)
        coords = [(float(u), float(v)) for u, v in rng.uniform(0, 512, size=(n, 2))]
        assert grid_dedup_count(self._rec(coords), stride) <= n


class TestImageRecord:
    def test_arrays_converted_and_read_only(self):
        rec = ImageRecord(3, 0, [0.5, 2.0], np.ones((2, 4)), [[1, 2], [3, 4]], [0, 6])
        assert rec.global_desc.dtype == np.float32 and rec.global_desc.tolist() == [0.5, 2.0]
        assert rec.vecs.dtype == np.float32 and rec.vecs.shape == (2, 4)
        assert rec.uv.dtype == np.float32 and rec.uv.shape == (2, 2)
        assert rec.scale_idx.dtype == np.uint8 and rec.scale_idx.tolist() == [0, 6]
        for a in (rec.global_desc, rec.vecs, rec.uv, rec.scale_idx):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_callers_array_stays_writable(self):
        g, vecs = np.zeros(2, np.float32), np.ones((1, 4), np.float32)
        ImageRecord(0, 0, g, vecs, np.zeros((1, 2), np.float32), [0])
        g[0], vecs[0, 0] = 1.0, 2.0

    @pytest.mark.parametrize("global_desc", [np.zeros((2, 3)), np.float32(1.0)])
    def test_global_must_be_1d_naming_record(self, global_desc):
        with pytest.raises(DataFormatError, match="record 7: global descriptor has shape"):
            ImageRecord(7, 0, global_desc, *no_locals())

    @pytest.mark.parametrize(
        "vecs, uv, sidx",
        [
            (np.zeros((2, 4)), np.zeros((3, 2)), [0, 0]),
            (np.zeros((2, 4)), np.zeros((2, 2)), [0]),
            (np.zeros(4), np.zeros((1, 2)), [0]),
            (np.zeros((2, 4)), np.zeros((2, 3)), [0, 0]),
            (np.zeros((2, 4)), np.zeros((2, 2)), np.zeros((2, 1), np.uint8)),
        ],
    )
    def test_disagreeing_arrays_rejected_naming_record(self, vecs, uv, sidx):
        with pytest.raises(DataFormatError, match="record 7: local arrays disagree"):
            ImageRecord(7, 0, np.zeros(2, np.float32), vecs, uv, sidx)

    @pytest.mark.parametrize("sidx", [[0, 256], [-1, 0], [0.0, 1.5], np.array([3, 2**32 + 1])])
    def test_scale_index_must_fit_u8(self, sidx):
        with pytest.raises(DataFormatError, match=r"record 7: scale indices must be integers in \[0, 255"):
            ImageRecord(7, 0, np.zeros(2, np.float32), np.zeros((2, 4)), np.zeros((2, 2)), sidx)

    def test_truncated_slices_every_array(self):
        (rec,), _ = random_records(5, 1, max_locals=0)
        vecs, uv = np.arange(12.0).reshape(3, 4), np.arange(6.0).reshape(3, 2)
        rec = replace(rec, vecs=vecs, uv=uv, scale_idx=[0, 1, 2])
        for k in (0, 1, 3, 9):
            t = rec.truncated(k)
            assert t.vecs.tobytes() == rec.vecs[:k].tobytes()
            assert t.uv.tobytes() == rec.uv[:k].tobytes()
            assert t.scale_idx.tolist() == rec.scale_idx[:k].tolist()
            assert (t.id, t.label, t.global_desc is rec.global_desc) == (rec.id, rec.label, True)

    def test_negative_budget_is_config_error(self, tmp_path):
        recs, manifest = random_records(6, 2)
        with pytest.raises(ConfigError, match="non-negative"):
            recs[0].truncated(-1)
        p = tmp_path / "d.rrtd"
        save_dataset(recs, manifest, p)
        with pytest.raises(ConfigError, match="non-negative"):
            load_dataset(p, max_locals=-3)


class TestL2NormalizeRows:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), d=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_bytes_equal_per_row_l2_normalize(self, seed, n, d):
        rng = np.random.default_rng(seed)
        m = (rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))).astype(np.float32)
        expect = np.array([l2_normalize_one(row) for row in m], dtype=np.float32).reshape(n, d)
        assert l2_normalize_rows(m, list(range(n))).tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 0], [0, 0], [np.nan, 1]], "record 11: cannot L2-normalize a zero vector"),
            ([[1, 0], [np.inf, 1], [0, 0]], "record 11: cannot L2-normalize a vector with a non-finite"),
        ],
    )
    def test_first_bad_row_named(self, rows, message):
        with pytest.raises(DataFormatError, match=message):
            l2_normalize_rows(np.array(rows, np.float32), [10, 11, 12])


def _dataset_bytes(recs, manifest, path):
    save_dataset(recs, manifest, path)
    return path.read_bytes()


def _load_error(reader, path):
    try:
        reader(path)
    except DataFormatError as exc:
        return str(exc), exc.offset
    return None


class TestReaderParity:
    """The columnar reader against the per-local reference parser."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_images=st.integers(0, 3),
        d_l=st.integers(1, 8),
        max_locals=st.sampled_from([None, 0, 1, "n"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_reader_round_trip_truncation_and_bad_scale(
        self, tmp_path_factory, seed, n_images, d_l, max_locals
    ):
        recs, manifest = random_records(seed, n_images, d_g=3, d_l=d_l, max_locals=6)
        if max_locals == "n":
            max_locals = max((len(r.vecs) for r in recs), default=0)
        tmp = tmp_path_factory.mktemp("parity")
        raw = _dataset_bytes(recs, manifest, tmp / "d.rrtd")

        got, m = load_dataset(tmp / "d.rrtd", max_locals=max_locals)
        ref, (d_g_raw, ref_d_l, n_scales, scale_values) = load_dataset_per_local(
            tmp / "d.rrtd", max_locals=max_locals
        )
        got_header = (m.d_g_raw, m.d_l, m.n_scales, m.scale_values)
        assert got_header == (d_g_raw, ref_d_l, n_scales, scale_values)
        assert len(got) == len(ref)
        for r, want in zip(got, ref):
            assert (r.id, r.label, r.global_desc.tobytes()) == (want[0], want[1], want[2].tobytes())
            for col, ref_col in zip((r.vecs, r.uv, r.scale_idx), per_local_columns(want)):
                assert (len(col), col.tobytes()) == (len(ref_col), ref_col.tobytes())

        loaded, _ = load_dataset(tmp / "d.rrtd")
        assert _dataset_bytes(loaded, manifest, tmp / "again.rrtd") == raw

        cut = tmp / "cut.rrtd"
        for end in range(len(raw)):
            cut.write_bytes(raw[:end])
            want = _load_error(load_dataset_per_local, cut)
            assert want is not None and want[1] is not None
            assert _load_error(load_dataset, cut) == want

        item = 4 * d_l + 9
        pos = 4 + 4 + 7 + 4 * manifest.n_scales + 4
        bad = tmp / "bad.rrtd"
        for r in recs:
            pos += 8 + 4 * 3 + 2
            for k in range(len(r.vecs)):
                flipped = bytearray(raw)
                flipped[pos + (k + 1) * item - 1] = manifest.n_scales + k
                bad.write_bytes(bytes(flipped))
                want = _load_error(load_dataset_per_local, bad)
                assert want[1] == pos + (k + 1) * item - 1
                assert _load_error(load_dataset, bad) == want
            pos += len(r.vecs) * item


def test_synth_and_normalize_bytes_equal_per_local_path():
    from rrt.benchmark import eval_synth_config

    cfg = eval_synth_config(1)
    queries, gallery, _ = synth_generate(cfg)
    ref_q, ref_g = synth_generate_per_local(cfg)
    for got, ref in ((queries, ref_q), (gallery, ref_g)):
        for r, want in zip(normalize_records(got), normalize_per_local(ref), strict=True):
            assert (r.id, r.label) == want[:2]
            assert r.global_desc.tobytes() == want[2].tobytes()
            for col, ref_col in zip((r.vecs, r.uv, r.scale_idx), per_local_columns(want)):
                assert col.shape == ref_col.shape and col.tobytes() == ref_col.tobytes()
