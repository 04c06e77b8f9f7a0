"""Descriptor store tests: normalization, binary round trips, the synthetic
generator's planted structure, grid dedup counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt.data import (
    DatasetManifest,
    ImageRecord,
    LocalDescriptor,
    SynthConfig,
    grid_dedup_count,
    l2_normalize,
    load_dataset,
    normalize_records,
    part_prototypes,
    save_dataset,
    synth_generate,
)
from rrt.errors import ConfigError, DataFormatError


def records_equal_bitwise(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.id != rb.id or ra.label != rb.label:
            return False
        if ra.global_desc.tobytes() != rb.global_desc.tobytes():
            return False
        if len(ra.locals) != len(rb.locals):
            return False
        for la, lb in zip(ra.locals, rb.locals):
            if la.vec.tobytes() != lb.vec.tobytes():
                return False
            if (
                np.float32(la.u).tobytes() != np.float32(lb.u).tobytes()
                or np.float32(la.v).tobytes() != np.float32(lb.v).tobytes()
                or la.scale_index != lb.scale_index
            ):
                return False
    return True


def random_records(seed, n_images, d_g=8, d_l=4, n_scales=3, max_locals=5):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n_images):
        locs = [
            LocalDescriptor(
                rng.standard_normal(d_l).astype(np.float32),
                float(rng.uniform(0, 1024)),
                float(rng.uniform(0, 1024)),
                int(rng.integers(0, n_scales)),
            )
            for _ in range(rng.integers(0, max_locals + 1))
        ]
        recs.append(
            ImageRecord(i, int(rng.integers(0, 4)), rng.standard_normal(d_g).astype(np.float32), locs)
        )
    manifest = DatasetManifest(
        d_g_raw=d_g, d_l=d_l, n_scales=n_scales, scale_values=(0.5, 1.0, 2.0), n_images=n_images
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
        recs[1] = ImageRecord(
            recs[1].id,
            recs[1].label,
            recs[1].global_desc,
            [LocalDescriptor(np.zeros(4, dtype=np.float32), 1.0, 2.0, 0)],
        )
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
        r = recs[1]
        recs[1] = ImageRecord(
            value if field == "id" else r.id,
            value if field == "label" else r.label,
            r.global_desc,
            r.locals,
        )
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
            assert len(got.locals) == min(1, len(orig.locals))
            if got.locals:
                assert got.locals[0].vec.tobytes() == orig.locals[0].vec.tobytes()

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
            assert len(r.locals) == cfg.locals_per_image
            for l in r.locals:
                assert abs(np.linalg.norm(l.vec) - 1.0) < 1e-5
                assert 0 <= l.scale_index < cfg.n_scales
                assert 0 <= l.u < cfg.canvas and 0 <= l.v < cfg.canvas
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
            best = np.max(r.locals_matrix() @ own.T, axis=1)
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
        rec = ImageRecord(
            0, 0, np.array([3.0, 4.0], dtype=np.float32),
            [LocalDescriptor(np.array([0.0, 2.0], dtype=np.float32), 1.0, 2.0, 0)],
        )
        (out,) = normalize_records([rec])
        np.testing.assert_allclose(out.global_desc, [0.6, 0.8], rtol=1e-6)
        np.testing.assert_allclose(out.locals[0].vec, [0.0, 1.0], rtol=1e-6)
        # source untouched
        np.testing.assert_allclose(rec.global_desc, [3.0, 4.0])


class TestGridDedup:
    def _rec(self, coords):
        locs = [
            LocalDescriptor(np.zeros(2, dtype=np.float32), u, v, 0) for u, v in coords
        ]
        return ImageRecord(0, 0, np.zeros(2, dtype=np.float32), locs)

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
