"""Baseline reranker tests: query expansion arithmetic, mutual-NN matching
against a quadratic oracle, RANSAC on planted homographies and against the
per-iteration SVD reference, block-split GV scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt import baselines
from rrt.baselines import (
    GVConfig,
    alpha_qe_expand,
    aqe_weights,
    gv_scores,
    mutual_nn_matches,
    ransac_homography,
)
from rrt.data import ImageRecord

from helpers import make_record
from oracles import gv_score, gv_score_svd, mutual_nn_brute, ransac_homography_svd


class TestAlphaQE:
    def test_alpha_zero_is_uniform(self):
        q = np.array([1.0, 0.0, 0.0])
        d = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = alpha_qe_expand(q, d, np.array([0.9, 0.4]), nqe=2, alpha=0.0)
        expected = (q + d[0] + d[1]) / np.linalg.norm(q + d[0] + d[1])
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_nqe_zero_identity_on_unit_query(self):
        q = np.array([0.6, 0.8], dtype=np.float32)
        out = alpha_qe_expand(q, np.zeros((0, 2)), np.zeros(0), nqe=0, alpha=0.3)
        np.testing.assert_allclose(out, q, atol=1e-7)

    def test_worked_two_dim_example(self):
        # weight = 0.25^0.5 = 0.5, expanded = [1, 0.5] -> [0.8944, 0.4472]
        out = alpha_qe_expand(
            np.array([1.0, 0.0]),
            np.array([[0.0, 1.0]]),
            np.array([0.25]),
            nqe=1,
            alpha=0.5,
        )
        np.testing.assert_allclose(out, [0.89442719, 0.44721360], atol=1e-6)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.standard_normal(16)
            q /= np.linalg.norm(q)
            d = rng.standard_normal((5, 16))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            sims = np.sort(rng.uniform(-1, 1, 5))[::-1]
            out = alpha_qe_expand(q, d, sims, nqe=3, alpha=0.3)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_negative_similarity_clamped(self):
        w = aqe_weights(np.array([-0.5, 0.5]), alpha=2.0)
        np.testing.assert_allclose(w, [0.0, 0.25])

    def test_larger_alpha_sharpens_relative_weights(self):
        lo, hi = 0.3, 0.9
        ratios = [
            aqe_weights(np.array([lo]), a)[0] / aqe_weights(np.array([hi]), a)[0]
            for a in (0.0, 0.5, 1.0, 2.0, 3.0)
        ]
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


class TestMutualNN:
    def test_permuted_identical_sets_match_perfectly(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 4))
        perm = rng.permutation(8)
        b = a[perm]
        matches = mutual_nn_matches(a, b)
        assert len(matches) == 8
        for m in matches:
            assert perm[m.b_index] == m.a_index
            assert m.distance < 1e-6  # cancellation noise in the Gram expansion

    def test_one_vs_one_always_matches(self):
        matches = mutual_nn_matches(np.ones((1, 3)), np.zeros((1, 3)))
        assert len(matches) == 1
        assert (matches[0].a_index, matches[0].b_index) == (0, 0)

    def test_against_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((20, 8))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        got = [(m.a_index, m.b_index) for m in mutual_nn_matches(a, b)]
        assert got == mutual_nn_brute(a, b)

    def test_symmetry_with_and_without_ratio(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 6))
        b = rng.standard_normal((9, 6))
        for ratio in (None, 0.95):
            ab = {(m.a_index, m.b_index) for m in mutual_nn_matches(a, b, ratio)}
            ba = {(m.b_index, m.a_index) for m in mutual_nn_matches(b, a, ratio)}
            assert ab == ba

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            mutual_nn_matches(np.zeros((0, 3)), np.ones((2, 3)))


def planted_homography():
    return np.array(
        [[1.1, 0.02, 30.0], [-0.03, 0.95, -12.0], [1e-5, -2e-5, 1.0]]
    )


def apply_h(H, pts):
    ph = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    q = ph @ H.T
    return q[:, :2] / q[:, 2:3]


class TestRansacHomography:
    def test_identity_zero_noise(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1024, size=(40, 2))
        H, count, mask = ransac_homography(pts, pts, iterations=200, inlier_threshold=3.0, seed=0)
        assert count == 40
        assert mask.all()
        assert np.linalg.norm(H - np.eye(3)) < 1e-4

    def test_under_determined(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        H, count, mask = ransac_homography(pts, pts)
        assert H is None and count == 0 and not mask.any()

    def test_planted_model_with_outliers(self):
        rng = np.random.default_rng(5)
        H_true = planted_homography()
        inl_a = rng.uniform(0, 1024, size=(70, 2))
        inl_b = apply_h(H_true, inl_a)
        out_a = rng.uniform(0, 1024, size=(30, 2))
        out_b = rng.uniform(0, 1024, size=(30, 2))
        pts_a = np.concatenate([inl_a, out_a])
        pts_b = np.concatenate([inl_b, out_b])

        H, count, mask = ransac_homography(
            pts_a, pts_b, iterations=2000, inlier_threshold=3.0, seed=7
        )
        assert H is not None
        planted_recovered = mask[:70].sum()
        assert planted_recovered >= 0.95 * 70
        reproj = np.linalg.norm(apply_h(H, inl_a) - inl_b, axis=1)
        assert np.max(reproj) < 1.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        pts_a = rng.uniform(0, 512, size=(25, 2))
        pts_b = apply_h(planted_homography(), pts_a) + rng.normal(0, 0.5, (25, 2))
        r1 = ransac_homography(pts_a, pts_b, iterations=300, seed=42)
        r2 = ransac_homography(pts_a, pts_b, iterations=300, seed=42)
        np.testing.assert_array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]
        np.testing.assert_array_equal(r1[2], r2[2])

    def test_permutation_with_remapped_schedule(self):
        # Permuting the match list while remapping the fixed sample schedule
        # must reproduce the same consensus size.
        rng = np.random.default_rng(7)
        pts_a = rng.uniform(0, 512, size=(30, 2))
        pts_b = apply_h(planted_homography(), pts_a)
        pts_b[20:] = rng.uniform(0, 512, size=(10, 2))
        schedule = np.argsort(rng.random((100, 30)), axis=1)[:, :4]
        _, count1, mask1 = ransac_homography(pts_a, pts_b, sample_indices=schedule)

        perm = rng.permutation(30)
        inv = np.empty(30, dtype=np.int64)
        inv[perm] = np.arange(30)
        _, count2, mask2 = ransac_homography(
            pts_a[perm], pts_b[perm], sample_indices=inv[schedule]
        )
        assert count1 == count2
        np.testing.assert_array_equal(mask1[perm], mask2)

    def test_all_degenerate_samples(self):
        # Collinear points cannot support a homography.
        t = np.linspace(0, 100, 12)
        pts = np.stack([t, 2 * t + 1], axis=1)
        H, count, mask = ransac_homography(pts, pts, iterations=50, seed=0)
        assert H is None and count == 0 and not mask.any()


def record_from(vecs, coords, rec_id=0, label=0):
    g = np.zeros(4, dtype=np.float32)
    g[0] = 1.0
    return ImageRecord(rec_id, label, g, vecs, coords, np.zeros(len(vecs), np.uint8))


class TestGVScore:
    def test_identical_records_score_all_locals(self):
        rng = np.random.default_rng(8)
        vecs = rng.standard_normal((16, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        coords = rng.uniform(0, 1024, size=(16, 2))
        q = record_from(vecs, coords, 0)
        c = record_from(vecs, coords, 1)
        assert gv_score(q, c, GVConfig(iterations=200)) == 16

    def test_disjoint_descriptors_score_near_floor(self):
        rng = np.random.default_rng(9)
        n = 100
        for trial in range(3):
            va = rng.standard_normal((n, 16))
            va /= np.linalg.norm(va, axis=1, keepdims=True)
            vb = rng.standard_normal((n, 16))
            vb /= np.linalg.norm(vb, axis=1, keepdims=True)
            q = record_from(va, rng.uniform(0, 1024, (n, 2)), 0)
            c = record_from(vb, rng.uniform(0, 1024, (n, 2)), 1)
            assert gv_score(q, c, GVConfig(iterations=500, seed=trial)) <= 0.10 * n

    def test_planted_affine_warp_recovers_locals(self):
        rng = np.random.default_rng(10)
        n = 20
        vecs = rng.standard_normal((n, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        coords = rng.uniform(100, 900, size=(n, 2))
        A = np.array([[0.9, 0.1], [-0.05, 1.1]])
        warped = coords @ A.T + np.array([25.0, -40.0])
        q = record_from(vecs, coords, 0)
        c = record_from(vecs, warped, 1)
        assert gv_score(q, c, GVConfig(iterations=500)) >= 0.95 * n

    def test_empty_locals_scores_zero(self):
        rng = np.random.default_rng(11)
        q = make_record(rng, 0, 0, 8, 4, 0, 3)
        c = make_record(rng, 1, 0, 8, 4, 5, 3)
        assert gv_score(q, c, GVConfig()) == 0

    def test_deterministic_per_pair(self):
        rng = np.random.default_rng(12)
        q = make_record(rng, 0, 0, 8, 4, 30, 3)
        c = make_record(rng, 1, 0, 8, 4, 30, 3)
        cfg = GVConfig(iterations=300, seed=5)
        assert gv_score(q, c, cfg) == gv_score(q, c, cfg)


def reference_case(seed, n, kind, iterations):
    """Matches under a planted homography with some outliers, reshaped by
    `kind`; returns (pts_a, pts_b, sample_indices or None)."""
    rng = np.random.default_rng(seed)
    H_true = planted_homography()
    pts_a = rng.uniform(0, 1024, size=(n, 2))
    pts_b = apply_h(H_true, pts_a)
    n_out = int(rng.integers(0, n // 2 + 1))
    pts_b[n - n_out:] = rng.uniform(0, 1024, size=(n_out, 2))
    schedule = None
    if kind == "duplicates":
        k = int(rng.integers(1, n))
        src, dst = rng.integers(0, n, k), rng.integers(0, n, k)
        pts_a[dst], pts_b[dst] = pts_a[src], pts_b[src]
    elif kind == "collinear":
        m = int(rng.integers(3, n + 1))
        t = rng.uniform(0, 1000, m)
        pts_a[:m] = np.stack([t, 0.5 * t + 20.0], axis=1)
        pts_b[:m] = apply_h(H_true, pts_a[:m])
    elif kind == "repeated_set":
        # one set of 4 drawn again and again in shuffled orders, among fresh draws
        schedule = np.argsort(rng.random((iterations, n)), axis=1)[:, :4]
        the_set = rng.permutation(n)[:4]
        again = rng.random(iterations) < 0.5
        schedule[again] = [rng.permutation(the_set) for _ in range(int(again.sum()))]
    return pts_a, pts_b, schedule


class TestRansacAgainstSVDReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        kind=st.sampled_from(["planted", "duplicates", "collinear", "repeated_set"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_count_mask_and_homography(self, seed, n, kind):
        pts_a, pts_b, schedule = reference_case(seed, n, kind, iterations=60)
        kwargs = dict(iterations=60, inlier_threshold=3.0, seed=seed, sample_indices=schedule)
        H, count, mask = ransac_homography(pts_a, pts_b, **kwargs)
        H_ref, count_ref, mask_ref = ransac_homography_svd(pts_a, pts_b, **kwargs)
        assert count == count_ref
        np.testing.assert_array_equal(mask, mask_ref)
        if H_ref is None:
            assert H is None
        else:
            assert np.abs(H - H_ref).max() <= 1e-9 * np.abs(H_ref).max()

    def test_closed_form_exact_on_four_mapped_points(self):
        H_true = planted_homography()
        pa = np.array([[10.0, 20.0], [900.0, 40.0], [870.0, 700.0], [30.0, 650.0]])
        pb = apply_h(H_true, pa)
        H = baselines._four_point_homography(pa[None], pb[None])[0]
        np.testing.assert_allclose(H / H[2, 2], H_true, rtol=1e-9, atol=1e-12)


def query_and_candidates(seed, n_candidates):
    """A 16-local query and candidates sharing 0..16 of its locals, so the
    number of matches and of inliers varies across candidates.  A shared
    local sits under a planted homography, at its query position (H = I)
    or anywhere.  The identity competes with the planted model, and under
    it a zero-padded match at the origin would count as an inlier if
    padding were not masked."""
    rng = np.random.default_rng(seed)

    def unit_rows(k):
        v = rng.standard_normal((k, 8))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    q_vecs, q_pos = unit_rows(16), rng.uniform(0, 1024, size=(16, 2))
    query = record_from(q_vecs, q_pos, 0)
    cands = []
    for i in range(n_candidates):
        shared = rng.permutation(16)[: int(rng.integers(0, 17))]
        k = len(shared)
        pos = apply_h(planted_homography(), q_pos[shared])
        motion = rng.random(k)
        pos[motion < 0.4] = q_pos[shared][motion < 0.4]
        pos[motion > 0.8] = rng.uniform(0, 1024, size=(int((motion > 0.8).sum()), 2))
        vecs = np.concatenate([q_vecs[shared], unit_rows(16 - k)])
        pos = np.concatenate([pos, rng.uniform(0, 1024, size=(16 - k, 2))])
        cands.append(record_from(vecs, pos, i + 1))
    return query, cands


class TestGVScoresBlocks:
    def test_blocks_match_one_pair_at_a_time_and_reference(self, monkeypatch):
        query, cands = query_and_candidates(13, 100)
        cfg = GVConfig(iterations=80, seed=3)
        single = [gv_score(query, c, cfg) for c in cands]
        assert single == [gv_score_svd(query, c, cfg) for c in cands]
        assert len(set(single)) > 5  # varied counts
        # 8 blocks of 1-15 pairs at the default bound, 3-6 pairs per block, one block
        for budget in (baselines.GV_BLOCK_BUDGET, 4000, 1 << 30):
            monkeypatch.setattr(baselines, "GV_BLOCK_BUDGET", budget)
            assert gv_scores(query, cands, cfg) == single
