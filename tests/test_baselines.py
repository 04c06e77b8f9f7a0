"""Baseline reranker tests: query expansion arithmetic, mutual-NN matching
against a quadratic oracle, RANSAC on planted homographies and against the
per-iteration SVD reference, the structure-of-arrays hypothesis stage
against its stacked form, the packed-key draw dedup against a lexsort,
block-split and chunked GV scoring with and without refit fallbacks, the
frozen eval set's GV score digest and peak heap, GV config checks."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from rrt.errors import ConfigError

from check_gv_reference import ITERATIONS, check_seed, frozen_top100
from helpers import make_record
import oracles
from oracles import (
    first_draws_lexsort,
    gv_score,
    gv_score_svd,
    mutual_nn_brute,
    mutual_nn_matches_loop,
    ransac_homography_svd,
)


class TestAlphaQE:
    def test_alpha_zero_is_uniform(self):
        q = np.array([1.0, 0.0, 0.0])
        d = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = alpha_qe_expand(q, d, np.array([0.9, 0.4]), alpha=0.0)
        expected = (q + d[0] + d[1]) / np.linalg.norm(q + d[0] + d[1])
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_nqe_zero_identity_on_unit_query(self):
        q = np.array([0.6, 0.8], dtype=np.float32)
        out = alpha_qe_expand(q, np.zeros((0, 2)), np.zeros(0), alpha=0.3)
        np.testing.assert_allclose(out, q, atol=1e-7)

    def test_worked_two_dim_example(self):
        # weight = 0.25^0.5 = 0.5, expanded = [1, 0.5] -> [0.8944, 0.4472]
        out = alpha_qe_expand(
            np.array([1.0, 0.0]),
            np.array([[0.0, 1.0]]),
            np.array([0.25]),
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
            out = alpha_qe_expand(q, d[:3], sims[:3], alpha=0.3)
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


def matched(a, b, ratio=None):
    """mutual_nn_matches as a list of (i, j, distance) tuples."""
    i, j, dist = mutual_nn_matches(a, b, ratio)
    return list(zip(i.tolist(), j.tolist(), dist.tolist()))


class TestMutualNN:
    def test_permuted_identical_sets_match_perfectly(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 4))
        perm = rng.permutation(8)
        b = a[perm]
        matches = matched(a, b)
        assert len(matches) == 8
        for i, j, dist in matches:
            assert perm[j] == i
            assert dist < 1e-6  # cancellation noise in the Gram expansion

    def test_one_vs_one_always_matches(self):
        assert [(i, j) for i, j, _ in matched(np.ones((1, 3)), np.zeros((1, 3)))] == [(0, 0)]

    def test_against_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((20, 8))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        got = [(i, j) for i, j, _ in matched(a, b)]
        assert got == mutual_nn_brute(a, b)

    def test_symmetry_with_and_without_ratio(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 6))
        b = rng.standard_normal((9, 6))
        for ratio in (None, 0.95):
            ab = {(i, j) for i, j, _ in matched(a, b, ratio)}
            ba = {(i, j) for j, i, _ in matched(b, a, ratio)}
            assert ab == ba

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            mutual_nn_matches(np.zeros((0, 3)), np.ones((2, 3)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 12),
        n_b=st.integers(1, 12),
        dim=st.integers(1, 4),
        repeats=st.integers(0, 6),
        ratio=st.sampled_from([None, 0.8]),
    )
    @example(seed=0, n_a=1, n_b=1, dim=3, repeats=0, ratio=None)
    @example(seed=0, n_a=1, n_b=1, dim=3, repeats=0, ratio=0.8)
    @settings(max_examples=120, deadline=None)
    def test_same_matches_as_per_local_loop(self, seed, n_a, n_b, dim, repeats, ratio):
        # Small integer coordinates tie distances often; repeated rows copy
        # descriptors within A, within B and from A into B.
        rng = np.random.default_rng(seed)
        a = rng.integers(-2, 3, (n_a, dim)).astype(np.float64)
        b = rng.integers(-2, 3, (n_b, dim)).astype(np.float64)
        for _ in range(repeats):
            src, dst = (a, a) if rng.random() < 0.4 else (b, b) if rng.random() < 0.5 else (a, b)
            dst[rng.integers(len(dst))] = src[rng.integers(len(src))]
        i, j, dist = mutual_nn_matches(a, b, ratio)
        assert i.dtype.kind == j.dtype.kind == "i" and dist.dtype == np.float64
        assert len(i) == len(j) == len(dist)
        assert matched(a, b, ratio) == mutual_nn_matches_loop(a, b, ratio)


def planted_homography():
    return np.array(
        [[1.1, 0.02, 30.0], [-0.03, 0.95, -12.0], [1e-5, -2e-5, 1.0]]
    )


def apply_h(H, pts):
    ph = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    q = ph @ H.T
    return q[:, :2] / q[:, 2:3]


def ransac_replay(pts_a, pts_b, schedule, inlier_threshold=3.0):
    """ransac_homography of at least 4 matches with its seeded draws
    replaced by a fixed [iterations, 4] sample schedule."""
    return baselines._ransac_block([(pts_a, pts_b, schedule)], inlier_threshold)[0]


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
        _, count1, mask1 = ransac_replay(pts_a, pts_b, schedule)

        perm = rng.permutation(30)
        inv = np.empty(30, dtype=np.int64)
        inv[perm] = np.arange(30)
        _, count2, mask2 = ransac_replay(pts_a[perm], pts_b[perm], inv[schedule])
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
        kwargs = dict(iterations=60, inlier_threshold=3.0, seed=seed)
        if schedule is None:
            H, count, mask = ransac_homography(pts_a, pts_b, **kwargs)
        else:
            H, count, mask = ransac_replay(pts_a, pts_b, schedule)
        H_ref, count_ref, mask_ref = ransac_homography_svd(pts_a, pts_b, **kwargs, sample_indices=schedule)
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
        H, ok = baselines._hypotheses(*coordinate_rows(pa[None], pb[None]))
        assert ok.all()
        H = H[0]
        np.testing.assert_allclose(H / H[2, 2], H_true, rtol=1e-9, atol=1e-12)


def coordinate_rows(pa, pb):
    """[U,4,2] point sets per side -> the contiguous [4, U] rows xa, ya, xb,
    yb that _hypotheses takes."""
    return [np.ascontiguousarray(p[..., c].T) for p in (pa, pb) for c in (0, 1)]


def four_point_sets(seed, u, kind):
    """[U,4,2] point sets per side at pixel scale.  Half of the sets are
    random; the other half, `hit`, are of the kind: mapped exactly by the
    planted homography, with two points coincident on one side, with a
    collinear triple on one side, or with all 4 points of one side within
    1e-13 to 1e-7 of a center, around the normalization's 1e-9 floor."""
    rng = np.random.default_rng(seed)
    pa = rng.uniform(0, 1024, (u, 4, 2))
    pb = rng.uniform(0, 1024, (u, 4, 2))
    hit = np.flatnonzero(rng.random(u) < 0.5)
    side = [pa, pb][int(rng.integers(2))]
    for h in hit:
        i, j, k = rng.permutation(4)[:3]
        if kind == "mapped":
            pb[h] = apply_h(planted_homography(), pa[h])
        elif kind == "coincident":
            side[h, j] = side[h, i]
        elif kind == "collinear":
            side[h, k] = side[h, i] + rng.uniform(-2, 2) * (side[h, j] - side[h, i])
        elif kind == "near_zero_spread":
            side[h] = side[h, i] + 10.0 ** rng.uniform(-13, -7) * rng.standard_normal((4, 2))
    return pa, pb, hit


class TestHypothesesStage:
    @given(
        seed=st.integers(0, 2**32 - 1),
        u=st.integers(1, 200),
        kind=st.sampled_from(["random", "mapped", "coincident", "collinear", "near_zero_spread"]),
    )
    @example(seed=0, u=1, kind="coincident")
    @example(seed=106, u=3, kind="near_zero_spread")  # one valid set of three
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_as_the_stacked_form(self, seed, u, kind):
        pa, pb, hit = four_point_sets(seed, u, kind)
        H, ok = baselines._hypotheses(*coordinate_rows(pa, pb))
        H_ref, valid_ref = oracles.four_point_hypotheses(pa, pb)
        np.testing.assert_array_equal(ok, valid_ref)
        assert H[ok].tobytes() == H_ref.tobytes()
        if kind in ("coincident", "collinear"):
            assert not ok[hit].any()

    def test_every_kind_keeps_and_drops_sets(self):
        for kind in ("coincident", "collinear", "near_zero_spread"):
            pa, pb, hit = four_point_sets(7, 400, kind)
            _, ok = baselines._hypotheses(*coordinate_rows(pa, pb))
            assert ok.any() and not ok[hit].all(), kind


def singular_homographies():
    """Rank-2 and rank-1 matrices with small integer entries, whose
    determinant is exactly 0 under either inverse."""
    return np.array([
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]],
        [[2.0, 0.0, 1.0], [4.0, 0.0, 2.0], [1.0, 3.0, 1.0]],
        [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]],
        [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 1.0, 1.0]],
        np.zeros((3, 3)),
    ])


def near_singular_homographies(rng, k):
    """The rank-2 singular matrices plus a 1e-6 perturbation: det about
    1e-6 on O(1) entries."""
    base = singular_homographies()[rng.choice([0, 1, 3], k)]
    return base + 1e-6 * rng.standard_normal((k, 3, 3))


def well_conditioned_homographies(rng, k):
    """Planted-like homographies: a similarity with mild perspective, at
    pixel scale as RANSAC fits them."""
    out = []
    for _ in range(k):
        t = rng.uniform(-np.pi, np.pi)
        s = rng.uniform(0.5, 2.0)
        H = np.array([
            [s * np.cos(t), -s * np.sin(t), rng.uniform(-200, 200)],
            [s * np.sin(t), s * np.cos(t), rng.uniform(-200, 200)],
            [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
        ])
        out.append(H * rng.uniform(0.1, 10.0))
    return np.array(out)


class TestAdjugateInverse:
    """_symmetric_errors inverts H as adj(H) / det(H); the oracle's copy
    uses np.linalg.det and np.linalg.inv.  Same inf pattern, and the same
    errors within 1e-9 relative where finite."""

    @pytest.mark.parametrize("kind", ["well_conditioned", "near_singular", "singular"])
    def test_errors_match_linalg_inverse(self, kind):
        rng = np.random.default_rng(["well_conditioned", "near_singular", "singular"].index(kind))
        H = {
            "well_conditioned": lambda: well_conditioned_homographies(rng, 64),
            "near_singular": lambda: near_singular_homographies(rng, 64),
            "singular": singular_homographies,
        }[kind]()
        pts_a = rng.uniform(0, 1024, (40, 2))
        pts_b = rng.uniform(0, 1024, (40, 2))
        got = baselines._symmetric_errors(H, pts_a[None], pts_b[None])
        want = oracles._symmetric_errors(H, pts_a, pts_b)
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        finite = np.isfinite(want)
        if kind == "singular":
            assert not finite.any()
        else:
            assert finite.all()
        rel = np.abs(got[finite] - want[finite]) / np.maximum(np.abs(want[finite]), 1e-300)
        assert rel.max(initial=0.0) <= 1e-9

    def test_guard_sees_the_inverse_not_the_adjugate(self):
        # H = 1000 [[1,0,0],[0,1,0],[1e-3,0,1]] has det 1e9.  H^-1 sends
        # x = 1000 - 1e-7 to w ~ 1e-13, below _W_EPS; adj(H) = 1e9 H^-1
        # would give w ~ 1e-4 and a finite error.
        H = 1000.0 * np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-3, 0.0, 1.0]]])
        pts_a = np.array([[10.0, 20.0], [30.0, 40.0]])
        pts_b = np.array([[1000.0 - 1e-7, 5.0], [100.0, 5.0]])
        got = baselines._symmetric_errors(H, pts_a[None], pts_b[None])
        want = oracles._symmetric_errors(H, pts_a, pts_b)
        assert np.isinf(got[0, 0]) and np.isfinite(got[0, 1])
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))

    def test_cross_has_numpy_bits(self):
        rng = np.random.default_rng(5)
        u, v = rng.uniform(-1e3, 1e3, (2, 50, 4, 3))
        assert baselines._cross(u, v).tobytes() == np.cross(u, v).tobytes()

    def test_inverse_undoes_planted_homography(self):
        H = planted_homography()
        pts_a = np.random.default_rng(4).uniform(0, 1024, (20, 2))
        err = baselines._symmetric_errors(H[None], pts_a[None], apply_h(H, pts_a)[None])
        assert err.max() < 1e-9


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
        # Blocks of 45-55 pairs scored in 7 chunks at the default bound, of
        # 7-14 pairs in 27 chunks at 4,000, one block and one chunk at 2**30.
        for budget in (baselines.GV_BLOCK_BUDGET, 4000, 1 << 30):
            monkeypatch.setattr(baselines, "GV_BLOCK_BUDGET", budget)
            assert gv_scores(query, cands, cfg) == single


def random_draws(rng, n_pairs, width, iterations):
    """Draws [k, 5] as _ransac_block builds them: per pair, in pair order,
    rows of (pair, 4 distinct match indices below that pair's size).  Up to
    width 64 sizes vary and small pairs repeat their sets often; wider
    pairs pick from a few indices just below width, so that sets repeat
    within and across pairs."""
    rows = []
    for p in range(n_pairs):
        if width > 64:
            pool = width - 1 - rng.permutation(8)[:6]
            picks = np.stack([rng.choice(pool, 4, replace=False) for _ in range(iterations)])
        else:
            n = int(rng.integers(4, width + 1)) if p else width
            picks = np.argsort(rng.random((iterations, n)), axis=1)[:, :4]
        rows.append(np.column_stack([np.full(iterations, p), picks]))
    return np.concatenate(rows)


class TestFirstDraws:
    @pytest.mark.parametrize("width", [4, 5, 9, 40, baselines._PACK_MAX_WIDTH])
    def test_same_rows_as_lexsort(self, width):
        rng = np.random.default_rng(width)
        dropped = 0
        for _ in range(5):
            draws = random_draws(rng, int(rng.integers(1, 7)), width, int(rng.integers(1, 120)))
            got = baselines._first_draws(draws, width)
            np.testing.assert_array_equal(got, first_draws_lexsort(draws))
            dropped += len(draws) - len(got)
        assert dropped > 0  # repeated sets were there to drop

    def test_packing_bound(self):
        # The largest packed key, the set (w-4, w-3, w-2, w-1), must fit int64.
        w = baselines._PACK_MAX_WIDTH
        assert w**4 <= 2**63 < (w + 1) ** 4
        draws = np.array([[0, w - 1, w - 2, w - 3, w - 4], [1, w - 4, w - 3, w - 2, w - 1]])
        np.testing.assert_array_equal(baselines._first_draws(draws, w), [0, 1])
        with pytest.raises(ValueError, match="packing bound"):
            baselines._first_draws(draws, w + 1)


class TestChunks:
    @given(
        seed=st.integers(0, 2**32 - 1),
        pairs=st.integers(1, 30),
        budget=st.sampled_from([64, 500, 4000]),
    )
    @settings(max_examples=100, deadline=None)
    def test_pair_aligned_greedy_and_within_budget(self, seed, pairs, budget):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(4, 61, pairs)
        bounds = np.concatenate([[0], np.cumsum(rng.integers(1, 121, pairs))])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "GV_BLOCK_BUDGET", budget)
            chunks = list(baselines._chunks(bounds, sizes))
        assert [lo for lo, _, _ in chunks] == [0] + [hi for _, hi, _ in chunks[:-1]]
        assert chunks[-1][1] == bounds[-1]
        for lo, hi, width in chunks:
            p, q = np.searchsorted(bounds, [lo, hi])
            assert bounds[p] == lo and bounds[q] == hi  # pair-aligned
            assert width == sizes[p:q].max()
            assert q - p == 1 or (hi - lo) * width <= budget
            if q < pairs:  # the next pair would not have fitted
                assert (bounds[q + 1] - lo) * max(width, sizes[q]) > budget


PERSPECTIVE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 0.0, 1.0]])  # vanishing line x = -1000


def fallback_query_and_candidates(seed, n_fallback=4, n_planted=30):
    """A 16-local query and candidates of two kinds, shuffled.

    Fallback candidates share the query's first 7 locals under PERSPECTIVE:
    4 near its vanishing line, mapped exactly, and 3 far from it with half
    a pixel of noise.  The exact 4 give a winner with all 7 as consensus.
    The least-squares refit follows the noisy 3, whose algebraic errors
    weigh more, and misses the 4 by more than the threshold, so it keeps
    fewer than 4 and the winner stands.  The other candidates share 0-9 of
    the query's other locals under the planted homography with outliers,
    so consensus sizes vary."""
    rng = np.random.default_rng(seed)

    def unit_rows(k):
        v = rng.standard_normal((k, 8))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    q_vecs, q_pos = unit_rows(16), rng.uniform(0, 1024, size=(16, 2))
    q_pos[:4] = [[-990.0, 100.0], [-985.0, 900.0], [-982.0, 300.0], [-988.0, 600.0]]
    query = record_from(q_vecs, q_pos, 0)
    cands = []
    for i in range(n_fallback + n_planted):
        if i < n_fallback:
            shared = np.arange(7)
            pos = apply_h(PERSPECTIVE, q_pos[:7])
            pos[4:] += rng.normal(0, 0.5, size=(3, 2))
        else:
            shared = 7 + rng.permutation(9)[: int(rng.integers(0, 10))]
            pos = apply_h(planted_homography(), q_pos[shared])
            moved = rng.random(len(shared)) > 0.7
            pos[moved] = rng.uniform(0, 1024, size=(int(moved.sum()), 2))
        k = len(shared)
        vecs = np.concatenate([q_vecs[shared], unit_rows(16 - k)])
        pos = np.concatenate([pos, rng.uniform(0, 1024, size=(16 - k, 2))])
        cands.append(record_from(vecs, pos, i + 1))
    return query, [cands[j] for j in rng.permutation(len(cands))]


class TestGVScoresRefitFallback:
    def test_blocks_match_reference_per_pair(self, monkeypatch):
        query, cands = fallback_query_and_candidates(1)
        cfg = GVConfig(iterations=80, seed=3)
        blocks, refits = [], []
        ransac_block, refit = baselines._ransac_block, baselines._refit

        def spy_block(pairs, inlier_threshold):
            out = ransac_block(pairs, inlier_threshold)
            blocks.append((pairs, out))
            return out

        def spy_refit(inliers, *rest):
            Hr, mask, ok = refit(inliers, *rest)
            refits.append((inliers.sum(axis=1), ok))
            return Hr, mask, ok

        monkeypatch.setattr(baselines, "_ransac_block", spy_block)
        monkeypatch.setattr(baselines, "_refit", spy_refit)
        for budget in (baselines.GV_BLOCK_BUDGET, 4000, 1 << 30):
            monkeypatch.setattr(baselines, "GV_BLOCK_BUDGET", budget)
            blocks.clear()
            refits.clear()
            gv_scores(query, cands, cfg)
            for pairs, out in blocks:
                for (pa, pb, samples), (H, count, mask) in zip(pairs, out):
                    H_ref, count_ref, mask_ref = ransac_homography_svd(
                        pa, pb, inlier_threshold=cfg.inlier_threshold, sample_indices=samples
                    )
                    assert count == count_ref
                    np.testing.assert_array_equal(mask, mask_ref)
                    if H_ref is None:
                        assert H is None
                    else:
                        assert np.abs(H - H_ref).max() <= 1e-9 * np.abs(H_ref).max()
            # Some block mixes fallbacks with kept refits of other sizes.
            assert any((~ok).any() and set(sizes[ok]) - set(sizes[~ok]) for sizes, ok in refits)
            sizes = np.concatenate([s for s, _ in refits])
            ok = np.concatenate([k for _, k in refits])
            assert (~ok).sum() >= 2 and len(set(sizes[ok])) >= 3


@pytest.fixture(scope="module")
def seed1_top100():
    return frozen_top100(1)


class TestFrozenEvalSet:
    """GV over the seed-1 frozen eval set at the benchmark's 500 iterations."""

    # sha256 of the 40 x 100 scores as int64, from the hypotheses fitted on
    # [U, 4, 2] stacks (tests/oracles.py); tests/check_gv_reference.py
    # checks every score against the per-iteration SVD reference.
    SCORES_SHA256 = "4c3fdf32ad7307807acdf5200b0390ac9110951667195886914e162801240e28"
    # Query 0's traced peak heap in bytes, per iteration count, measured by
    # the test below with the hypotheses fitted on [U, 4, 2] stacks and
    # blocks of 2**14 hypotheses x padded matches scored in one pass
    # (numpy 2.4.6, Python 3.11.7; it moves by a few hundred bytes with the
    # tests run before it).
    STACKED_PEAK_BYTES = {500: 3_668_464, 2000: 7_454_001}

    def test_scores_digest(self, seed1_top100):
        cfg = GVConfig(iterations=ITERATIONS, seed=1)
        scores = np.array([gv_scores(q, cands, cfg) for q, cands in seed1_top100], dtype=np.int64)
        assert scores.shape == (40, 100)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == self.SCORES_SHA256

    @pytest.mark.parametrize("iterations", [500, 2000])
    def test_one_query_peaks_below_the_stacked_form(self, seed1_top100, iterations):
        query, cands = seed1_top100[0]
        cfg = GVConfig(iterations=iterations, seed=1)
        gv_scores(query, cands, cfg)  # one-time allocations (imports, caches) stay off the count
        tracemalloc.start()
        try:
            gv_scores(query, cands, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.STACKED_PEAK_BYTES[iterations]


def test_frozen_eval_pairs_match_reference():
    # The first 2 queries of the seed-1 frozen eval set, top-100 each, at the
    # benchmark's 500 iterations; tests/check_gv_reference.py runs them all.
    assert check_seed(1, max_queries=2) == (200, 0)


class TestGVConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(iterations=-5), "iterations must be at least 1, got -5"),
            (dict(iterations=0), "iterations must be at least 1, got 0"),
            (dict(inlier_threshold=0.0), "finite and positive, got 0.0"),
            (dict(inlier_threshold=-1.0), "finite and positive, got -1.0"),
            (dict(inlier_threshold=float("nan")), "finite and positive, got nan"),
            (dict(inlier_threshold=float("inf")), "finite and positive, got inf"),
            (dict(ratio=-1.0), "ratio must be finite and positive, got -1.0"),
            (dict(ratio=0.0), "ratio must be finite and positive, got 0.0"),
            (dict(ratio=float("nan")), "ratio must be finite and positive, got nan"),
            (dict(iterations=100_001), "iterations must be at most 100000, got 100001"),
            (dict(iterations=10**23), "iterations must be at most 100000, got 100000000000000000000000"),
            (dict(seed=-1), "seed must be non-negative, got -1"),
        ],
    )
    def test_bad_values_raise_config_error(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            GVConfig(**kwargs)

    def test_good_values_build(self):
        GVConfig(iterations=1, inlier_threshold=1e-3, ratio=0.8)
        GVConfig(iterations=baselines.GV_MAX_ITERATIONS, seed=2**64)
        GVConfig(ratio=None)

    @pytest.mark.parametrize("threshold", [0.0, float("nan")])
    def test_ransac_homography_checks_its_threshold(self, threshold):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="inlier_threshold"):
            ransac_homography(pts, pts, inlier_threshold=threshold)
