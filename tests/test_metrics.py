"""Metric tests against hand-worked values and the brute-force oracle suite."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt.errors import DataFormatError
from rrt.metrics import (
    ablation_locals_sweep,
    build_ground_truth,
    config_digest,
    emit_report,
    evaluate_neighbors,
)
from rrt.retrieval import NeighborList

from helpers import make_record
from oracles import ap_at_k_brute, ap_brute, recall_at_k_brute


def nl(qid, ids):
    return NeighborList(query_id=qid, entries=[(g, 1.0 / (i + 1)) for i, g in enumerate(ids)])


def report(ranked, relevant, map_ks=(100,)):
    """evaluate_neighbors on the one ranking of query 0."""
    return evaluate_neighbors([nl(0, ranked)], {0: relevant}, map_ks=map_ks)


def ap(ranked, relevant):
    return report(ranked, relevant).per_query[0]["ap"]


def map_at(lists, gt, k):
    return evaluate_neighbors(lists, gt, map_ks=[k]).map_at[k]


def random_instance(seed, n_queries=3, gallery=12):
    rng = np.random.default_rng(seed)
    lists, gt = [], {}
    for q in range(n_queries):
        ranked = list(rng.permutation(gallery))
        n_rel = int(rng.integers(1, gallery))
        rel = set(int(x) for x in rng.choice(gallery, size=n_rel, replace=False))
        lists.append(nl(q, [int(x) for x in ranked]))
        gt[q] = rel
    return lists, gt


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert ap([1, 2, 3, 9, 8], {1, 2, 3}) == 1.0

    def test_single_relevant_second(self):
        assert ap([5, 7], {7}) == 0.5

    def test_worked_five_sixths(self):
        got = ap(["r1", "n", "r2"], {"r1", "r2"})
        assert abs(got - 5 / 6) < 1e-12
        assert abs(got - ap_brute(["r1", "n", "r2"], {"r1", "r2"})) < 1e-15

    def test_missing_relevant_contributes_zero(self):
        assert ap([1], {1, 99}) == 0.5

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            ap([1, 2], set())

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        gallery = int(rng.integers(1, 15))
        ranked = list(rng.permutation(gallery))
        n_rel = int(rng.integers(1, gallery + 1))
        rel = set(int(x) for x in rng.choice(gallery, size=n_rel, replace=False))
        got = ap(ranked, rel)
        assert abs(got - ap_brute(ranked, rel)) < 1e-12
        assert 0.0 <= got <= 1.0
        top = set(ranked[: len(rel)])
        assert (got == 1.0) == (top == rel)


class TestMapAtK:
    def test_k_at_gallery_size_equals_mean_ap(self):
        lists, gt = random_instance(0)
        full = np.mean([ap_brute(l.gallery_ids(), gt[l.query_id]) for l in lists])
        assert abs(map_at(lists, gt, k=12) - full) < 1e-12

    def test_k1_is_top1_accuracy(self):
        lists, gt = random_instance(1)
        top1 = np.mean([1.0 if l.gallery_ids()[0] in gt[l.query_id] else 0.0 for l in lists])
        assert abs(map_at(lists, gt, k=1) - top1) < 1e-12

    def test_three_query_toy_vs_bruteforce(self):
        lists, gt = random_instance(2)
        for k in (1, 3, 7, 12):
            brute = np.mean([ap_at_k_brute(l.gallery_ids(), gt[l.query_id], k) for l in lists])
            assert abs(map_at(lists, gt, k) - brute) < 1e-12

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_in_k(self, seed):
        # With the min(|R|, K) normalizer the truncated metric is only
        # guaranteed monotone once K reaches every relevant-set size; the
        # unnormalized precision-at-hit sum is monotone everywhere.
        lists, gt = random_instance(seed)
        saturation = max(len(r) for r in gt.values())
        vals = [map_at(lists, gt, k) for k in range(saturation, 13)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        for l in lists:
            rel = gt[l.query_id]
            sums = [
                report(l.gallery_ids(), rel, map_ks=[k]).map_at[k] * min(len(rel), k)
                for k in range(1, 13)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))


class TestRecallAtK:
    def test_rank_one_everywhere(self):
        lists = [nl(0, [5, 1]), nl(1, [7, 2])]
        gt = {0: {5}, 1: {7}}
        assert evaluate_neighbors(lists, gt, recall_ks=[1, 10]).recall_at == {1: 1.0, 10: 1.0}

    def test_rank_two(self):
        lists = [nl(0, [3, 5])]
        gt = {0: {5}}
        assert evaluate_neighbors(lists, gt, recall_ks=[1, 10]).recall_at == {1: 0.0, 10: 1.0}

    def test_random_vs_recount(self):
        lists, gt = random_instance(3)
        got = evaluate_neighbors(lists, gt, recall_ks=[1, 2, 5, 12]).recall_at
        for k, v in got.items():
            brute = np.mean(
                [recall_at_k_brute(l.gallery_ids(), gt[l.query_id], k) for l in lists]
            )
            assert abs(v - brute) < 1e-12


class TestEvaluateAndEmit:
    def _report(self):
        lists, gt = random_instance(4)
        return evaluate_neighbors(lists, gt, map_ks=[1, 5], recall_ks=[1, 10], method="rrt", digest="abc")

    def test_map_invariant_to_query_order(self):
        lists, gt = random_instance(5)
        fwd = evaluate_neighbors(lists, gt).map
        rev = evaluate_neighbors(list(reversed(lists)), gt).map
        assert fwd == rev

    def test_excluded_queries_counted_not_zeroed(self):
        lists = [nl(0, [1, 2]), nl(1, [2, 1])]
        gt = {0: {1}, 1: set()}
        rep = evaluate_neighbors(lists, gt)
        assert rep.excluded_queries == 1
        assert rep.map == 1.0
        assert len(rep.per_query) == 1

    def test_json_round_trip(self, tmp_path):
        rep = self._report()
        p = tmp_path / "r.json"
        emit_report(rep, p, "json")
        loaded = json.loads(p.read_text())
        assert loaded == rep.to_dict()

    def test_csv_column_order(self, tmp_path):
        rep = self._report()
        p = tmp_path / "r.csv"
        emit_report(rep, p, "csv")
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "query_id,ap,first_rank"
        assert lines[-1].startswith("aggregate,")
        assert len(lines) == 1 + len(rep.per_query) + 1

    def test_first_relevant_rank(self):
        assert report([4, 2, 9], {9}).per_query[0]["first_rank"] == 3
        assert report([4, 2], {9}).per_query[0]["first_rank"] is None

    def test_digest_changes_with_any_knob(self):
        base = {"k": 100, "alpha": 0.3, "seed": 1}
        d0 = config_digest(base)
        assert d0 == config_digest(dict(base))  # stable
        for key, val in (("k", 200), ("alpha", 0.31), ("seed", 2), ("extra", True)):
            tweaked = dict(base)
            tweaked[key] = val
            assert config_digest(tweaked) != d0


class TestGroundTruth:
    def test_same_label_excluding_self(self):
        rng = np.random.default_rng(6)
        queries = [make_record(rng, 0, 7, 4, 4, 0, 3)]
        gallery = [make_record(rng, i, 7 if i < 3 else 8, 4, 4, 0, 3) for i in range(1, 6)]
        gt = build_ground_truth(queries, gallery)
        assert gt[0] == {1, 2}


class TestAblationSweep:
    def _scorer_factory(self, queries, gallery):
        # Counts exact shared local vectors; depends on the truncated records,
        # which is what the sweep varies.
        qmap = {r.id: r for r in queries}
        gmap = {r.id: r for r in gallery}

        def scorer(qid, gids):
            qset = {v.tobytes() for v in qmap[qid].vecs}
            return [
                float(len(qset & {v.tobytes() for v in gmap[g].vecs}))
                for g in gids
            ]

        return scorer

    def _data(self):
        rng = np.random.default_rng(7)
        gallery = [make_record(rng, i, i % 2, 4, 8, 6, 3) for i in range(10, 18)]
        queries = []
        for qid, src in ((0, gallery[0]), (1, gallery[1])):
            q = make_record(rng, qid, src.label, 4, 8, 0, 3)
            # copies the planted evidence
            q = replace(q, vecs=src.vecs, uv=src.uv, scale_idx=src.scale_idx)
            queries.append(q)
        return queries, gallery

    def test_full_count_matches_untruncated_eval(self):
        queries, gallery = self._data()
        rows = ablation_locals_sweep(queries, gallery, self._scorer_factory, [6], k=8)
        rows2 = ablation_locals_sweep(queries, gallery, self._scorer_factory, [99], k=8)
        assert rows[0]["map"] == rows2[0]["map"]

    def test_zero_count_runs_and_reports(self):
        queries, gallery = self._data()
        rows = ablation_locals_sweep(queries, gallery, self._scorer_factory, [0, 6], k=8)
        assert rows[0]["count"] == 0
        assert rows[0]["mean_locals"] == 0.0
        assert rows[0]["mean_distinct_cells"] == 0.0
        assert 0.0 <= rows[0]["map"] <= 1.0
        assert rows[1]["mean_locals"] == 6.0

    def test_dedup_stats_match_direct_recount(self):
        from rrt.data import grid_dedup_count

        queries, gallery = self._data()
        rows = ablation_locals_sweep(queries, gallery, self._scorer_factory, [3], k=8)
        recs = [r.truncated(3) for r in queries + gallery]
        expect = np.mean([grid_dedup_count(r, 16) for r in recs])
        assert rows[0]["mean_distinct_cells"] == pytest.approx(float(expect), abs=1e-12)

    def test_no_relevant_query_rejected_before_scoring(self):
        queries, gallery = self._data()
        gallery = [replace(r, label=7) for r in gallery]

        def factory(tq, tg):
            raise AssertionError("scored a sweep without a relevant gallery item")

        with pytest.raises(DataFormatError, match="no query has a relevant gallery item"):
            ablation_locals_sweep(queries, gallery, factory, [0, 6], k=8)
