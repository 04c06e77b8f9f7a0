"""Retrieval engine tests: exact search vs a full-sort oracle, the rerank
contract, query-expansion composition, persistence."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrt.baselines import alpha_qe_expand
from rrt.data import l2_normalize
from rrt.errors import DataFormatError
from rrt.model import init_params
from rrt.retrieval import (
    GlobalIndex,
    NeighborList,
    aqe_requery,
    aqe_then_rerank,
    build_index,
    knn_search,
    load_index,
    read_neighbors,
    rerank_topk,
    save_index,
    write_neighbors,
)

from helpers import make_record, tiny_config
from oracles import knn_brute, stable_rerank_brute


def unit_index(seed, n, dim):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return GlobalIndex(ids=np.arange(n, dtype=np.int64), vectors=vecs.astype(np.float32))


class TestKnnSearch:
    def test_exact_copy_ranks_first(self):
        index = unit_index(0, 10, 16)
        q = index.vectors[3].copy()
        nl = knn_search(index, q, k=5, query_id=99)
        gid, score = nl.entries[0]
        assert gid == 3
        assert abs(score - 1.0) < 1e-6

    def test_k1_picks_higher_score(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        index = GlobalIndex(ids=np.array([7, 8]), vectors=vecs)
        q = l2_normalize(np.array([0.9, 0.1], dtype=np.float32))
        nl = knn_search(index, q, k=1, query_id=-1)
        assert nl.entries[0][0] == 7

    def test_matches_full_sort_oracle(self):
        index = unit_index(1, 500, 24)
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.standard_normal(24)
            q /= np.linalg.norm(q)
            got = knn_search(index, q.astype(np.float32), k=20, query_id=-1).entries
            want = knn_brute(index.ids, index.vectors, q, 20)
            assert [g for g, _ in got] == [g for g, _ in want]
            np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-6)

    def test_self_match_excluded(self):
        index = unit_index(3, 8, 8)
        nl = knn_search(index, index.vectors[2], k=8, query_id=2)
        assert 2 not in nl.gallery_ids()
        assert len(nl.entries) == 7

    def test_k_beyond_gallery_flags_truncated(self):
        index = unit_index(4, 5, 8)
        nl = knn_search(index, index.vectors[0], k=50, query_id=-1)
        assert nl.truncated
        assert len(nl.entries) == 5

    def test_ties_break_by_ascending_id(self):
        vecs = np.stack([np.array([1.0, 0.0], dtype=np.float32)] * 3)
        index = GlobalIndex(ids=np.array([5, 1, 9]), vectors=vecs)
        nl = knn_search(index, np.array([1.0, 0.0], dtype=np.float32), k=3, query_id=-1)
        assert nl.gallery_ids() == [1, 5, 9]


class TestRerankTopK:
    def _nl(self, scores):
        return NeighborList(
            query_id=0, entries=[(i, s) for i, s in enumerate(scores)], method="global"
        )

    def test_k0_is_identity(self):
        nl = self._nl([0.9, 0.8, 0.7])
        out = rerank_topk(nl, lambda q, ids: [0.0] * len(ids), k=0, method="rrt")
        assert out.entries == nl.entries
        assert out.method == "rrt"

    def test_hand_example(self):
        nl = self._nl([0.9, 0.8, 0.7, 0.6, 0.5])
        prefix_scores = {0: 0.1, 1: 0.9, 2: 0.5}
        out = rerank_topk(nl, lambda q, ids: [prefix_scores[g] for g in ids], k=3)
        assert out.gallery_ids() == [1, 2, 0, 3, 4]
        assert out.entries[3:] == nl.entries[3:]

    def test_oracle_scorer_groups_with_stable_order(self):
        nl = self._nl([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        positives = {1, 3, 4}
        scorer = lambda q, ids: [1.0 if g in positives else 0.0 for g in ids]
        out = rerank_topk(nl, scorer, k=6)
        assert out.gallery_ids() == [1, 3, 4, 0, 2, 5]

    def test_membership_and_suffix_preserved(self):
        rng = np.random.default_rng(5)
        nl = self._nl(sorted(rng.uniform(0, 1, 12), reverse=True))
        scorer = lambda q, ids: list(rng.uniform(0, 1, len(ids)))
        out = rerank_topk(nl, scorer, k=7)
        assert sorted(out.gallery_ids()[:7]) == sorted(nl.gallery_ids()[:7])
        assert out.entries[7:] == nl.entries[7:]

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 20),
        k=st.integers(0, 25),
        dup=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_stable_sort_oracle(self, seed, n, k, dup):
        rng = np.random.default_rng(seed)
        entries = [(i, float(s)) for i, s in enumerate(np.sort(rng.uniform(0, 1, n))[::-1])]
        nl = NeighborList(query_id=0, entries=entries)
        pool = [0.0, 0.25, 0.5, 1.0] if dup else None  # force ties sometimes
        values = (
            [float(rng.choice(pool)) for _ in range(n)]
            if dup
            else [float(s) for s in rng.uniform(0, 1, n)]
        )
        scorer = lambda q, ids, v=values: [v[g] for g in ids]
        got = rerank_topk(nl, scorer, k).entries
        want = stable_rerank_brute(entries, values, k)
        assert got == want


class TestAQE:
    def test_nqe_zero_equals_global_ranking(self):
        index = unit_index(6, 30, 16)
        q = index.vectors[0] * 1.0
        base = knn_search(index, q, k=30, query_id=-1)
        out = aqe_requery(index, q, -1, nqe=0, alpha=0.3)
        assert out.gallery_ids() == base.gallery_ids()
        assert out.method == "aqe"

    def test_k0_composition_is_pure_aqe(self):
        index = unit_index(7, 20, 8)
        q = index.vectors[1] * 1.0
        aqe = aqe_requery(index, q, -1, nqe=2, alpha=0.3)
        combo = aqe_then_rerank(index, q, -1, lambda qq, ids: [0.0] * len(ids), nqe=2, alpha=0.3, k=0)
        assert combo.entries == aqe.entries
        assert combo.method == "aqe+rrt"

    def test_weights_come_from_the_index_not_the_list_scores(self):
        index = unit_index(9, 30, 16)
        q = index.vectors[2] * 1.0
        base = knn_search(index, q, k=30, query_id=-1)
        want = aqe_requery(index, q, -1, nqe=3, alpha=3.0, base=base)
        rescored = replace(base, entries=[(g, 0.01) for g in base.gallery_ids()])
        assert aqe_requery(index, q, -1, nqe=3, alpha=3.0, base=rescored).entries == want.entries
        # On a raw global list the index cosines are the list's own scores,
        # bit for bit, so the output is the expansion by those scores.
        top = base.entries[:3]
        by_scores = alpha_qe_expand(q, index.vectors[[g for g, _ in top]], np.array([s for _, s in top]), 3.0)
        assert knn_search(index, by_scores, k=30, query_id=-1).entries == want.entries

    def test_expansion_changes_ranking_sanely(self):
        index = unit_index(8, 40, 12)
        rng = np.random.default_rng(8)
        q = rng.standard_normal(12)
        q /= np.linalg.norm(q)
        out = aqe_requery(index, q.astype(np.float32), -1, nqe=2, alpha=0.3)
        assert len(out.entries) == 40
        scores = [s for _, s in out.entries]
        assert scores == sorted(scores, reverse=True)


class TestPersistence:
    def test_index_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        recs = [make_record(rng, i, i % 3, 8, 16, 2, 3) for i in range(6)]
        index = build_index(recs)
        p = tmp_path / "g.rrti"
        save_index(index, p)
        loaded = load_index(p)
        assert loaded.projected == index.projected
        np.testing.assert_array_equal(loaded.ids, index.ids)
        assert loaded.vectors.tobytes() == index.vectors.tobytes()

    def test_projected_index_round_trip_gives_writable_copies(self, tmp_path):
        cfg = tiny_config()
        rng = np.random.default_rng(11)
        recs = [make_record(rng, i, 0, cfg.d, cfg.d_g_raw, 0, cfg.n_scales) for i in range(4)]
        index = build_index(recs, params=init_params(cfg, seed=11))
        p = tmp_path / "g.rrti"
        save_index(index, p)
        loaded = load_index(p)
        assert loaded.projected
        assert (loaded.ids.dtype, loaded.ids.tolist()) == (np.int64, index.ids.tolist())
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        assert loaded.ids.flags.writeable and loaded.vectors.flags.writeable

    @pytest.mark.parametrize("bad_id", [2**32 + 5, -1])
    def test_ids_outside_u32_rejected_on_save(self, tmp_path, bad_id):
        index = GlobalIndex(ids=np.array([0, bad_id], dtype=np.int64), vectors=np.eye(2, dtype=np.float32))
        p = tmp_path / "g.rrti"
        with pytest.raises(DataFormatError, match=str(bad_id)):
            save_index(index, p)
        assert not p.exists()

    def test_zero_global_names_its_record(self):
        rng = np.random.default_rng(10)
        recs = [make_record(rng, i, 0, 8, 16, 2, 3) for i in range(3)]
        recs[2] = replace(recs[2], global_desc=np.zeros_like(recs[2].global_desc))
        with pytest.raises(DataFormatError, match="record 2"):
            build_index(recs)

    def test_bad_index_magic(self, tmp_path):
        p = tmp_path / "g.rrti"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataFormatError):
            load_index(p)

    def test_neighbors_jsonl_round_trip(self, tmp_path):
        lists = [
            NeighborList(query_id=3, entries=[(1, 0.875), (2, 0.25)], method="rrt"),
            NeighborList(query_id=4, entries=[], method="global"),
            NeighborList(query_id=5, entries=[(1, 0.5)], method="global", truncated=True),
        ]
        p = tmp_path / "n.jsonl"
        write_neighbors(p, lists)
        loaded = read_neighbors(p)
        assert loaded == lists

    @given(
        query_id=st.integers(0, 2**32 - 1),
        entries=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.floats(allow_nan=False, allow_infinity=False, width=32)),
            max_size=6,
            unique_by=lambda e: e[0],
        ),
        truncated=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_written_file_reads_back(self, tmp_path_factory, query_id, entries, truncated):
        p = tmp_path_factory.mktemp("n") / "n.jsonl"
        lists = [NeighborList(np.int64(query_id), [(np.uint32(g), np.float32(s)) for g, s in entries]),
                 NeighborList(query_id ^ 1, entries, method="rrt", truncated=truncated)]
        write_neighbors(p, lists)
        assert read_neighbors(p) == lists

    def test_truncated_flag_defaults_false_and_must_be_boolean(self, tmp_path):
        p = tmp_path / "n.jsonl"
        p.write_text('{"query": 1, "method": "global", "neighbors": [[5, 0.9]]}\n')
        assert read_neighbors(p)[0].truncated is False
        p.write_text('{"query": 1, "truncated": "false", "neighbors": [[5, 0.9]]}\n')
        with pytest.raises(DataFormatError, match="line 1: truncated must be true or false"):
            read_neighbors(p)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"query": 2.7, "neighbors": [[1, 0.5]]}', "query id must be a JSON integer, got 2.7"),
            ('{"query": "2", "neighbors": [[1, 0.5]]}', "query id must be a JSON integer, got '2'"),
            ('{"query": true, "neighbors": [[1, 0.5]]}', "query id must be a JSON integer, got True"),
            ('{"query": 2, "neighbors": [[1.9, 0.5]]}', "gallery id must be a JSON integer, got 1.9"),
            ('{"query": 2, "neighbors": [["3", 0.4]]}', "gallery id must be a JSON integer, got '3'"),
            ('{"query": 2, "neighbors": [[false, 0.1]]}', "gallery id must be a JSON integer, got False"),
            ('{"query": 2, "neighbors": [[3, "0.4"]]}', "score must be a JSON number, got '0.4'"),
            ('{"query": 2, "neighbors": [[3, true]]}', "score must be a JSON number, got True"),
            ('{"query": 2, "neighbors": [[3, null]]}', "score must be a JSON number, got None"),
            ('{"query": 2, "neighbors": {"3": 0.5}}', "neighbors must be a JSON array"),
            ('{"query": 2, "neighbors": [{"3": 0.5}]}', "a neighbor must be a JSON array [id, score]"),
            ('{"query": 2, "neighbors": [[3, 0.5, 1]]}', "too many values to unpack"),
            ('{"query": 2, "neighbors": [], "method": 7}', "method must be a JSON string, got 7"),
            ('"query"', "a line must be a JSON object, got 'query'"),
        ],
        ids=["query_float", "query_string", "query_bool", "id_float", "id_string", "id_bool",
             "score_string", "score_bool", "score_null", "neighbors_object", "neighbor_object",
             "neighbor_triple", "method_number", "line_string"],
    )
    def test_ids_and_scores_are_not_coerced(self, tmp_path, line, problem):
        p = tmp_path / "n.jsonl"
        p.write_text('{"query": 1, "neighbors": [[5, 0.9]]}\n' + line + "\n")
        with pytest.raises(DataFormatError, match=f"line 2: {re.escape(problem)}"):
            read_neighbors(p)

    def test_integer_score_reads_as_float(self, tmp_path):
        p = tmp_path / "n.jsonl"
        p.write_text('{"query": 1, "neighbors": [[5, 1], [6, 0]]}\n')
        assert read_neighbors(p)[0].entries == [(5, 1.0), (6, 0.0)]

    def test_non_object_line_rejected(self, tmp_path):
        p = tmp_path / "n.jsonl"
        p.write_text("[1, 2]\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_neighbors(p)

    def test_scores_carry_enough_digits(self, tmp_path):
        score = float(np.float32(1.0) / np.float32(3.0))
        p = tmp_path / "n.jsonl"
        write_neighbors(p, [NeighborList(query_id=0, entries=[(1, score)])])
        loaded = read_neighbors(p)
        assert loaded[0].entries[0][1] == score  # exact round trip

    def test_nan_score_rejected_naming_query(self, tmp_path):
        p = tmp_path / "n.jsonl"
        lists = [
            NeighborList(query_id=1, entries=[(2, 0.5)]),
            NeighborList(query_id=7, entries=[(2, float("nan"))]),
        ]
        with pytest.raises(DataFormatError, match="query 7"):
            write_neighbors(p, lists)
        assert not p.exists()

    def test_query_listed_twice_rejected_before_writing(self, tmp_path):
        # read_neighbors refuses such a file, so it must never be written.
        p = tmp_path / "n.jsonl"
        p.write_text("kept\n")
        lists = [
            NeighborList(query_id=7, entries=[(2, 0.5)]),
            NeighborList(query_id=3, entries=[(2, 0.25)]),
            NeighborList(query_id=np.int64(7), entries=[(4, 0.125)], method="rrt"),
        ]
        with pytest.raises(DataFormatError, match="query 7: listed twice"):
            write_neighbors(p, lists)
        assert p.read_text() == "kept\n"

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "n.jsonl"
        p.write_text('{"query": 1, "method": "global", "neighbors": [[1, 0.5]]}\n{"nope": 1}\n')
        with pytest.raises(DataFormatError, match="line 2"):
            read_neighbors(p)

    @pytest.mark.parametrize(
        "neighbors, problem",
        [
            ("[[5, 0.9], [5, 0.8]]", "gallery id 5 listed twice"),
            ("[[5, 0.9], [7, NaN]]", "non-finite score for gallery id 7"),
            ("[[5, Infinity]]", "non-finite score for gallery id 5"),
        ],
    )
    def test_corrupt_list_rejected_naming_line(self, tmp_path, neighbors, problem):
        p = tmp_path / "n.jsonl"
        p.write_text(
            '{"query": 1, "neighbors": [[5, 0.9]]}\n'
            f'{{"query": 2, "neighbors": {neighbors}}}\n'
        )
        with pytest.raises(DataFormatError, match=f"line 2: {problem}"):
            read_neighbors(p)

    @pytest.mark.parametrize(
        "line, problem",
        [
            (b'{"query": 2, "neighbors": [[3, 1' + b"0" * 400 + b']]}', "int too large to convert to float"),
            (b'{"query": 2, "neighbors": ' + b"[" * 100_000, "maximum recursion depth exceeded"),
            (b'{"query": 2, "neighbors": [[3, 0.5]], "method": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["score_past_float_range", "deep_nesting", "not_utf8"],
    )
    def test_line_the_parsers_refuse_rejected_naming_it(self, tmp_path, line, problem):
        p = tmp_path / "n.jsonl"
        p.write_bytes(b'{"query": 1, "neighbors": [[5, 0.9]]}\n' + line + b"\n")
        with pytest.raises(DataFormatError, match=f"line 2: {re.escape(problem)}"):
            read_neighbors(p)

    def test_query_on_a_second_line_rejected_naming_both(self, tmp_path):
        # Read as two lists, the query would count twice in every average.
        p = tmp_path / "n.jsonl"
        p.write_text(
            '{"query": 1, "neighbors": [[5, 0.9]]}\n'
            '{"query": 2, "neighbors": [[5, 0.9]]}\n'
            '{"query": 1, "neighbors": [[6, 0.8]]}\n'
        )
        with pytest.raises(DataFormatError, match="line 3: query id 1 already on line 1"):
            read_neighbors(p)


# Any JSON value: every leaf kind the json module reads, including NaN and
# Infinity literals and integers past float range, nested in arrays and objects.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
GOOD_LINE = st.fixed_dictionaries(
    {
        "query": st.integers(0, 20),
        "neighbors": st.lists(
            st.tuples(st.integers(0, 9), st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**300), 10**300)).map(list),
            max_size=4,
            unique_by=lambda e: e[0],
        ),
    },
    optional={"method": st.text(max_size=4), "truncated": st.booleans()},
)


@st.composite
def json_lines(draw):
    """A line's object: one a writer could have written, the same with one
    field set to any JSON value or dropped, or with any JSON value among its
    neighbors, or any JSON value at all."""
    obj = draw(GOOD_LINE)
    kind = draw(st.sampled_from(["good", "field", "drop", "neighbor", "any"]))
    if kind == "field":
        obj[draw(st.sampled_from(["query", "neighbors", "method", "truncated", "extra"]))] = draw(JSON)
    elif kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "neighbor":
        entry = draw(st.lists(st.integers(0, 9) | JSON, min_size=2, max_size=2) | JSON)
        obj["neighbors"].insert(draw(st.integers(0, len(obj["neighbors"]))), entry)
    elif kind == "any":
        obj = draw(JSON)
    return obj


def expected_list(obj):
    """The list a line holding obj reads as, or None where it must be refused:
    an object with a JSON-integer query, an array of [integer id, number]
    pairs with distinct ids and scores that are finite as floats, and a
    string method and boolean truncated where given."""
    if type(obj) is not dict or type(obj.get("query")) is not int or type(obj.get("neighbors")) is not list:
        return None
    method, truncated = obj.get("method", "global"), obj.get("truncated", False)
    if type(method) is not str or type(truncated) is not bool:
        return None
    entries = []
    for e in obj["neighbors"]:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) not in (int, float):
            return None
        try:
            score = float(e[1])
        except OverflowError:  # an integer past float range
            return None
        if e[0] in [g for g, _ in entries] or not math.isfinite(score):
            return None
        entries.append((e[0], score))
    return NeighborList(obj["query"], entries, method, truncated)


@given(objs=st.lists(json_lines(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_any_json_line_reads_back_or_raises_data_format_error(tmp_path_factory, objs):
    # A file reads as the lists its lines hold, which write_neighbors writes
    # back as a file that reads the same, or raises DataFormatError: no other
    # exception, whatever JSON each field holds.
    p = tmp_path_factory.mktemp("n") / "n.jsonl"
    p.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    want = [expected_list(obj) for obj in objs]
    if None in want or len({nl.query_id for nl in want}) < len(want):
        with pytest.raises(DataFormatError):
            read_neighbors(p)
        return
    assert read_neighbors(p) == want
    write_neighbors(p, want)
    assert read_neighbors(p) == want
