"""tools/bench.py on canned perfbench/run.py output: the per-side quartiles,
win counts and verdicts it writes, the CPU seconds and page faults of each
run, the order and seeds of its runs, the sibling trees both sides run
from, the BLAS core it records, and its exit status when a run fails, prints
no result line or is not correct.  No perfbench subprocess runs here; the
resource accounting is checked on a stand-in run.py, and the BLAS core on a
stand-in package."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = {
    "workloads": [{"name": "train"}, {"name": "rerank"}],
    "run_seconds": 10,
    "command": ["python3", "perfbench/run.py"],
    "end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.24},
    ],
}


def canned(op_ms, pass_s=2.0, correct=True, checks=None, extra=""):
    """The stdout of one run.py call."""
    env = {"python": "3.11.7", "nproc": 2}
    report = {"metrics": {"train_loss": {"value": op_ms / 100, "unit": "nats"},
                          "query_ms_p50": {"value": op_ms, "unit": "ms"}, "pass_s": {"value": pass_s, "unit": "s"}},
              "checks": checks or {"train.steps": {"ok": True, "detail": 120}}}
    result = {"correct": correct, "attempted": 3, "failed": 0,
              "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"}, "pass_s": {"value": pass_s, "unit": "s"}}}
    return extra + "\n".join(json.dumps(x) for x in ({"environment": env}, {"report": report}, result)) + "\n"


def test_quartiles_interpolate_linearly_and_are_none_without_values():
    assert bench.quartiles([4, 1, 3, 2]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}
    assert bench.quartiles([]) == {"q1": None, "median": None, "q3": None}


def test_parse_output_skips_lines_that_are_not_json_objects():
    got = bench.parse_output(canned(20.0, extra="warming up\n[1, 2]\n"))
    assert set(got) == {"environment", "report", "result"}
    assert got["result"]["metrics"]["op_ms_p50"]["value"] == 20.0
    assert bench.parse_output("Traceback (most recent call last):\n") == {}


def usage(side, seed):
    """Canned resource use of one run: the change side spends less system
    time and takes fewer faults."""
    return {"user_s": 10.0 + seed, "sys_s": 0.3 + seed / 100 if side == "parent" else 0.1,
            "minflt": 120_000 + seed if side == "parent" else 30_000}


def _runs(parent_ms, change_ms, **kw):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_ms, change_ms)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"side": side, "pair": pair, "seed": pair + 1, "order": 0, "exit": 0,
                         "rusage": usage(side, pair + 1), **bench.parse_output(canned(value, **kw))})
    return runs


def test_summary_counts_wins_and_gives_quartiles_per_side():
    section = bench.summarize(_runs([20, 22, 21, 30], [19, 23, 18, 20]), SPEC)
    op = section["end_to_end"]["op_ms_p50"]
    assert op["parent"]["values"] == [20, 22, 21, 30]
    assert op["parent"]["median"] == 21.5 and op["change"]["median"] == 19.5
    assert (op["parent"]["q1"], op["parent"]["q3"]) == (20.75, 24.0)
    assert (op["change_wins"], op["pairs"], op["bound"]) == (3, 4, 0.24)
    assert op["verdict"] == "within bound" and op["median_worse_by"] == pytest.approx(-2 / 21.5)
    assert section["report"]["train_loss"]["change"]["values"] == [0.19, 0.23, 0.18, 0.2]
    assert set(section["report"]) == {"train_loss"}  # the other two repeat an end-to-end series
    assert section["failed_checks"] == []
    assert all(r["correct"] and r["problems"] == [] for r in section["runs"])


def test_summary_gives_cpu_seconds_and_faults_per_side():
    section = bench.summarize(_runs([20, 22, 21, 30], [19, 23, 18, 20]), SPEC)
    rusage = section["rusage"]
    assert set(rusage) == {"user_s", "sys_s", "minflt"}
    assert rusage["minflt"]["parent"]["values"] == [120_001, 120_002, 120_003, 120_004]
    assert rusage["minflt"]["parent"]["median"] == 120_002.5
    assert rusage["sys_s"]["change"] == {"values": [0.1] * 4, "q1": 0.1, "median": 0.1, "q3": 0.1}
    assert rusage["user_s"]["change"]["median"] == 12.5
    assert section["runs"][1]["rusage"] == usage("change", 1)


# A stand-in for perfbench/run.py: writes every page of `mib` MiB, then
# prints a result line.
STAND_IN = """
import json
mib = {mib}
block = bytearray(b"x") * (mib << 20)
print(json.dumps({{"correct": True, "metrics": {{}}}}))
"""


def test_each_run_records_its_own_cpu_seconds_and_faults(tmp_path):
    got = {}
    for mib in (64, 0):
        tree = tmp_path / f"tree{mib}"
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(STAND_IN.format(mib=mib))
        code, stdout, stderr, used = bench.run_perfbench(tree, "train", 1, 10)
        assert (code, bench.parse_output(stdout)["result"]["correct"]) == (0, True), stderr
        got[mib] = used
    pages = (64 << 20) // 4096
    assert got[64]["minflt"] > pages
    # the second run counts only its own faults, not the first run's
    assert got[0]["minflt"] < got[64]["minflt"] - pages // 2
    assert all(used["user_s"] > 0 and used["sys_s"] >= 0 for used in got.values())
    assert got[64]["user_s"] + got[64]["sys_s"] > got[0]["user_s"] + got[0]["sys_s"]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10, 10, 10, 10], [13, 13, 13, 13], "worse"),
        ([10, 10, 10, 10], [12, 12, 12, 12], "within bound"),
        ([10, 10, 10, 10], [9, 14, 12, 20], "unresolved"),
    ],
    ids=["worse", "within", "spread"],
)
def test_verdict_names_a_regression_beyond_the_bound_or_a_spread_too_wide(parent, change, verdict):
    section = bench.summarize(_runs(parent, change), SPEC)
    assert section["end_to_end"]["op_ms_p50"]["verdict"] == verdict


def test_failed_checks_are_listed_with_side_and_seed():
    checks = {"gate.global_max": {"ok": False, "detail": {"global": 0.8}}, "x": {"ok": True, "detail": None}}
    section = bench.summarize(_runs([10], [10], correct=False, checks=checks), SPEC)
    assert section["failed_checks"] == [
        {"side": side, "pair": 0, "seed": 1, "check": "gate.global_max", "detail": {"global": 0.8}}
        for side in ("parent", "change")
    ]
    assert [r["problems"] for r in section["runs"]] == [["not correct"]] * 2


# A stand-in rrt.cli whose blas_core names the core the environment asks
# for and the tree it was imported from.
FAKE_CLI = """
import os
from pathlib import Path

def blas_core():
    return f"{os.environ.get('OPENBLAS_CORETYPE')} in {Path(__file__).parents[2].name}"
"""


@pytest.fixture
def fake_trees(tmp_path, monkeypatch):
    """bench.main over canned runs in a working tree at tmp_path; returns
    the list of calls it made, with the tree each ran in last."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for sub in ("src/rrt", "perfbench"):
        (tmp_path / sub).mkdir(parents=True)
        (tmp_path / sub / "__pycache__").mkdir()
    (tmp_path / "src/rrt/__init__.py").write_text("")
    (tmp_path / "src/rrt/cli.py").write_text(FAKE_CLI)
    (tmp_path / "perfbench/run.py").write_text("")
    build = tmp_path / ".bench_build"
    parent_tree = build / ("f" * 40)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "BUILD", build)
    monkeypatch.setattr(bench, "extract_parent", lambda rev: ("f" * 40, parent_tree))
    monkeypatch.setattr(bench, "tree_digest", lambda tree: tree.name)
    calls = []
    outputs = {}

    def run(tree, workload, seed, seconds):
        side = "parent" if tree == parent_tree else "change"
        calls.append((workload, seed, side, seconds, tree))
        output = outputs.get((workload, seed, side), (0, canned(20.0 if side == "parent" else 18.0), ""))
        return (*output, usage(side, seed))

    monkeypatch.setattr(bench, "run_perfbench", run)
    return calls, outputs


def test_pairs_alternate_sides_with_one_seed_each(tmp_path, fake_trees):
    calls, _ = fake_trees
    out = tmp_path / "BENCH_x.json"
    assert bench.main(["--parent", "HEAD~1", "--pairs", "3", "--out", str(out)]) == 0
    assert [c[:4] for c in calls if c[0] == "train"] == [
        ("train", 1, "parent", 10), ("train", 1, "change", 10),
        ("train", 2, "change", 10), ("train", 2, "parent", 10),
        ("train", 3, "parent", 10), ("train", 3, "change", 10),
    ]
    written = json.loads(out.read_text())
    assert written["ok"] is True and written["failures"] == []
    assert written["parent"] == {"rev": "HEAD~1", "commit": "f" * 40, "tree_sha256": "f" * 40}
    assert written["change"] == {"tree": "working tree", "tree_sha256": "change"}
    assert written["environment"] == {"python": "3.11.7", "nproc": 2}
    op = written["workloads"]["train"]["end_to_end"]["op_ms_p50"]
    assert (op["parent"]["values"], op["change"]["values"], op["change_wins"]) == ([20.0] * 3, [18.0] * 3, 3)
    faults = written["workloads"]["train"]["rusage"]["minflt"]
    assert (faults["parent"]["values"], faults["change"]["values"]) == ([120_001, 120_002, 120_003], [30_000] * 3)


def test_every_workload_of_the_spec_runs_for_its_run_seconds(tmp_path, fake_trees):
    calls, _ = fake_trees
    assert bench.main(["--parent", "HEAD", "--pairs", "1", "--out", str(tmp_path / "b.json")]) == 0
    assert [(w, s) for w, _, s, _, _ in calls] == [("train", "parent"), ("train", "change"),
                                                ("rerank", "parent"), ("rerank", "change")]
    assert {c[3] for c in calls} == {SPEC["run_seconds"]}


def test_both_sides_run_from_sibling_trees_under_the_build_directory(tmp_path, fake_trees):
    calls, _ = fake_trees
    assert bench.main(["--parent", "HEAD", "--pairs", "1", "--out", str(tmp_path / "b.json")]) == 0
    trees = {side: tree for _, _, side, _, tree in calls}
    assert {tree.parent for tree in trees.values()} == {bench.BUILD}
    assert trees["parent"] != trees["change"]
    copied = sorted(str(p.relative_to(trees["change"])) for p in trees["change"].rglob("*"))
    assert copied == ["BENCHMARK.json", "perfbench", "perfbench/run.py", "src", "src/rrt", "src/rrt/__init__.py",
                      "src/rrt/cli.py"]
    assert (trees["change"] / "BENCHMARK.json").read_text() == json.dumps(SPEC)


@pytest.mark.parametrize(
    "output, problem",
    [
        ((1, canned(20.0), "boom"), "exit status 1"),
        ((0, "no json here\n", ""), "no result line"),
        ((0, canned(20.0, correct=False), ""), "not correct"),
        ((-9, "", "killed"), "exit status -9, no result line"),
    ],
    ids=["exit_1", "no_result", "not_correct", "killed"],
)
def test_a_failed_run_makes_the_command_exit_1_and_is_recorded(tmp_path, capsys, fake_trees, output, problem):
    _, outputs = fake_trees
    outputs[("rerank", 2, "change")] = output
    out = tmp_path / "b.json"
    assert bench.main(["--parent", "HEAD", "--pairs", "2", "--out", str(out)]) == 1
    written = json.loads(out.read_text())
    assert written["ok"] is False and len(written["failures"]) == 1
    assert written["failures"][0].startswith(f"rerank seed 2 change: {problem}")
    assert problem in capsys.readouterr().err
    runs = written["workloads"]["rerank"]["runs"]
    assert [r["problems"] for r in runs if r["problems"]] == [problem.split(", ")]
    assert written["workloads"]["train"]["end_to_end"]["op_ms_p50"]["change"]["values"] == [18.0, 18.0]



def test_the_blas_core_is_read_from_the_change_tree_under_the_runs_environment(tmp_path, fake_trees, monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    out = tmp_path / "b.json"
    assert bench.main(["--parent", "HEAD", "--pairs", "1", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["blas_core"] == "Haswell in change"
    assert written["environment"] == {"python": "3.11.7", "nproc": 2}
