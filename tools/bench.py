"""Parent-versus-change benchmark pairs, written to one BENCH JSON file.

Run from the repository root:

    python3 tools/bench.py --parent HEAD~1 --pairs 10 --out BENCH_label.json

Run with ``--parent HEAD`` from a clean working tree, it makes an A/A run:
both sides are the same code, so the win counts and spreads it records show
what the host's noise and the pairing alone do.

The parent commit is extracted with ``git archive`` under ``.bench_build/``,
and the working tree's ``src/``, ``perfbench/`` and ``BENCHMARK.json`` are
copied next to it, so both sides run from fresh sibling trees at the same
depth, neither with a bytecode cache at the start.  Each tree's own
``perfbench/run.py`` runs as a subprocess, so nothing under ``perfbench/``
is needed beyond what both trees already have.  Every workload of
BENCHMARK.json runs for its ``run_seconds``.  Pair i of a workload runs both
sides on seed i + 1, the parent first on even pairs and the change first on
odd ones.

The file holds, for each workload and each end-to-end metric of
BENCHMARK.json: every value per side, their q1, median and q3, the number of
pairs the change won, the metric's bound, and a verdict.  Beside them, under
``rusage``, the same per-side statistics of what each whole run.py process
cost: user and system CPU seconds and minor page faults (the
RUSAGE_CHILDREN delta around it).  It also holds every ``report`` metric per
side that does not repeat an end-to-end series value for value, every failed
check, each run's exit status and resource use, the environment line of the
first run, and beside it ``blas_core``: the OpenBLAS core whose kernels run
(``rrt.cli.blas_core``, null where the library does not report one), read
once by a child process with the runs' environment and the change tree's
``src/``.  Both sides run under that one environment, so one reading covers
every pair.  The command exits 1 when any run exits nonzero,
prints no result line, or is not ``"correct": true``; the file is written
either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")
RUSAGE = ("user_s", "sys_s", "minflt")


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 (numpy's default, linear percentiles)."""
    if not values:
        return {"q1": None, "median": None, "q3": None}
    return dict(zip(("q1", "median", "q3"), np.percentile(values, [25, 50, 75]).tolist()))


def parse_output(stdout: str) -> dict:
    """The environment, report and result objects of run.py's JSON lines;
    a missing line is absent from the dict."""
    out = {}
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        if "environment" in obj:
            out["environment"] = obj["environment"]
        elif "report" in obj:
            out["report"] = obj["report"]
        elif "correct" in obj:
            out["result"] = obj
    return out


def problems(run: dict) -> list[str]:
    """Why a run does not count: nonzero exit, no result line, not correct."""
    found = []
    if run["exit"] != 0:
        found.append(f"exit status {run['exit']}")
    if "result" not in run:
        found.append("no result line")
    elif run["result"].get("correct") is not True:
        found.append("not correct")
    return found


def _by_pair(runs: list[dict], side: str, section: str, name: str) -> dict[int, float]:
    """pair -> the metric's value in that pair's run of a side, in pair
    order; a run that lacks the metric is left out."""
    out = {}
    for run in runs:
        metrics = (run.get(section) or {}).get("metrics", {})
        if run["side"] == side and name in metrics:
            out[run["pair"]] = metrics[name]["value"]
    return out


def _stats(values: list[float]) -> dict:
    return {"values": values, **quartiles(values)}


def _side_stats(runs: list[dict], side: str, section: str, name: str) -> dict:
    return _stats(list(_by_pair(runs, side, section, name).values()))


def _verdict(stats: dict, better: str, bound: float) -> tuple[float | None, str]:
    """(relative change of the median, signed so that positive is worse;
    verdict).  A metric whose interquartile range exceeds its bound on
    either side is unresolved: the runs spread too widely to tell."""
    p, c = stats["parent"], stats["change"]
    if p["median"] in (None, 0) or c["median"] is None:
        return None, "unresolved"
    worse = (c["median"] - p["median"]) / abs(p["median"])
    worse = worse if better == "lower" else -worse
    if any(s["median"] and (s["q3"] - s["q1"]) / abs(s["median"]) > bound for s in (p, c)):
        return worse, "unresolved"
    return worse, "worse" if worse > bound else "within bound"


def summarize(runs: list[dict], spec: dict) -> dict:
    """The BENCH section of one workload from its runs."""
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        stats: dict = {"unit": metric["unit"], "better": better, "bound": metric["bound"]}
        stats.update({side: _side_stats(runs, side, "result", name) for side in SIDES})
        parent, change = (_by_pair(runs, side, "result", name) for side in SIDES)
        sign = 1 if better == "lower" else -1
        stats["change_wins"] = sum(1 for pair, v in change.items() if pair in parent and sign * (v - parent[pair]) < 0)
        stats["pairs"] = len({r["pair"] for r in runs})
        stats["median_worse_by"], stats["verdict"] = _verdict(stats, better, metric["bound"])
        end_to_end[name] = stats
    rusage = {
        name: {side: _stats([r["rusage"][name] for r in runs if r["side"] == side]) for side in SIDES}
        for name in RUSAGE
    }
    report = {}
    for run in runs:
        for name, m in (run.get("report") or {}).get("metrics", {}).items():
            report.setdefault(name, {"unit": m.get("unit")})
    for name, stats in report.items():
        stats.update({side: _side_stats(runs, side, "report", name) for side in SIDES})
    repeated = [[stats[side]["values"] for side in SIDES] for stats in end_to_end.values()]
    report = {name: stats for name, stats in report.items()
              if [stats[side]["values"] for side in SIDES] not in repeated}
    failed_checks = [
        {"side": r["side"], "pair": r["pair"], "seed": r["seed"], "check": name, "detail": c.get("detail")}
        for r in runs
        for name, c in (r.get("report") or {}).get("checks", {}).items()
        if not c.get("ok")
    ]
    return {
        "end_to_end": end_to_end,
        "rusage": rusage,
        "report": report,
        "failed_checks": failed_checks,
        "runs": [
            {k: r[k] for k in ("side", "pair", "seed", "order", "exit", "rusage")}
            | {"correct": (r.get("result") or {}).get("correct"), "problems": problems(r)}
            for r in runs
        ],
    }


def tree_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of the tree's src/ and perfbench/
    sources: what a benchmark run executes."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((tree / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def extract_parent(rev: str) -> tuple[str, Path]:
    """(commit sha, tree) of rev, freshly extracted with git archive."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tree = BUILD / sha
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return sha, tree


def copy_change() -> Path:
    """The working tree's src/, perfbench/ and BENCHMARK.json, copied
    without __pycache__ to a fresh tree beside the parent's."""
    tree = BUILD / "change"
    shutil.rmtree(tree, ignore_errors=True)
    for sub in ("src", "perfbench"):
        shutil.copytree(ROOT / sub, tree / sub, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree)
    return tree


def blas_core(tree: Path) -> str | None:
    """The OpenBLAS core the tree's package reports (rrt.cli.blas_core) in a
    child process with this process's environment and the tree's src/
    first on its path."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    code = "import json; from rrt.cli import blas_core; print(json.dumps(blas_core()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, str, str, dict]:
    """(exit status, stdout, stderr, rusage) of the tree's own
    perfbench/run.py, untraced: the end-to-end metrics.  rusage holds the
    user and system CPU seconds and the minor page faults of that process,
    the RUSAGE_CHILDREN delta around it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600 + 30 * seconds)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = -1, exc.stdout or "", f"timed out after {exc.timeout} s"
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {
        "user_s": after.ru_utime - before.ru_utime,
        "sys_s": after.ru_stime - before.ru_stime,
        "minflt": after.ru_minflt - before.ru_minflt,
    }
    return code, stdout, stderr, usage


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision the working tree is compared against")
    p.add_argument("--pairs", type=int, required=True, help="parent/change run pairs per workload")
    p.add_argument("--out", required=True, help="BENCH JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sha, parent_tree = extract_parent(args.parent)
    trees = {"parent": parent_tree, "change": copy_change()}
    bench: dict = {
        "parent": {"rev": args.parent, "commit": sha, "tree_sha256": tree_digest(parent_tree)},
        "change": {"tree": "working tree", "tree_sha256": tree_digest(trees["change"])},
        "command": " ".join(spec["command"]) + f" --workload W --seed <pair + 1> --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "environment": None,
        "blas_core": blas_core(trees["change"]),
        "workloads": {},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for pair in range(args.pairs):
            seed = pair + 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                code, stdout, stderr, usage = run_perfbench(trees[side], workload, seed, seconds)
                run = {"side": side, "pair": pair, "seed": seed, "order": position, "exit": code,
                       "rusage": usage, **parse_output(stdout)}
                if bench["environment"] is None and "environment" in run:
                    bench["environment"] = run["environment"]
                runs.append(run)
                metrics = (run.get("result") or {}).get("metrics", {})
                shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()) or "-"
                print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} {side}: {shown}", file=sys.stderr)
                if bad := problems(run):
                    failures.append(f"{workload} seed {seed} {side}: {', '.join(bad)}; {stderr.strip()[-500:]}")
                    print(f"  FAILED: {failures[-1]}", file=sys.stderr)
        bench["workloads"][workload] = summarize(runs, spec)
    bench["ok"] = not failures
    bench["failures"] = failures
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    for workload, section in bench["workloads"].items():
        for name, stats in section["end_to_end"].items():
            p, c = stats["parent"]["median"], stats["change"]["median"]
            print(f"{workload:13s} {name:12s} median {p} -> {c}  change wins {stats['change_wins']}/{stats['pairs']}"
                  f"  {stats['verdict']}")
        for name, stats in section["rusage"].items():
            print(f"{workload:13s} {name:12s} median {stats['parent']['median']} -> {stats['change']['median']}"
                  "  (per run.py process)")
    if failures:
        print("failed runs:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
