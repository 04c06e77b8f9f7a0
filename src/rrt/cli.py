"""Command-line pipeline.

Stages communicate via files so every step is independently re-runnable and
diffable: synth -> index -> retrieve -> train -> rerank -> eval / compare,
plus the ablation sweep and a correspondence dump.  Every command is
deterministic given its flags and seed, echoes a digest of its effective
configuration into its outputs (reports embed it; other artifacts, and the
``eval`` report too, get a ``<out>.meta.json`` sidecar), and exits 0 on
success, 2 on configuration errors, 3 on data/format errors, 4 on a
numerical abort.  Input is checked where it enters: flag values and the
config objects built from them (which check themselves) before any output is
written, and records against the model once per command, when the scorer is
built or training starts, so a record the model cannot take exits 2 wherever
it sits in the gallery; a projected ``index`` or ``retrieve`` checks its
checkpoint's global projection against the data and the index the same
way.  The ``rerank`` and ``eval`` sidecars also record
``"environment": {"workers": N}``, the threads a multi-chunk ``score_batch``
uses on this machine; it is a machine fact, so it stays out of the config
and its digest.

Flags may also come from a ``key=value`` config file (--config); command-line
flags win, unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .baselines import GVConfig
from .data import (
    SynthConfig,
    export_labels_tsv,
    load_dataset,
    normalize_records,
    part_prototypes,
    records_by_id,
    save_dataset,
    synth_generate,
)
from .errors import ConfigError, DataFormatError, IntegrityError, TrainingDiverged
from .metrics import (
    ablation_locals_sweep,
    build_ground_truth,
    config_digest,
    emit_report,
    evaluate_neighbors,
)
from .model import (
    ModelConfig,
    attention_correspondences,
    load_checkpoint,
    score_workers,
)
from .retrieval import (
    aqe_requery,
    aqe_then_rerank,
    build_index,
    knn_search,
    load_index,
    query_vector,
    read_neighbors,
    rerank_topk,
    save_index,
    write_neighbors,
)
from .scorers import make_gv_scorer, make_oracle_scorer, make_rrt_scorer
from .train import TrainConfig, train

PROG = "rrt"


@dataclass(frozen=True)
class Flag:
    name: str                 # canonical spelling, e.g. "--locals-max"
    kind: Callable | str      # value parser, or "bool" for a switch
    default: Any
    help: str
    required: bool = False
    multi: bool = False       # nargs="+"

    @property
    def key(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x != ""]


def _opt_float(text: str):
    return None if str(text).lower() in ("none", "off") else float(text)


def _opt_int(text: str):
    return None if str(text).lower() in ("none", "off") else int(text)


COMMON = [
    Flag("--seed", int, 0, "seed for every random choice in the command"),
    Flag("--config", str, None, "key=value file merged under the flags"),
]

SYNTH_FLAGS = COMMON + [
    Flag("--out", str, None, "output directory", required=True),
    Flag("--instances", int, 16, "number of object instances"),
    Flag("--images-per-instance", int, 8, "images generated per instance"),
    Flag("--queries-per-instance", int, 2, "leading images held out as queries"),
    Flag("--parts-per-instance", int, 6, "planted part prototypes per instance"),
    Flag("--parts-per-image", int, 4, "planted parts sampled into each image"),
    Flag("--locals-per-image", int, 16, "local descriptors per image"),
    Flag("--dim-local", int, 32, "local descriptor dimension"),
    Flag("--dim-global", int, 128, "raw global descriptor dimension"),
    Flag("--confusion-pairs", int, 8, "instance pairs sharing a global prototype"),
    Flag("--global-noise", float, 0.02, "global descriptor noise sigma"),
    Flag("--local-noise", float, 0.05, "local descriptor noise sigma"),
    Flag("--codebook", _opt_int, None, "fixed part-dictionary size (none = free prototypes)"),
]

INDEX_FLAGS = COMMON + [
    Flag("--data", str, None, "gallery descriptor file (.rrtd)", required=True),
    Flag("--out", str, None, "index artifact (.rrti)", required=True),
    Flag("--projected", "bool", False, "index the model-projected globals instead of raw"),
    Flag("--checkpoint", str, None, "model checkpoint (needed with --projected)"),
]

RETRIEVE_FLAGS = COMMON + [
    Flag("--data", str, None, "index artifact (.rrti)", required=True),
    Flag("--queries", str, None, "query descriptor file (.rrtd)", required=True),
    Flag("--k", int, 100, "neighbors to return per query"),
    Flag("--out", str, None, "neighbor JSONL output", required=True),
    Flag("--checkpoint", str, None, "model checkpoint (for projected indexes)"),
]

TRAIN_FLAGS = COMMON + [
    Flag("--data", str, None, "training gallery (.rrtd)", required=True),
    Flag("--out", str, None, "output directory (checkpoints + loss CSV)", required=True),
    Flag("--locals-max", int, 500, "max locals per image (model length L)"),
    Flag("--heads", int, 4, "attention heads"),
    Flag("--layers", int, 6, "transformer layers"),
    Flag("--mlp-dim", int, 1024, "MLP hidden dimension"),
    Flag("--no-global-token", "bool", False, "drop the global-descriptor token"),
    Flag("--pos-embed", "bool", False, "add fixed sinusoidal position codes"),
    Flag("--no-scale-embed", "bool", False, "drop the scale embedding"),
    Flag("--mlp-residual", "bool", False, "residual connection around the MLP"),
    Flag("--lr", float, 1e-4, "AdamW learning rate"),
    Flag("--weight-decay", float, 4e-4, "AdamW decoupled weight decay"),
    Flag("--epochs", int, 15, "training epochs"),
    Flag("--batch-size", int, 8, "anchors per step (two pairs each)"),
    Flag("--neg-pool", int, 100, "negatives come from this many top global neighbors"),
    Flag("--grad-clip", _opt_float, None, "global gradient-norm clip (e.g. 0.1)"),
    Flag("--steps-per-epoch", _opt_int, None, "cap on steps per epoch"),
    Flag("--lr-schedule", "bool", False, "drop lr x0.1 after 60 and 80 percent of epochs"),
]

RERANK_FLAGS = COMMON + [
    Flag("--data", str, None, "input neighbor JSONL", required=True),
    Flag("--queries", str, None, "query descriptor file (.rrtd)", required=True),
    Flag("--gallery", str, None, "gallery descriptor file (.rrtd)", required=True),
    Flag("--out", str, None, "output neighbor JSONL", required=True),
    Flag("--scorer", str, None, "one of rrt, gv, aqe, aqe+rrt, oracle", required=True),
    Flag("--k", int, 100, "rerank depth (entries beyond stay untouched)"),
    Flag("--checkpoint", str, None, "model checkpoint (rrt and aqe+rrt)"),
    Flag("--parts", str, None, "part-prototype bank .npy (oracle scorer)"),
    Flag("--nqe", int, 2, "expansion neighbors for alpha-QE"),
    Flag("--alpha", float, 0.3, "similarity exponent for alpha-QE"),
    Flag("--ransac-iters", int, 2000, "RANSAC iteration budget"),
    Flag("--ransac-thresh", float, 3.0, "inlier threshold in pixels"),
    Flag("--ratio", _opt_float, None, "Lowe ratio for mutual-NN matching"),
    Flag("--locals-max", _opt_int, None, "truncate each record to this many locals"),
]

EVAL_FLAGS = COMMON + [
    Flag("--data", str, None, "neighbor JSONL to score", required=True),
    Flag("--queries", str, None, "query descriptor file (labels)", required=True),
    Flag("--gallery", str, None, "gallery descriptor file (labels)", required=True),
    Flag("--out", str, None, "report path", required=True),
    Flag("--format", str, "json", "report format: json or csv"),
    Flag("--map-ks", _int_list, [100], "mAP@K cutoffs, comma separated"),
    Flag("--recall-ks", _int_list, [1, 10, 100], "R@K cutoffs, comma separated"),
]

COMPARE_FLAGS = COMMON + [
    Flag("--data", str, None, "neighbor JSONL files to compare", required=True, multi=True),
    Flag("--queries", str, None, "query descriptor file (labels)", required=True),
    Flag("--gallery", str, None, "gallery descriptor file (labels)", required=True),
    Flag("--out", str, None, "TSV table output", required=True),
    Flag("--map-ks", _int_list, [100], "mAP@K cutoffs"),
    Flag("--recall-ks", _int_list, [1, 10, 100], "R@K cutoffs"),
]

ABLATE_FLAGS = COMMON + [
    Flag("--queries", str, None, "query descriptor file", required=True),
    Flag("--gallery", str, None, "gallery descriptor file", required=True),
    Flag("--checkpoint", str, None, "model checkpoint", required=True),
    Flag("--counts", _int_list, [0, 2, 4, 8, 16], "locals budgets to sweep"),
    Flag("--k", int, 100, "rerank depth"),
    Flag("--stride", int, 16, "grid stride for the distinct-cell statistics"),
    Flag("--out", str, None, "TSV table output", required=True),
]

CORRESPOND_FLAGS = COMMON + [
    Flag("--queries", str, None, "query descriptor file", required=True),
    Flag("--gallery", str, None, "gallery descriptor file", required=True),
    Flag("--checkpoint", str, None, "model checkpoint", required=True),
    Flag("--query-id", int, None, "query image id", required=True),
    Flag("--gallery-id", int, None, "gallery image id", required=True),
    Flag("--out", str, None, "JSON match dump", required=True),
]


def _load_config_file(path: str, flags: Sequence[Flag]) -> dict:
    by_key = {f.key: f for f in flags}
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            flag = by_key.get(key)
            if flag is None:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            value = value.strip()
            if flag.kind == "bool":
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ConfigError(f"{path}:{lineno}: {key} wants true/false")
                out[flag.key] = value.lower() in ("true", "1")
            elif flag.multi:
                out[flag.key] = [flag.kind(v) for v in value.split(",")]
            else:
                out[flag.key] = flag.kind(value)
    return out


def _effective_config(args: argparse.Namespace, flags: Sequence[Flag]) -> dict:
    """defaults <- config file <- explicit command-line flags."""
    merged = {f.key: f.default for f in flags}
    cli = {k: v for k, v in vars(args).items() if v is not _UNSET}
    cfg_path = cli.get("config", None)
    if cfg_path:
        merged.update(_load_config_file(cfg_path, flags))
    merged.update(cli)
    for f in flags:
        if f.required and merged.get(f.key) is None:
            raise ConfigError(f"missing required flag {f.name}")
    return merged


_UNSET = object()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Instance retrieval pipeline: synthesize descriptors, index, "
        "retrieve, train the reranker, rerank, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for f in flags:
            kwargs: dict = {"help": f"{f.help} (default: {f.default})", "default": _UNSET}
            if f.kind == "bool":
                kwargs["action"] = "store_true"
            else:
                kwargs["type"] = f.kind
                if f.multi:
                    kwargs["nargs"] = "+"
            p.add_argument(f.name, dest=f.key, **kwargs)
    return parser


def _write_meta(out_path, command: str, cfg: dict, environment: dict | None = None) -> str:
    """Write ``<out_path>.meta.json``; machine facts go in `environment`,
    outside the config and its digest."""
    digest = config_digest({"command": command, **cfg})
    meta = {"command": command, "config_digest": digest, "config": cfg}
    if environment is not None:
        meta["environment"] = environment
    with open(str(out_path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return digest


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value, naming the flag, before anything is read or
    written."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value}")


def _load_normalized(path, max_locals=None):
    records, manifest = load_dataset(path, max_locals=max_locals)
    return normalize_records(records), manifest


# -- commands ---------------------------------------------------------------


def cmd_synth(cfg: dict) -> int:
    synth = SynthConfig(
        n_instances=cfg["instances"],
        images_per_instance=cfg["images_per_instance"],
        queries_per_instance=cfg["queries_per_instance"],
        parts_per_instance=cfg["parts_per_instance"],
        parts_per_image=cfg["parts_per_image"],
        locals_per_image=cfg["locals_per_image"],
        d_l=cfg["dim_local"],
        d_g_raw=cfg["dim_global"],
        global_confusion_pairs=cfg["confusion_pairs"],
        global_noise=cfg["global_noise"],
        local_noise=cfg["local_noise"],
        part_codebook_size=cfg["codebook"],
        seed=cfg["seed"],
    )
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    queries, gallery, manifest = synth_generate(synth)
    save_dataset(queries, manifest, out / "queries.rrtd")
    save_dataset(gallery, manifest, out / "gallery.rrtd")
    export_labels_tsv(queries + gallery, out / "labels.tsv")
    np.save(out / "oracle_parts.npy", part_prototypes(synth))
    digest = _write_meta(out / "dataset", "synth", cfg)
    with open(out / "manifest.json", "w") as fh:
        json.dump({**asdict(manifest), "config_digest": digest}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(queries)} queries / {len(gallery)} gallery images to {out}")
    return 0


def _projection_params(path, d_g_raw: int):
    """Params of the checkpoint at path, which must hold a global projection
    from d_g_raw dimensions; ConfigError otherwise."""
    params, mcfg = load_checkpoint(path)
    if not mcfg.use_global_token:
        raise ConfigError(f"--checkpoint {path} has no global projection (trained with --no-global-token)")
    if mcfg.d_g_raw != d_g_raw:
        raise ConfigError(
            f"--checkpoint {path} projects {mcfg.d_g_raw}-dim globals, but the data's are {d_g_raw}-dim"
        )
    return params


def cmd_index(cfg: dict) -> int:
    records, manifest = _load_normalized(cfg["data"])
    if cfg["projected"]:
        if not cfg["checkpoint"]:
            raise ConfigError("--projected needs --checkpoint")
        params = _projection_params(cfg["checkpoint"], manifest.d_g_raw)
        index = build_index(records, projected=True, params=params)
    else:
        index = build_index(records)
    save_index(index, cfg["out"])
    _write_meta(cfg["out"], "index", cfg)
    print(f"indexed {len(index.ids)} vectors ({index.vectors.shape[1]} dims) -> {cfg['out']}")
    return 0


def cmd_retrieve(cfg: dict) -> int:
    _require(cfg["k"] >= 1, "--k", "at least 1", cfg["k"])
    index = load_index(cfg["data"])
    queries, manifest = _load_normalized(cfg["queries"])
    params = None
    if index.projected:
        if not cfg["checkpoint"]:
            raise ConfigError("projected index needs --checkpoint to embed queries")
        params = _projection_params(cfg["checkpoint"], manifest.d_g_raw)
        dim = params["global_proj.w"].shape[1]
        if dim != index.vectors.shape[1]:
            raise ConfigError(
                f"--checkpoint {cfg['checkpoint']} projects to {dim} dims, but the index holds "
                f"{index.vectors.shape[1]}-dim vectors"
            )
    lists = [
        knn_search(index, query_vector(index, q, params), k=cfg["k"], query_id=q.id)
        for q in queries
    ]
    write_neighbors(cfg["out"], lists)
    _write_meta(cfg["out"], "retrieve", cfg)
    flagged = sum(1 for nl in lists if nl.truncated)
    if flagged:
        print(f"warning: k={cfg['k']} exceeds the gallery; {flagged} full rankings emitted")
    print(f"retrieved {len(lists)} neighbor lists -> {cfg['out']}")
    return 0


def cmd_train(cfg: dict) -> int:
    heads = cfg["heads"]
    _require(heads >= 1, "--heads", "at least 1", heads)
    records, manifest = _load_normalized(cfg["data"], max_locals=cfg["locals_max"])
    d = manifest.d_l
    if d % heads != 0:
        raise ConfigError(f"model dim {d} (from data) not divisible by --heads {heads}")
    mcfg = ModelConfig(
        L=cfg["locals_max"],
        d=d,
        h=heads,
        d_h=d // heads,
        layers=cfg["layers"],
        d_c=cfg["mlp_dim"],
        n_scales=manifest.n_scales,
        d_g_raw=manifest.d_g_raw,
        use_pos_embed=cfg["pos_embed"],
        use_global_token=not cfg["no_global_token"],
        use_scale_embed=not cfg["no_scale_embed"],
        mlp_residual=cfg["mlp_residual"],
    )
    tcfg = TrainConfig(
        lr=cfg["lr"],
        weight_decay=cfg["weight_decay"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=cfg["seed"],
        grad_clip_norm=cfg["grad_clip"],
        neg_pool_size=cfg["neg_pool"],
        steps_per_epoch=cfg["steps_per_epoch"],
        lr_step_schedule=cfg["lr_schedule"],
    )
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _, history = train(records, mcfg, tcfg, out_dir=out)
    _write_meta(out / "model.rrtm", "train", cfg)
    print(f"trained {tcfg.epochs} epochs ({len(history)} steps), "
          f"final loss {history[-1]['loss']:.4f} -> {out / 'model.rrtm'}")
    return 0


def _scorer_from_flags(cfg: dict, queries, gallery):
    name = cfg["scorer"]
    if name in ("rrt", "aqe+rrt"):
        if not cfg["checkpoint"]:
            raise ConfigError(f"scorer {name} needs --checkpoint")
        params, mcfg = load_checkpoint(cfg["checkpoint"])
        return make_rrt_scorer(params, mcfg, queries, gallery)
    if name == "gv":
        gv = GVConfig(
            iterations=cfg["ransac_iters"],
            inlier_threshold=cfg["ransac_thresh"],
            ratio=cfg["ratio"],
            seed=cfg["seed"],
        )
        return make_gv_scorer(queries, gallery, gv)
    if name == "oracle":
        if not cfg["parts"]:
            raise ConfigError("scorer oracle needs --parts (prototype bank .npy)")
        bank = np.load(cfg["parts"])
        return make_oracle_scorer(bank, queries, gallery)
    raise ConfigError(f"unknown scorer {name!r}")


def cmd_rerank(cfg: dict) -> int:
    _require(cfg["k"] >= 0, "--k", "non-negative", cfg["k"])
    _require(cfg["nqe"] >= 0, "--nqe", "non-negative", cfg["nqe"])
    alpha = cfg["alpha"]
    _require(math.isfinite(alpha) and alpha >= 0, "--alpha", "finite and non-negative", alpha)
    queries, _ = _load_normalized(cfg["queries"], max_locals=cfg["locals_max"])
    gallery, _ = _load_normalized(cfg["gallery"], max_locals=cfg["locals_max"])
    neighbors = read_neighbors(cfg["data"])
    qmap, _ = _validate_ids(neighbors, queries, gallery)

    name = cfg["scorer"]
    k = cfg["k"]
    if name in ("aqe", "aqe+rrt"):
        index = build_index(gallery)
        if name == "aqe":
            out_lists = [
                aqe_requery(index, query_vector(index, qmap[nl.query_id]), nl.query_id,
                            cfg["nqe"], cfg["alpha"], base=nl)
                for nl in neighbors
            ]
        else:
            scorer = _scorer_from_flags(cfg, queries, gallery)
            out_lists = [
                aqe_then_rerank(index, query_vector(index, qmap[nl.query_id]), nl.query_id,
                                scorer, cfg["nqe"], cfg["alpha"], k, base=nl)
                for nl in neighbors
            ]
    else:
        scorer = _scorer_from_flags(cfg, queries, gallery)
        out_lists = [rerank_topk(nl, scorer, k, method=name) for nl in neighbors]
    write_neighbors(cfg["out"], out_lists)
    _write_meta(cfg["out"], "rerank", cfg, {"workers": score_workers()})
    print(f"reranked {len(out_lists)} lists with scorer {name} (k={k}) -> {cfg['out']}")
    return 0


def _require_cutoffs(cfg: dict) -> None:
    for flag, ks in (("--map-ks", cfg["map_ks"]), ("--recall-ks", cfg["recall_ks"])):
        _require(all(k >= 1 for k in ks), flag, "positive integers", ks)


def _ground_truth_from_files(cfg: dict):
    queries, _ = _load_normalized(cfg["queries"])
    gallery, _ = _load_normalized(cfg["gallery"])
    return queries, gallery, build_ground_truth(queries, gallery)


def _validate_ids(lists, queries, gallery):
    """(query id -> record, gallery id -> record) after checking that record
    ids are unique per file and that every listed id has a record."""
    qmap, gmap = records_by_id(queries), records_by_id(gallery)
    for nl in lists:
        if nl.query_id not in qmap:
            raise DataFormatError(f"neighbor file references unknown query id {nl.query_id}")
        for gid, _ in nl.entries:
            if gid not in gmap:
                raise DataFormatError(f"neighbor file references unknown gallery id {gid}")
    return qmap, gmap


def _require_relevant(lists, gt, path) -> None:
    """A file in which no query has a relevant gallery item has no AP to
    average."""
    if not any(gt.get(nl.query_id) for nl in lists):
        raise DataFormatError(f"{path}: no query has a relevant gallery item")


def cmd_eval(cfg: dict) -> int:
    _require(cfg["format"] in ("json", "csv"), "--format", "json or csv", cfg["format"])
    _require_cutoffs(cfg)
    t0 = time.time()
    queries, gallery, gt = _ground_truth_from_files(cfg)
    lists = read_neighbors(cfg["data"])
    _validate_ids(lists, queries, gallery)
    _require_relevant(lists, gt, cfg["data"])
    digest = config_digest({"command": "eval", **cfg})
    report = evaluate_neighbors(
        lists, gt, map_ks=cfg["map_ks"], recall_ks=cfg["recall_ks"],
        digest=digest, wallclock_s=round(time.time() - t0, 6),
    )
    emit_report(report, cfg["out"], cfg["format"])
    _write_meta(cfg["out"], "eval", cfg, {"workers": score_workers()})
    print(f"{report.method or 'ranking'}: mAP={report.map:.4f} "
          + " ".join(f"mAP@{k}={v:.4f}" for k, v in report.map_at.items())
          + " " + " ".join(f"R@{k}={v:.4f}" for k, v in report.recall_at.items()))
    return 0


def cmd_compare(cfg: dict) -> int:
    _require_cutoffs(cfg)
    queries, gallery, gt = _ground_truth_from_files(cfg)
    digest = config_digest({"command": "compare", **cfg})
    rows = []
    for path in cfg["data"]:
        lists = read_neighbors(path)
        _validate_ids(lists, queries, gallery)
        _require_relevant(lists, gt, path)
        rep = evaluate_neighbors(lists, gt, map_ks=cfg["map_ks"], recall_ks=cfg["recall_ks"], digest=digest)
        rows.append((Path(path).name, rep))
    header = ["file", "method", "map"]
    header += [f"map@{k}" for k in cfg["map_ks"]] + [f"r@{k}" for k in cfg["recall_ks"]]
    table = [header]
    for name, rep in rows:
        table.append(
            [name, rep.method, f"{rep.map:.6f}"]
            + [f"{rep.map_at[k]:.6f}" for k in cfg["map_ks"]]
            + [f"{rep.recall_at[k]:.6f}" for k in cfg["recall_ks"]]
        )
    with open(cfg["out"], "w") as fh:
        for row in table:
            fh.write("\t".join(row) + "\n")
    _write_meta(cfg["out"], "compare", cfg)
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def cmd_ablate(cfg: dict) -> int:
    _require(cfg["k"] >= 0, "--k", "non-negative", cfg["k"])
    queries, _ = _load_normalized(cfg["queries"])
    gallery, _ = _load_normalized(cfg["gallery"])
    params, mcfg = load_checkpoint(cfg["checkpoint"])

    def factory(truncated_queries, truncated_gallery):
        return make_rrt_scorer(params, mcfg, truncated_queries, truncated_gallery)

    rows = ablation_locals_sweep(
        queries, gallery, factory, cfg["counts"], k=cfg["k"], stride=cfg["stride"]
    )
    with open(cfg["out"], "w") as fh:
        fh.write("count\tmap\tmean_locals\tmean_distinct_cells\n")
        for r in rows:
            fh.write(
                f"{r['count']}\t{r['map']:.6f}\t{r['mean_locals']:.4f}\t{r['mean_distinct_cells']:.4f}\n"
            )
    _write_meta(cfg["out"], "ablate", cfg)
    for r in rows:
        print(f"locals<={r['count']:4d}  mAP={r['map']:.4f}  "
              f"mean_locals={r['mean_locals']:.2f}  distinct_cells={r['mean_distinct_cells']:.2f}")
    return 0


def cmd_correspond(cfg: dict) -> int:
    queries, _ = _load_normalized(cfg["queries"])
    gallery, _ = _load_normalized(cfg["gallery"])
    params, mcfg = load_checkpoint(cfg["checkpoint"])
    qmap, gmap = records_by_id(queries), records_by_id(gallery)
    if cfg["query_id"] not in qmap:
        raise DataFormatError(f"unknown query id {cfg['query_id']}")
    if cfg["gallery_id"] not in gmap:
        raise DataFormatError(f"unknown gallery id {cfg['gallery_id']}")
    q, g = qmap[cfg["query_id"]], gmap[cfg["gallery_id"]]
    matches = attention_correspondences(params, mcfg, q, g)
    payload = {
        "query": q.id,
        "gallery": g.id,
        "config_digest": config_digest({"command": "correspond", **cfg}),
        "matches": [
            {
                "query_local": i,
                "gallery_local": j,
                "weight": w,
                "query_uv": q.uv[i].tolist(),
                "gallery_uv": g.uv[j].tolist(),
            }
            for i, j, w in matches
        ],
    }
    with open(cfg["out"], "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(matches)} correspondences -> {cfg['out']}")
    return 0


COMMANDS: dict[str, tuple[str, list[Flag], Callable[[dict], int]]] = {
    "synth": ("generate a planted-part synthetic descriptor dataset", SYNTH_FLAGS, cmd_synth),
    "index": ("build and persist a global-descriptor index", INDEX_FLAGS, cmd_index),
    "retrieve": ("exact k-NN search for every query", RETRIEVE_FLAGS, cmd_retrieve),
    "train": ("train the pair scorer on a labeled gallery", TRAIN_FLAGS, cmd_train),
    "rerank": ("rerank neighbor lists with a pairwise scorer", RERANK_FLAGS, cmd_rerank),
    "eval": ("score a neighbor file against label ground truth", EVAL_FLAGS, cmd_eval),
    "compare": ("evaluate several neighbor files side by side", COMPARE_FLAGS, cmd_compare),
    "ablate": ("sweep the per-image local-descriptor budget", ABLATE_FLAGS, cmd_ablate),
    "correspond": ("dump attention correspondences for one pair", CORRESPOND_FLAGS, cmd_correspond),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    name = args.command
    _, flags, runner = COMMANDS[name]
    try:
        cfg = _effective_config(args, flags)
        return runner(cfg)
    except ConfigError as exc:
        print(f"{PROG} {name}: configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, IntegrityError, FileNotFoundError) as exc:
        print(f"{PROG} {name}: data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"{PROG} {name}: numerical abort: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
