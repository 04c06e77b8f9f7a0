"""Command-line pipeline.

Stages communicate via files so every step is independently re-runnable and
diffable: synth -> index -> retrieve -> train -> rerank -> eval / compare,
plus the ablation sweep and a correspondence dump.  Every flag changes what
its command does, so --seed sits only on the commands that draw random numbers
(synth, train and rerank).  Every command is deterministic given its flags,
echoes a digest of its effective configuration into its outputs (reports
embed it; other artifacts, and the ``eval`` report too, get a
``<out>.meta.json`` sidecar), and exits 0 on success, 2 on configuration
errors (sizing flags that ask for more memory than is available included), 3
on data/format errors (a path that cannot be read or written included), 4 on
a numerical abort.  Input is checked where it enters: flag values and the
config objects built from them (which check themselves) before any output is
written, and records against the model once per command, when the scorer is
built or training starts, so a record the model cannot take exits 2 wherever
it sits in the gallery.  ``rerank`` refuses, with exit 2, a flag set away
from its default that its scorer does not read.  A checkpoint makes
``index`` projected, as params make ``build_index``; ``retrieve`` needs
one for a projected index and refuses one for a raw index.  Both check its
global projection against the data and the index.  The ``rerank`` and ``eval``
sidecars also record an ``environment`` block: ``workers``, the threads
``score_batch`` cuts its chunks for on this machine, OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS as this process sees them (null when
unset), and ``blas_core``, the OpenBLAS core whose kernels run (null where
the library does not report one); ``rerank`` adds ``heap_pinned``, true when
building its scorer pinned glibc's heap thresholds (``rrt.model.pin_heap``;
aqe builds no scorer and records false).  These are machine facts, so they
stay out of the config and its digest.

Flags may also come from a ``key=value`` config file (--config), whose lines
become flag tokens ahead of the command line's: one argparse pass parses every
value, the command line wins, and a bad key, line, switch or value, or a
missing or unreadable file, exits 2.  A flag that sets a config field takes
its default from the config class.  A --queries and --gallery pair whose
headers describe different descriptors exits 3.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .baselines import GVConfig
from .benchmark import AQE_ALPHA, AQE_NQE, RERANK_DEPTH
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
from .entry import BLAS_THREAD_VARS
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
    pin_heap,
    score_workers,
)
from .retrieval import (
    aqe_requery,
    build_index,
    load_index,
    query_vector,
    rank_queries,
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
    field: tuple | None = None  # (config class, field name) the flag sets

    @property
    def key(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


def _setter(cls) -> Callable[..., Flag]:
    """A builder (field, name, kind, help) -> Flag of the flags that set a
    field of config class cls; each takes the field's default."""
    defaults = {f.name: f.default for f in fields(cls)}
    return lambda field, name, kind, help: Flag(name, kind, defaults[field], help, field=(cls, field))


def _config(cls, cfg: dict, flags: Sequence[Flag], **rest):
    """cls built from the values in cfg of the flags that set its fields,
    plus rest."""
    return cls(**{f.field[1]: cfg[f.key] for f in flags if f.field and f.field[0] is cls}, **rest)


def _default(fn: Callable, name: str):
    """The default of fn's parameter name, a tuple as a list."""
    value = inspect.signature(fn).parameters[name].default
    return list(value) if isinstance(value, tuple) else value


def _int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x != ""]


def _opt_float(text: str):
    return None if str(text).lower() in ("none", "off") else float(text)


def _opt_int(text: str):
    return None if str(text).lower() in ("none", "off") else int(text)


_synth, _model, _train, _gv = map(_setter, (SynthConfig, ModelConfig, TrainConfig, GVConfig))

COMMON = [Flag("--config", str, None, "key=value file merged under the flags")]
SEEDED = [Flag("--seed", int, 0, "seed for every random choice; synth, train and rerank take it")] + COMMON

SYNTH_FLAGS = SEEDED + [
    Flag("--out", str, None, "output directory", required=True),
    _synth("n_instances", "--instances", int, "number of object instances"),
    _synth("images_per_instance", "--images-per-instance", int, "images generated per instance"),
    _synth("queries_per_instance", "--queries-per-instance", int, "leading images held out as queries"),
    _synth("parts_per_instance", "--parts-per-instance", int, "planted part prototypes per instance"),
    _synth("parts_per_image", "--parts-per-image", int, "planted parts sampled into each image"),
    _synth("locals_per_image", "--locals-per-image", int, "local descriptors per image"),
    _synth("d_l", "--dim-local", int, "local descriptor dimension"),
    _synth("d_g_raw", "--dim-global", int, "raw global descriptor dimension"),
    _synth("global_confusion_pairs", "--confusion-pairs", int, "instance pairs sharing a global prototype"),
    _synth("global_noise", "--global-noise", float, "global descriptor noise sigma"),
    _synth("local_noise", "--local-noise", float, "local descriptor noise sigma"),
    _synth("part_codebook_size", "--codebook", _opt_int, "fixed part-dictionary size (none = free prototypes)"),
]

INDEX_FLAGS = COMMON + [
    Flag("--data", str, None, "gallery descriptor file (.rrtd)", required=True),
    Flag("--out", str, None, "index artifact (.rrti)", required=True),
    Flag("--checkpoint", str, None, "model checkpoint; makes the index projected"),
]

RETRIEVE_FLAGS = COMMON + [
    Flag("--data", str, None, "index artifact (.rrti)", required=True),
    Flag("--queries", str, None, "query descriptor file (.rrtd)", required=True),
    Flag("--k", int, RERANK_DEPTH, "neighbors to return per query"),
    Flag("--out", str, None, "neighbor JSONL output", required=True),
    Flag("--checkpoint", str, None, "model checkpoint (projected indexes only)"),
]

TRAIN_FLAGS = SEEDED + [
    Flag("--data", str, None, "training gallery (.rrtd)", required=True),
    Flag("--out", str, None, "output directory (model.rrtm, its .meta.json, loss_history.csv)", required=True),
    _model("L", "--locals-max", int, "max locals per image (model length L)"),
    _model("h", "--heads", int, "attention heads"),
    _model("layers", "--layers", int, "transformer layers"),
    _model("d_c", "--mlp-dim", int, "MLP hidden dimension"),
    Flag("--no-global-token", "bool", False, "drop the global-descriptor token"),
    _model("use_pos_embed", "--pos-embed", "bool", "add fixed sinusoidal position codes"),
    Flag("--no-scale-embed", "bool", False, "drop the scale embedding"),
    _model("mlp_residual", "--mlp-residual", "bool", "residual connection around the MLP"),
    _train("lr", "--lr", float, "AdamW learning rate"),
    _train("weight_decay", "--weight-decay", float, "AdamW decoupled weight decay"),
    _train("epochs", "--epochs", int, "training epochs"),
    _train("batch_size", "--batch-size", int, "anchors per step (two pairs each)"),
    _train("neg_pool_size", "--neg-pool", int, "negatives come from this many top global neighbors"),
    _train("grad_clip_norm", "--grad-clip", _opt_float, "global gradient-norm clip (e.g. 0.1)"),
    _train("steps_per_epoch", "--steps-per-epoch", _opt_int, "cap on steps per epoch"),
    _train("lr_step_schedule", "--lr-schedule", "bool", "drop lr x0.1 after 60 and 80 percent of epochs"),
]

# The scorers that read each rerank flag that not every scorer reads.
SCORERS = ("rrt", "gv", "aqe", "aqe+rrt", "oracle")
SCORER_FLAGS = {"--checkpoint": ("rrt", "aqe+rrt"), "--parts": ("oracle",),
                **dict.fromkeys(("--nqe", "--alpha"), ("aqe", "aqe+rrt")),
                **dict.fromkeys(("--ransac-iters", "--ransac-thresh", "--ratio", "--seed"), ("gv",)),
                **dict.fromkeys(("--k", "--locals-max"), ("rrt", "gv", "aqe+rrt", "oracle"))}


def _readers(flag: str) -> str:
    """The scorers that read a rerank flag, as "scorer(s) a, b"."""
    readers = SCORER_FLAGS.get(flag, SCORERS)
    return f"scorer{'s' * (len(readers) > 1)} {', '.join(readers)}"


RERANK_FLAGS = SEEDED + [
    Flag("--data", str, None, "input neighbor JSONL", required=True),
    Flag("--queries", str, None, "query descriptor file (.rrtd)", required=True),
    Flag("--gallery", str, None, "gallery descriptor file (.rrtd)", required=True),
    Flag("--out", str, None, "output neighbor JSONL", required=True),
    Flag("--scorer", str, None, f"one of {', '.join(SCORERS)}; aqe re-ranks the gallery in raw global "
         "space, and the input list only picks its expansion neighbors", required=True),
    Flag("--k", int, RERANK_DEPTH, "rerank depth (entries beyond stay untouched)"),
    Flag("--checkpoint", str, None, f"model checkpoint ({_readers('--checkpoint')})"),
    Flag("--parts", str, None, f"part-prototype bank .npy ({_readers('--parts')})"),
    Flag("--nqe", int, AQE_NQE, "expansion neighbors for alpha-QE"),
    Flag("--alpha", float, AQE_ALPHA, "similarity exponent for alpha-QE"),
    _gv("iterations", "--ransac-iters", int, "RANSAC iteration budget"),
    _gv("inlier_threshold", "--ransac-thresh", float, "inlier threshold in pixels"),
    _gv("ratio", "--ratio", _opt_float, "Lowe ratio for mutual-NN matching"),
    Flag("--locals-max", _opt_int, None, "truncate each record to this many locals"),
]

EVAL_FLAGS = COMMON + [
    Flag("--data", str, None, "neighbor JSONL to score", required=True),
    Flag("--queries", str, None, "query descriptor file (labels)", required=True),
    Flag("--gallery", str, None, "gallery descriptor file (labels)", required=True),
    Flag("--out", str, None, "report path", required=True),
    Flag("--format", str, "json", "report format: json or csv"),
    Flag("--map-ks", _int_list, _default(evaluate_neighbors, "map_ks"), "mAP@K cutoffs, comma separated"),
    Flag("--recall-ks", _int_list, _default(evaluate_neighbors, "recall_ks"), "R@K cutoffs, comma separated"),
]

COMPARE_FLAGS = COMMON + [
    Flag("--data", str, None, "neighbor JSONL files to compare", required=True, multi=True),
    Flag("--queries", str, None, "query descriptor file (labels)", required=True),
    Flag("--gallery", str, None, "gallery descriptor file (labels)", required=True),
    Flag("--out", str, None, "TSV table output", required=True),
    Flag("--map-ks", _int_list, _default(evaluate_neighbors, "map_ks"), "mAP@K cutoffs"),
    Flag("--recall-ks", _int_list, _default(evaluate_neighbors, "recall_ks"), "R@K cutoffs"),
]

ABLATE_FLAGS = COMMON + [
    Flag("--queries", str, None, "query descriptor file", required=True),
    Flag("--gallery", str, None, "gallery descriptor file", required=True),
    Flag("--checkpoint", str, None, "model checkpoint", required=True),
    Flag("--counts", _int_list, [0, 2, 4, 8, 16], "locals budgets to sweep"),
    Flag("--k", int, RERANK_DEPTH, "rerank depth"),
    Flag("--stride", int, _default(ablation_locals_sweep, "stride"), "grid stride for the distinct-cell statistics"),
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


def _config_tokens(path: str, flags: Sequence[Flag]) -> list[str]:
    """The flag tokens of a key=value config file: ``--flag=value``, the
    switch itself when true, or the flag and one token per comma-separated
    item of a multi-valued flag.  Each value or item is parsed here first, so
    a bad one names its line."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path}: {exc}") from None
    by_key = {f.key: f for f in flags}
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        flag, items = by_key.get(key), value.split(",")
        if flag is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if flag.kind == "bool":
            if value.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"{path}:{lineno}: {key} wants true/false")
            tokens += [flag.name] if value.lower() in ("true", "1") else []
        elif flag.multi and (dashed := [item for item in items if item.startswith("-")]):
            raise ConfigError(f"{path}:{lineno}: {key} item {dashed[0]!r} reads as a flag; write ./{dashed[0]}")
        else:
            for item in items if flag.multi else [value]:
                try:
                    flag.kind(item)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: invalid {key} value {item!r}") from None
            tokens += [flag.name, *items] if flag.multi else [f"{flag.name}={value}"]
    return tokens


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
            if f.kind == "bool":
                how = {"action": "store_true"}
            else:
                how = {"type": f.kind, "nargs": "+" if f.multi else None}
            p.add_argument(f.name, dest=f.key, default=f.default, help=f"{f.help} (default: {f.default})", **how)
    return parser


def _write_meta(out_path, cfg: dict, environment: dict | None = None) -> str:
    """Write ``<out_path>.meta.json``; machine facts go in `environment`,
    outside the config and its digest."""
    digest = config_digest(cfg)
    meta = {"command": cfg["command"], "config_digest": digest, "config": cfg}
    if environment is not None:
        meta["environment"] = environment
    with open(str(out_path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return digest


def blas_core() -> str | None:
    """The OpenBLAS core whose kernels run (e.g. "SkylakeX"), as
    scipy-openblas's scipy_openblas_get_corename64_ reports it from the
    library numpy loaded; None where no such library or symbol exists.
    OPENBLAS_CORETYPE overrides the core a DYNAMIC_ARCH build picks.  The
    core moves gemm speed and bytes."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    try:
        name = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    name.argtypes, name.restype = [], ctypes.c_char_p
    return name().decode()


def _environment(**facts) -> dict:
    """A sidecar's machine facts: the scoring workers, the BLAS thread
    variables as this process sees them (None when unset), the BLAS core,
    and `facts`."""
    return {"workers": score_workers(), **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "blas_core": blas_core(), **facts}


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value, naming the flag, before anything is read or
    written."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value}")


def _load_normalized(path, max_locals=None):
    """The file's records, each cut to its first max_locals locals unless
    that is None, then normalized."""
    records, manifest = load_dataset(path)
    if max_locals is not None:
        records = [r.truncated(max_locals) for r in records]
    return normalize_records(records), manifest


def _load_pair(cfg: dict, max_locals=None):
    """(queries, gallery, manifest) from --queries and --gallery;
    DataFormatError when the two headers describe different descriptors."""
    queries, mq = _load_normalized(cfg["queries"], max_locals)
    gallery, mg = _load_normalized(cfg["gallery"], max_locals)
    if mq != mg:
        diff = ", ".join(f"{f.name} {getattr(mq, f.name)} against {getattr(mg, f.name)}"
                         for f in fields(mq) if f.compare and getattr(mq, f.name) != getattr(mg, f.name))
        raise DataFormatError(f"--queries {cfg['queries']} and --gallery {cfg['gallery']} differ in {diff}")
    return queries, gallery, mq


# -- commands ---------------------------------------------------------------


def cmd_synth(cfg: dict) -> int:
    synth = _config(SynthConfig, cfg, SYNTH_FLAGS, seed=cfg["seed"])
    queries, gallery, manifest = synth_generate(synth)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(queries, manifest, out / "queries.rrtd")
    save_dataset(gallery, manifest, out / "gallery.rrtd")
    export_labels_tsv(queries + gallery, out / "labels.tsv")
    np.save(out / "oracle_parts.npy", part_prototypes(synth))
    digest = _write_meta(out / "dataset", cfg)
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
    params = _projection_params(cfg["checkpoint"], manifest.d_g_raw) if cfg["checkpoint"] else None
    index = build_index(records, params=params)
    save_index(index, cfg["out"])
    _write_meta(cfg["out"], cfg)
    print(f"indexed {len(index.ids)} vectors ({index.vectors.shape[1]} dims) -> {cfg['out']}")
    return 0


def cmd_retrieve(cfg: dict) -> int:
    _require(cfg["k"] >= 1, "--k", "at least 1", cfg["k"])
    try:
        index = load_index(cfg["data"])
    except DataFormatError as exc:
        raise DataFormatError(f"--data {cfg['data']}: {exc}") from None
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
    elif cfg["checkpoint"]:
        raise ConfigError(f"--checkpoint {cfg['checkpoint']} given, but --data {cfg['data']} is a raw index, "
                          "which embeds queries without a model")
    elif index.vectors.shape[1] != manifest.d_g_raw:
        raise DataFormatError(f"--data {cfg['data']} holds {index.vectors.shape[1]}-dim vectors, but --queries "
                              f"{cfg['queries']} has {manifest.d_g_raw}-dim globals")
    lists = rank_queries(index, queries, cfg["k"], params)
    write_neighbors(cfg["out"], lists)
    _write_meta(cfg["out"], cfg)
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
    mcfg = _config(ModelConfig, cfg, TRAIN_FLAGS, d=d, d_h=d // heads, n_scales=manifest.n_scales,
                   d_g_raw=manifest.d_g_raw, use_global_token=not cfg["no_global_token"],
                   use_scale_embed=not cfg["no_scale_embed"])
    tcfg = _config(TrainConfig, cfg, TRAIN_FLAGS, seed=cfg["seed"])
    out = Path(cfg["out"])
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"--out {out} exists and is not a directory")
    _, history = train(records, mcfg, tcfg, out_dir=out)
    _write_meta(out / "model.rrtm", cfg)
    print(f"trained {tcfg.epochs} epochs ({len(history)} steps), "
          f"final loss {history[-1]['loss']:.4f} -> {out / 'model.rrtm'}")
    return 0


def _load_parts(path, d_l: int) -> np.ndarray:
    """The oracle's part bank: a non-empty, finite float array [instances,
    parts, d_l] in a .npy file; DataFormatError naming --parts otherwise.
    The header is checked before any data is read: its dtype and shape, and
    that the data bytes it declares are exactly the bytes left in the file."""
    fmt = np.lib.format
    want = f"must hold a non-empty finite float [instances, parts, {d_l}] array"
    try:
        with open(path, "rb") as fh:
            version = fmt.read_magic(fh)
            read_header = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}.get(version)
            if read_header is None:
                raise ValueError(f"unsupported .npy format version {version}")
            shape, fortran, dtype = read_header(fh)
            if not (dtype.kind == "f" and len(shape) == 3 and shape[2] == d_l):
                raise ValueError(f"{want}, got {dtype} {shape}")
            count, left = math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
            if left != count * dtype.itemsize:
                raise ValueError(f"its header declares {count * dtype.itemsize} data bytes, but {left} follow it")
            bank = np.fromfile(fh, dtype=dtype, count=count).reshape(shape, order="F" if fortran else "C")
    except (OSError, ValueError, EOFError) as exc:
        raise DataFormatError(f"--parts {path}: {exc}") from None
    if not (bank.size and np.isfinite(bank).all()):
        raise DataFormatError(f"--parts {path}: {want}, got {dtype} {shape}")
    return bank


def _scorer_from_flags(cfg: dict, queries, gallery, d_l: int):
    name = cfg["scorer"]
    if name in ("rrt", "aqe+rrt"):
        if not cfg["checkpoint"]:
            raise ConfigError(f"scorer {name} needs --checkpoint")
        params, mcfg = load_checkpoint(cfg["checkpoint"])
        return make_rrt_scorer(params, mcfg, queries, gallery)
    if name == "gv":
        return make_gv_scorer(queries, gallery, _config(GVConfig, cfg, RERANK_FLAGS, seed=cfg["seed"]))
    if not cfg["parts"]:
        raise ConfigError("scorer oracle needs --parts (prototype bank .npy)")
    return make_oracle_scorer(_load_parts(cfg["parts"], d_l), queries, gallery)


def cmd_rerank(cfg: dict) -> int:
    name = cfg["scorer"]
    _require(name in SCORERS, "--scorer", f"one of {', '.join(SCORERS)}", name)
    for f in RERANK_FLAGS:  # so a scorer's config digest moves only with the flags it reads
        if name not in SCORER_FLAGS.get(f.name, SCORERS) and cfg[f.key] != f.default:
            raise ConfigError(f"{f.name} is read only by {_readers(f.name)}, not by {name}")
    _require(cfg["k"] >= 0, "--k", "non-negative", cfg["k"])
    _require(cfg["nqe"] >= 0, "--nqe", "non-negative", cfg["nqe"])
    alpha = cfg["alpha"]
    _require(math.isfinite(alpha) and alpha >= 0, "--alpha", "finite and non-negative", alpha)
    budget = cfg["locals_max"]
    _require(budget is None or budget >= 0, "--locals-max", "non-negative", budget)
    queries, gallery, manifest = _load_pair(cfg, max_locals=budget)
    neighbors = read_neighbors(cfg["data"])
    qmap, _ = _validate_ids(neighbors, queries, gallery)

    k = cfg["k"]
    out_lists = neighbors
    if name in ("aqe", "aqe+rrt"):
        index = build_index(gallery)
        out_lists = [
            aqe_requery(index, query_vector(index, qmap[nl.query_id]), nl.query_id, cfg["nqe"], alpha, base=nl)
            for nl in neighbors
        ]
    if name != "aqe":
        scorer = _scorer_from_flags(cfg, queries, gallery, manifest.d_l)
        out_lists = [rerank_topk(nl, scorer, k, method=name) for nl in out_lists]
    write_neighbors(cfg["out"], out_lists)
    _write_meta(cfg["out"], cfg, _environment(heap_pinned=name != "aqe" and pin_heap()))
    print(f"reranked {len(out_lists)} lists with scorer {name} (k={k}) -> {cfg['out']}")
    return 0


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


def _evaluate_files(cfg: dict, paths: Sequence[str]) -> list:
    """The EvalReport of each neighbour file in paths against the labels of
    --queries and --gallery, at --map-ks and --recall-ks.  A cutoff below 1
    raises ConfigError; an id without a record, a file that lacks a query of
    --queries, or a file in which no query has a relevant gallery item (so no
    AP to average), DataFormatError."""
    for flag, ks in (("--map-ks", cfg["map_ks"]), ("--recall-ks", cfg["recall_ks"])):
        _require(all(k >= 1 for k in ks), flag, "positive integers", ks)
    queries, gallery, _ = _load_pair(cfg)
    gt = build_ground_truth(queries, gallery)
    digest = config_digest(cfg)
    reports = []
    for path in paths:
        lists = read_neighbors(path)
        _validate_ids(lists, queries, gallery)
        listed = {nl.query_id for nl in lists}
        if missing := [q.id for q in queries if q.id not in listed]:
            raise DataFormatError(f"{path}: lacks {len(missing)} of {len(queries)} --queries ids, first {missing[0]}")
        if not any(gt.get(nl.query_id) for nl in lists):
            raise DataFormatError(f"{path}: no query has a relevant gallery item")
        reports.append(evaluate_neighbors(lists, gt, map_ks=cfg["map_ks"], recall_ks=cfg["recall_ks"], digest=digest))
    return reports


def cmd_eval(cfg: dict) -> int:
    _require(cfg["format"] in ("json", "csv"), "--format", "json or csv", cfg["format"])
    t0 = time.time()
    (report,) = _evaluate_files(cfg, [cfg["data"]])
    report.wallclock_s = round(time.time() - t0, 6)
    emit_report(report, cfg["out"], cfg["format"])
    _write_meta(cfg["out"], cfg, _environment())
    print(f"{report.method or 'ranking'}: mAP={report.map:.4f} "
          + " ".join(f"mAP@{k}={v:.4f}" for k, v in report.map_at.items())
          + " " + " ".join(f"R@{k}={v:.4f}" for k, v in report.recall_at.items()))
    return 0


def cmd_compare(cfg: dict) -> int:
    reports = _evaluate_files(cfg, cfg["data"])
    header = ["file", "method", "map"]
    header += [f"map@{k}" for k in cfg["map_ks"]] + [f"r@{k}" for k in cfg["recall_ks"]]
    table = [header]
    for path, rep in zip(cfg["data"], reports):
        table.append(
            [Path(path).name, rep.method, f"{rep.map:.6f}"]
            + [f"{rep.map_at[k]:.6f}" for k in cfg["map_ks"]]
            + [f"{rep.recall_at[k]:.6f}" for k in cfg["recall_ks"]]
        )
    with open(cfg["out"], "w") as fh:
        for row in table:
            fh.write("\t".join(row) + "\n")
    _write_meta(cfg["out"], cfg)
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def cmd_ablate(cfg: dict) -> int:
    _require(len(cfg["counts"]) > 0, "--counts", "a non-empty list", cfg["counts"])
    _require(cfg["k"] >= 0, "--k", "non-negative", cfg["k"])
    queries, gallery, _ = _load_pair(cfg)
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
    _write_meta(cfg["out"], cfg)
    for r in rows:
        print(f"locals<={r['count']:4d}  mAP={r['map']:.4f}  "
              f"mean_locals={r['mean_locals']:.2f}  distinct_cells={r['mean_distinct_cells']:.2f}")
    return 0


def cmd_correspond(cfg: dict) -> int:
    queries, gallery, _ = _load_pair(cfg)
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
        "config_digest": config_digest(cfg),
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    name = args.command
    _, flags, runner = COMMANDS[name]
    try:
        if args.config:  # the file's flags go first, so the command line's win
            args = parser.parse_args([name, *_config_tokens(args.config, flags), *argv[1:]])
        cfg = vars(args)
        for f in flags:
            if f.required and cfg[f.key] is None:
                raise ConfigError(f"missing required flag {f.name}")
        return runner(cfg)
    except ConfigError as exc:
        print(f"{PROG} {name}: configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, IntegrityError, OSError) as exc:
        print(f"{PROG} {name}: data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"{PROG} {name}: numerical abort: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"{PROG} {name}: out of memory: its sizing flags ask for more than is available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
