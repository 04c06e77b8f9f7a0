"""Descriptor datasets: data model, binary persistence, synthetic generation.

An image is a global descriptor plus up to L local descriptors, each local
carrying a pixel position (u, v) and an index into a predefined set of
extraction scales.  Records are columnar, one array per field (``ImageRecord``
states the arrays and the checks made when a record is built).  Descriptors
are stored as written; consumers normalize them via ``normalize_records``.

Wire format, file extension ``.rrtd``, read by ``rrt.wire.Reader`` (header
and error policy there):

    magic "RRTD" | u32 version=1
    u32 d_g_raw | u16 d_l | u8 n_scales | n_scales x f32 scale_values
    u32 n_images
    per image: u32 id | u32 label | d_g_raw x f32 global | u16 L_actual
               per local: d_l x f32 vec | f32 u | f32 v | u8 scale_index

A local is one item of the packed structured dtype ``_local_dtype(d_l)``: vec
<f4 x d_l, u <f4, v <f4, s u1, itemsize 4*d_l + 9.  A record's locals are read
with one ``np.frombuffer`` and written with one ``tobytes``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError
from .wire import Reader, uint_limits

__all__ = [
    "ImageRecord",
    "SynthConfig",
    "l2_normalize",
    "l2_normalize_rows",
    "normalize_records",
    "records_by_id",
    "save_dataset",
    "load_dataset",
    "export_labels_tsv",
    "synth_generate",
    "part_prototypes",
    "grid_dedup_count",
]

MAGIC = b"RRTD"
VERSION = 1
U32_MAX = 0xFFFFFFFF
_DIMS = "<IHB"  # d_g_raw | d_l | n_scales
_N_LOCALS = "<H"  # L_actual

# Extraction ladder: seven scales from 0.25 to 2.0 in sqrt(2) steps, stored
# as exact float32 values so manifests survive the on-disk f32 encoding.
DEFAULT_SCALES = tuple(float(np.float32(0.25 * 2 ** (i / 2))) for i in range(7))


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """One image's descriptors, one array per field: ``global_desc`` float32
    [d_g_raw], and, row k being local k in file order, ``vecs`` float32 [n,
    d_l], ``uv`` float32 [n, 2] pixel positions and ``scale_idx`` uint8 [n]
    indices into the manifest's scales.  Building a record makes the four
    arrays read-only arrays of those dtypes (views, so the caller's arrays
    stay writable) and checks that they are 1-D, 2-D, 2-D and 1-D, that the
    locals agree on n, and that every scale index is an integer that fits u8;
    a failure raises DataFormatError naming the record.  To change a record,
    build a new one (``dataclasses.replace`` checks it again)."""

    id: int
    label: int
    global_desc: np.ndarray
    vecs: np.ndarray
    uv: np.ndarray
    scale_idx: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.scale_idx)
        for name, dtype in (
            ("global_desc", np.float32), ("vecs", np.float32), ("uv", np.float32), ("scale_idx", np.uint8)
        ):
            a = np.asarray(getattr(self, name)).astype(dtype, copy=False)
            if a.flags.writeable:
                a = a.view()
                a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.global_desc.ndim != 1:
            raise DataFormatError(f"record {self.id}: global descriptor has shape "
                                  f"{self.global_desc.shape}, expected 1-D")
        n = len(self.vecs)
        if self.vecs.ndim != 2 or self.uv.shape != (n, 2) or self.scale_idx.shape != (n,):
            raise DataFormatError(f"record {self.id}: local arrays disagree: vecs {self.vecs.shape}, "
                                  f"uv {self.uv.shape}, scale_idx {self.scale_idx.shape}")
        if not np.array_equal(self.scale_idx, given):
            raise DataFormatError(f"record {self.id}: scale indices must be integers in [0, 255]")

    def truncated(self, max_locals: int) -> "ImageRecord":
        """Copy keeping only the first max_locals locals (file order)."""
        if max_locals < 0:
            raise ConfigError(f"max_locals must be non-negative, got {max_locals}")
        keep = slice(max_locals)
        return replace(self, vecs=self.vecs[keep], uv=self.uv[keep], scale_idx=self.scale_idx[keep])


@dataclass
class DatasetManifest:
    d_g_raw: int = 2048
    d_l: int = 128
    n_scales: int = 7
    scale_values: tuple[float, ...] = DEFAULT_SCALES
    # Provenance, carried by JSON sidecars, never by the binary format.
    name: str = field(default="", compare=False)
    seed: int | None = field(default=None, compare=False)
    n_query: int | None = field(default=None, compare=False)
    n_gallery: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.scale_values) != self.n_scales:
            raise ConfigError(
                f"manifest has {self.n_scales} scales but {len(self.scale_values)} scale values"
            )
        # Canonicalize to f32-representable values; the file stores f32.
        self.scale_values = tuple(float(np.float32(v)) for v in self.scale_values)


def l2_normalize(vec: np.ndarray) -> np.ndarray:
    """Unit-norm copy of one vector, as ``l2_normalize_rows`` makes of a row."""
    return l2_normalize_rows(np.asarray(vec)[None])[0]


def l2_normalize_rows(m: np.ndarray, ids: Sequence[int] | None = None) -> np.ndarray:
    """Unit-norm copy of each row of a 2-D array.  A zero vector has no
    direction and a vector whose norm is not finite (a NaN or infinite entry,
    or finite entries whose squared norm overflows) has no unit copy: all
    raise DataFormatError, naming ids[i] as row i's record when ids are
    given.  ``np.vecdot`` gives each row the dot product ``np.linalg.norm``
    takes of the row alone, so the bytes do not depend on the batching
    (``np.linalg.norm(axis=1)`` does not have that property)."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        norms = np.sqrt(np.vecdot(m, m))
    bad = (norms == 0.0) | ~np.isfinite(norms)
    if bad.any():
        i = int(np.argmax(bad))
        if norms[i] == 0.0:
            what = "a zero vector"
        elif np.isfinite(m[i]).all():
            what = "a vector whose norm overflows"
        else:
            what = "a vector with a non-finite norm"
        where = "" if ids is None else f"record {ids[i]}: "
        raise DataFormatError(f"{where}cannot L2-normalize {what}")
    return m / norms[:, None]


def normalize_records(records: Iterable[ImageRecord]) -> list[ImageRecord]:
    """Unit-normalize globals and locals; returns new records."""
    return [
        replace(
            r,
            vecs=l2_normalize_rows(r.vecs, [r.id] * len(r.vecs)),
            global_desc=l2_normalize_rows(r.global_desc[None], [r.id])[0],
        )
        for r in records
    ]


def records_by_id(records: Iterable[ImageRecord]) -> dict[int, ImageRecord]:
    """id -> record; an id carried by two records raises DataFormatError
    naming it, since a lookup by id could only return one of them."""
    out: dict[int, ImageRecord] = {}
    for r in records:
        if r.id in out:
            raise DataFormatError(f"record id {r.id} appears more than once; record ids must be unique")
        out[r.id] = r
    return out


# -- persistence ---------------------------------------------------------


def _local_dtype(d_l: int) -> np.dtype:
    return np.dtype([("vec", "<f4", (d_l,)), ("u", "<f4"), ("v", "<f4"), ("s", "u1")])


def save_dataset(records: Sequence[ImageRecord], manifest: DatasetManifest, path) -> None:
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack(_DIMS, manifest.d_g_raw, manifest.d_l, manifest.n_scales)
    buf += np.asarray(manifest.scale_values, dtype="<f4").tobytes()
    buf += struct.pack("<I", len(records))
    for r in records:
        g = np.asarray(r.global_desc, dtype="<f4")
        if g.shape != (manifest.d_g_raw,):
            raise ValueError(
                f"record {r.id}: global has shape {g.shape}, manifest says {manifest.d_g_raw}"
            )
        n = len(r.vecs)
        if n > uint_limits(_N_LOCALS)[0]:
            raise ValueError(f"record {r.id}: too many locals for the format")
        for name, value in (("id", r.id), ("label", r.label)):
            if not 0 <= value <= U32_MAX:
                raise DataFormatError(f"record {r.id}: {name} {value} does not fit the format's u32")
        if n and r.vecs.shape[1] != manifest.d_l:
            raise ValueError(f"record {r.id}: local dim {r.vecs.shape[1]}, manifest says {manifest.d_l}")
        if n and r.scale_idx.max() >= manifest.n_scales:
            raise ValueError(f"record {r.id}: scale index outside [0, {manifest.n_scales})")
        buf += struct.pack("<II", r.id, r.label)
        buf += g.tobytes()
        buf += struct.pack(_N_LOCALS, n)
        if n:
            locs = np.empty(n, dtype=_local_dtype(manifest.d_l))
            locs["vec"], locs["u"], locs["v"], locs["s"] = r.vecs, r.uv[:, 0], r.uv[:, 1], r.scale_idx
            buf += locs.tobytes()
    with open(path, "wb") as fh:
        fh.write(buf)


def load_dataset(path) -> tuple[list[ImageRecord], DatasetManifest]:
    """Read a descriptor file byte-exactly (no normalization applied).

    Errors report the byte offset a local-by-local read would fail at: the
    first NaN or infinite position (u or v) or bad scale byte, or the start
    of the first incomplete field (vec, or u v s).
    """
    cur = Reader(path, MAGIC, VERSION)
    d_g_raw, d_l, n_scales = cur.unpack(_DIMS)
    scale_values = tuple(float(x) for x in cur.array("<f4", n_scales))
    (n_images,) = cur.unpack("<I")
    manifest = DatasetManifest(
        d_g_raw=d_g_raw,
        d_l=d_l,
        n_scales=n_scales,
        scale_values=scale_values,
    )
    local_dt = _local_dtype(d_l)
    records = []
    for _ in range(n_images):
        rid, label = cur.unpack("<II")
        g = cur.array("<f4", d_g_raw)
        (n_loc,) = cur.unpack(_N_LOCALS)
        start = cur.off
        locs = cur.items(local_dt, n_loc)
        bad = ~np.isfinite(locs["u"]) | ~np.isfinite(locs["v"]) | (locs["s"] >= n_scales)
        if bad.any():  # the first bad field of the first bad local
            k = int(np.argmax(bad))
            name = next((f for f in "uv" if not math.isfinite(locs[f][k])), "s")
            value = locs[name][k]
            raise DataFormatError(
                f"scale index {value} outside [0, {n_scales})" if name == "s"
                else f"non-finite {name} position {value}",
                offset=start + k * local_dt.itemsize + local_dt.fields[name][1],
            )
        if len(locs) < n_loc:  # the file ends inside this local
            cur.take(4 * d_l)
            cur.take(9)
        uv = np.stack([locs["u"], locs["v"]], axis=1)
        records.append(ImageRecord(rid, label, g, locs["vec"].copy(), uv, locs["s"].copy()))
    cur.end("the last record")
    return records, manifest


def export_labels_tsv(records: Sequence[ImageRecord], path) -> None:
    """id<TAB>label, one image per line."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.id}\t{r.label}\n")


# -- synthetic generation -------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Planted-part benchmark generator knobs.

    Each instance owns ``parts_per_instance`` unit part prototypes and one
    global prototype.  Instances in a confusion pair share the global
    prototype direction (their image globals are near-duplicates) but have
    their own part sets, so only local evidence can tell them apart.  Pairing
    is (0,1), (2,3), ... up to global_confusion_pairs.  Building a config
    checks it and raises ConfigError on a bad value (``dataclasses.replace``
    checks again), so a config that exists is valid.
    """

    n_instances: int = 16
    images_per_instance: int = 8
    queries_per_instance: int = 2
    parts_per_instance: int = 6
    parts_per_image: int = 4
    locals_per_image: int = 16
    d_l: int = 32
    d_g_raw: int = 128
    n_scales: int = 7
    scale_values: tuple[float, ...] = DEFAULT_SCALES
    global_confusion_pairs: int = 8
    global_noise: float = 0.02
    local_noise: float = 0.05
    canvas: float = 1024.0
    # When set, part prototypes are rows of a fixed dictionary shared by every
    # seed (the analogue of a frozen feature extractor mapping recurring
    # patterns to stable directions); confused instances still get disjoint
    # rows.  None draws free prototypes per instance instead.
    part_codebook_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_instances", "images_per_instance", "n_scales", "d_l", "d_g_raw"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("queries_per_instance", "parts_per_instance", "parts_per_image",
                     "locals_per_image", "global_confusion_pairs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        sizes = ("d_g_raw", "d_l", "n_scales", "locals_per_image")
        for name, most in zip(sizes, uint_limits(_DIMS) + uint_limits(_N_LOCALS)):
            if (value := getattr(self, name)) > most:
                raise ConfigError(f"{name} must be at most {most} to fit a .rrtd file, got {value}")
        for name in ("global_noise", "local_noise"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {sigma}")
        if self.parts_per_image > self.parts_per_instance:
            raise ConfigError(
                f"parts_per_image {self.parts_per_image} exceeds "
                f"parts_per_instance {self.parts_per_instance}"
            )
        if self.locals_per_image < self.parts_per_image:
            raise ConfigError(
                f"locals_per_image {self.locals_per_image} below "
                f"parts_per_image {self.parts_per_image}"
            )
        if self.global_confusion_pairs * 2 > self.n_instances:
            raise ConfigError("more confusion pairs than instance pairs available")
        if self.queries_per_instance >= self.images_per_instance and self.queries_per_instance > 0:
            raise ConfigError("queries_per_instance must leave gallery images")
        if len(self.scale_values) != self.n_scales:
            raise ConfigError("scale_values length must equal n_scales")
        if self.part_codebook_size is not None and self.part_codebook_size < 2 * self.parts_per_instance:
            raise ConfigError(
                "part_codebook_size must cover two disjoint part sets"
            )


def _unit_rows(rng: np.random.Generator, shape) -> np.ndarray:
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# Seed of the shared codebook; fixed so every dataset drawn from any config
# seed sees the same dictionary directions (like a frozen extractor would).
_CODEBOOK_SEED = 0x0DDB00C


def part_codebook(size: int, d_l: int) -> np.ndarray:
    """The fixed dictionary of candidate part directions, [size, d_l]."""
    return _unit_rows(np.random.default_rng(_CODEBOOK_SEED), (size, d_l)).astype(
        np.float32
    )


def _draw_part_prototypes(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    P = cfg.parts_per_instance
    if cfg.part_codebook_size is None:
        return _unit_rows(rng, (cfg.n_instances, P, cfg.d_l)).astype(np.float32)
    book = part_codebook(cfg.part_codebook_size, cfg.d_l)
    protos = np.empty((cfg.n_instances, P, cfg.d_l), dtype=np.float32)
    if cfg.n_instances * P <= cfg.part_codebook_size:
        # Small dataset: every instance gets codewords disjoint from everyone,
        # so part overlap is evidence of identity, never chance.
        rows = rng.choice(cfg.part_codebook_size, size=cfg.n_instances * P, replace=False)
        return book[rows].reshape(cfg.n_instances, P, cfg.d_l)
    i = 0
    while i < cfg.n_instances:
        if i % 2 == 0 and i + 1 < 2 * cfg.global_confusion_pairs:
            # confused pair: one draw of 2P distinct codewords, split disjointly
            rows = rng.choice(cfg.part_codebook_size, size=2 * P, replace=False)
            protos[i] = book[rows[:P]]
            protos[i + 1] = book[rows[P:]]
            i += 2
        else:
            protos[i] = book[rng.choice(cfg.part_codebook_size, size=P, replace=False)]
            i += 1
    return protos


def part_prototypes(cfg: SynthConfig) -> np.ndarray:
    """The generator's part bank, [n_instances, parts_per_instance, d_l].

    Regenerated deterministically from the config seed; parts are drawn first
    in the generator's RNG stream, so this matches what synth_generate used.
    """
    return _draw_part_prototypes(cfg, np.random.default_rng(cfg.seed))


def synth_generate(
    cfg: SynthConfig,
) -> tuple[list[ImageRecord], list[ImageRecord], DatasetManifest]:
    """Generate (query records, gallery records, manifest) for the config.

    Deterministic per seed.  The first queries_per_instance images of each
    instance become queries; ids are globally unique across both lists.  A
    noise that overflows a norm (which would leave a zero or NaN descriptor)
    raises ConfigError naming it, as numpy raises there instead of warning.
    """
    rng = np.random.default_rng(cfg.seed)

    parts = _draw_part_prototypes(cfg, rng)

    global_protos = np.empty((cfg.n_instances, cfg.d_g_raw))
    for i in range(cfg.n_instances):
        if i % 2 == 1 and i < 2 * cfg.global_confusion_pairs:
            global_protos[i] = global_protos[i - 1]
        else:
            global_protos[i] = _unit_rows(rng, cfg.d_g_raw)

    queries: list[ImageRecord] = []
    gallery: list[ImageRecord] = []
    next_id = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for inst in range(cfg.n_instances):
                for j in range(cfg.images_per_instance):
                    noise = "local_noise"  # the noise being drawn, which the ConfigError names
                    part_ids = rng.choice(cfg.parts_per_instance, size=cfg.parts_per_image, replace=False)
                    true_locals = parts[inst, part_ids].astype(np.float64)
                    n_distract = cfg.locals_per_image - cfg.parts_per_image
                    distract = _unit_rows(rng, (n_distract, cfg.d_l)) if n_distract else np.zeros((0, cfg.d_l))
                    vecs = np.concatenate([true_locals, distract], axis=0)
                    vecs = vecs + cfg.local_noise * rng.standard_normal(vecs.shape)
                    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                    order = rng.permutation(cfg.locals_per_image)
                    vecs = vecs[order]

                    uv = rng.uniform(0.0, cfg.canvas, size=(cfg.locals_per_image, 2))
                    sidx = rng.integers(0, cfg.n_scales, size=cfg.locals_per_image)

                    noise = "global_noise"
                    g = global_protos[inst] + cfg.global_noise * rng.standard_normal(cfg.d_g_raw)
                    g = (g / np.linalg.norm(g)).astype(np.float32)

                    rec = ImageRecord(next_id, inst, g, vecs, uv, sidx)
                    next_id += 1
                    if j < cfg.queries_per_instance:
                        queries.append(rec)
                    else:
                        gallery.append(rec)
    except FloatingPointError:
        raise ConfigError(f"{noise} {getattr(cfg, noise)} leaves a descriptor whose norm is zero "
                          "or not finite") from None

    manifest = DatasetManifest(
        d_g_raw=cfg.d_g_raw,
        d_l=cfg.d_l,
        n_scales=cfg.n_scales,
        scale_values=cfg.scale_values,
        name="synthetic",
        seed=cfg.seed,
        n_query=len(queries),
        n_gallery=len(gallery),
    )
    return queries, gallery, manifest


def grid_dedup_count(record: ImageRecord, stride: int) -> int:
    """Number of distinct (floor(u/stride), floor(v/stride)) cells occupied
    by the record's locals, ignoring scale."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    return len(np.unique(np.floor_divide(record.uv, stride, dtype=np.float64), axis=0))
