"""Descriptor datasets: data model, binary persistence, synthetic generation.

An image is a global descriptor plus up to L local descriptors, each local
carrying a pixel position (u, v) and an index into a predefined set of
extraction scales.  Descriptors are stored as written (pre-normalization);
consumers normalize explicitly at index/model time via ``normalize_records``.

Wire format (little-endian), file extension ``.rrtd``:

    magic "RRTD" | u32 version=1
    u32 d_g_raw | u16 d_l | u8 n_scales | n_scales x f32 scale_values
    u32 n_images
    per image: u32 id | u32 label | d_g_raw x f32 global | u16 L_actual
               per local: d_l x f32 vec | f32 u | f32 v | u8 scale_index
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError

__all__ = [
    "LocalDescriptor",
    "ImageRecord",
    "DatasetManifest",
    "SynthConfig",
    "l2_normalize",
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

# Extraction ladder: seven scales from 0.25 to 2.0 in sqrt(2) steps, stored
# as exact float32 values so manifests survive the on-disk f32 encoding.
DEFAULT_SCALES = tuple(float(np.float32(0.25 * 2 ** (i / 2))) for i in range(7))


@dataclass
class LocalDescriptor:
    vec: np.ndarray  # float32[d_l]
    u: float
    v: float
    scale_index: int


@dataclass(eq=False)
class ImageRecord:
    """One image's descriptors.  Treated as immutable once loaded or
    generated (callers build new records instead of editing), which lets the
    model cache derived arrays per record."""

    id: int
    label: int
    global_desc: np.ndarray  # float32[d_g_raw]
    locals: list[LocalDescriptor]

    def locals_matrix(self) -> np.ndarray:
        """All local vectors stacked, shape [L_actual, d_l]."""
        if not self.locals:
            return np.zeros((0, self.global_desc.shape[0]), dtype=np.float32)
        return np.stack([l.vec for l in self.locals]).astype(np.float32, copy=False)

    def scale_indices(self) -> np.ndarray:
        return np.array([l.scale_index for l in self.locals], dtype=np.int64)

    def positions(self) -> np.ndarray:
        return np.array([[l.u, l.v] for l in self.locals], dtype=np.float32).reshape(-1, 2)

    def truncated(self, max_locals: int) -> "ImageRecord":
        """Copy keeping only the first max_locals locals (file order)."""
        return ImageRecord(self.id, self.label, self.global_desc, self.locals[:max_locals])


@dataclass
class DatasetManifest:
    d_g_raw: int = 2048
    d_l: int = 128
    n_scales: int = 7
    scale_values: tuple[float, ...] = DEFAULT_SCALES
    n_images: int = 0
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
    """Unit-norm copy.  A zero vector has no direction, and a vector whose
    norm is not finite (a NaN or infinite entry) has no unit copy; both are
    rejected."""
    v = np.asarray(vec)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DataFormatError("cannot L2-normalize a zero vector")
    if not math.isfinite(norm):
        raise DataFormatError("cannot L2-normalize a vector with a non-finite norm")
    return (v / norm).astype(v.dtype, copy=False)


def normalize_records(records: Iterable[ImageRecord]) -> list[ImageRecord]:
    """Unit-normalize globals and locals; returns new records."""
    out = []
    for r in records:
        try:
            locs = [
                LocalDescriptor(l2_normalize(l.vec), l.u, l.v, l.scale_index)
                for l in r.locals
            ]
            out.append(ImageRecord(r.id, r.label, l2_normalize(r.global_desc), locs))
        except DataFormatError as exc:
            raise DataFormatError(f"record {r.id}: {exc}") from None
    return out


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


def save_dataset(records: Sequence[ImageRecord], manifest: DatasetManifest, path) -> None:
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack("<IHB", manifest.d_g_raw, manifest.d_l, manifest.n_scales)
    buf += np.asarray(manifest.scale_values, dtype="<f4").tobytes()
    buf += struct.pack("<I", len(records))
    for r in records:
        g = np.asarray(r.global_desc, dtype="<f4")
        if g.shape != (manifest.d_g_raw,):
            raise ValueError(
                f"record {r.id}: global has shape {g.shape}, manifest says {manifest.d_g_raw}"
            )
        if len(r.locals) > 0xFFFF:
            raise ValueError(f"record {r.id}: too many locals for the format")
        for name, value in (("id", r.id), ("label", r.label)):
            if not 0 <= value <= U32_MAX:
                raise DataFormatError(f"record {r.id}: {name} {value} does not fit the format's u32")
        buf += struct.pack("<II", r.id, r.label)
        buf += g.tobytes()
        buf += struct.pack("<H", len(r.locals))
        for l in r.locals:
            v = np.asarray(l.vec, dtype="<f4")
            if v.shape != (manifest.d_l,):
                raise ValueError(
                    f"record {r.id}: local has dim {v.shape}, manifest says {manifest.d_l}"
                )
            if not 0 <= l.scale_index < manifest.n_scales:
                raise ValueError(
                    f"record {r.id}: scale index {l.scale_index} outside [0, {manifest.n_scales})"
                )
            buf += v.tobytes()
            buf += struct.pack("<ffB", l.u, l.v, l.scale_index)
    with open(path, "wb") as fh:
        fh.write(buf)


class _Cursor:
    """Byte reader that reports the failing offset on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise DataFormatError(
                f"truncated file: wanted {n} bytes, {len(self.data) - self.off} left",
                offset=self.off,
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * n), dtype="<f4").copy()


def load_dataset(path, max_locals: int | None = None) -> tuple[list[ImageRecord], DatasetManifest]:
    """Read a descriptor file byte-exactly (no normalization applied).

    max_locals truncates each image's local list by file order.
    """
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    magic = cur.take(4)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    (version,) = cur.unpack("<I")
    if version != VERSION:
        raise DataFormatError(f"unsupported version {version}", offset=4)
    d_g_raw, d_l, n_scales = cur.unpack("<IHB")
    scale_values = tuple(float(x) for x in cur.floats(n_scales))
    (n_images,) = cur.unpack("<I")
    manifest = DatasetManifest(
        d_g_raw=d_g_raw,
        d_l=d_l,
        n_scales=n_scales,
        scale_values=scale_values,
        n_images=n_images,
    )
    records = []
    for _ in range(n_images):
        rid, label = cur.unpack("<II")
        g = cur.floats(d_g_raw)
        (n_loc,) = cur.unpack("<H")
        locs = []
        for _ in range(n_loc):
            vec = cur.floats(d_l)
            u, v, sidx = cur.unpack("<ffB")
            if sidx >= n_scales:
                raise DataFormatError(
                    f"scale index {sidx} outside [0, {n_scales})", offset=cur.off - 1
                )
            locs.append(LocalDescriptor(vec, u, v, sidx))
        if max_locals is not None:
            locs = locs[:max_locals]
        records.append(ImageRecord(rid, label, g, locs))
    if cur.off != len(cur.data):
        raise DataFormatError(
            f"{len(cur.data) - cur.off} trailing bytes after the last record",
            offset=cur.off,
        )
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
    is (0,1), (2,3), ... up to global_confusion_pairs.
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

    def validate(self):
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
    cfg.validate()
    return _draw_part_prototypes(cfg, np.random.default_rng(cfg.seed))


def synth_generate(
    cfg: SynthConfig,
) -> tuple[list[ImageRecord], list[ImageRecord], DatasetManifest]:
    """Generate (query records, gallery records, manifest) for the config.

    Deterministic per seed.  The first queries_per_instance images of each
    instance become queries; ids are globally unique across both lists.
    """
    cfg.validate()
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
    for inst in range(cfg.n_instances):
        for j in range(cfg.images_per_instance):
            part_ids = rng.choice(
                cfg.parts_per_instance, size=cfg.parts_per_image, replace=False
            )
            true_locals = parts[inst, part_ids].astype(np.float64)
            n_distract = cfg.locals_per_image - cfg.parts_per_image
            distract = _unit_rows(rng, (n_distract, cfg.d_l)) if n_distract else np.zeros(
                (0, cfg.d_l)
            )
            vecs = np.concatenate([true_locals, distract], axis=0)
            vecs = vecs + cfg.local_noise * rng.standard_normal(vecs.shape)
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            order = rng.permutation(cfg.locals_per_image)
            vecs = vecs[order]

            uv = rng.uniform(0.0, cfg.canvas, size=(cfg.locals_per_image, 2))
            sidx = rng.integers(0, cfg.n_scales, size=cfg.locals_per_image)
            locs = [
                LocalDescriptor(
                    vecs[k].astype(np.float32), float(uv[k, 0]), float(uv[k, 1]), int(sidx[k])
                )
                for k in range(cfg.locals_per_image)
            ]

            g = global_protos[inst] + cfg.global_noise * rng.standard_normal(cfg.d_g_raw)
            g = (g / np.linalg.norm(g)).astype(np.float32)

            rec = ImageRecord(next_id, inst, g, locs)
            next_id += 1
            if j < cfg.queries_per_instance:
                queries.append(rec)
            else:
                gallery.append(rec)

    manifest = DatasetManifest(
        d_g_raw=cfg.d_g_raw,
        d_l=cfg.d_l,
        n_scales=cfg.n_scales,
        scale_values=cfg.scale_values,
        n_images=next_id,
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
    return len({(int(l.u // stride), int(l.v // stride)) for l in record.locals})
