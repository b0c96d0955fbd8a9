"""On-disk formats: datasets, models, PPM heatmaps, manifests, CSV.

Binary layouts (all little-endian, f64 values):

LAMP-DS v1 (magic ``LAMPDS01``)
    u32 H, W, C, T; u8 normalized flag; if normalized, C pairs of f64
    (mean, std); then T*H*W*C f64 values in snapshot-major, row-major,
    component-fastest order.

LAMP-MODEL v1 (magic ``LAMPMD01``)
    u32 H, W, C, P, N_e; u8 intercept flag; f64 ridge lambda (negative
    encodes the automatic scale-aware policy); f64 error floor; C pairs of
    f64 norm stats; N blocks of D*N_e f64 (bases, column-major per block);
    N vectors of N_e f64 (singular values); N^2 blocks of N_e*N_e f64
    (value maps, row-major by (m, n), row-major inside each block);
    N^2 * N_e f64 (attention vectors); N^2 f64 (intercepts); N^2 f64
    (mean pair losses).

Readers reject unknown magic bytes and any trailing or missing bytes.
Writers are deterministic, so save/load/save round-trips are byte-identical.
All files are written atomically (temp file + rename); datasets and models
are streamed to the temp file array by array, with no in-memory copy.

PPM heatmaps use a piecewise-linear blue-white-red colormap with anchors
(0,0,255) at t=0, (255,255,255) at t=0.5, (255,0,0) at t=1, where t maps
[vmin, vmax] linearly onto [0, 1]; a constant field renders as white.
Channels are rounded to the nearest integer.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .attention import RIDGE_SCALE, AttentionModel
from .errors import FormatError, ValidationError
from .patches import MaskSpec, NormStats, PatchGrid, SnapshotSet, pixel_mask
from .pod import PatchPodModel

DATASET_MAGIC = b"LAMPDS01"
MODEL_MAGIC = b"LAMPMD01"
DATASET_FORMAT = "LAMP-DS v1"
MODEL_FORMAT = "LAMP-MODEL v1"


def _atomic_write(path: str | Path, chunks: Iterable) -> None:
    """Stream bytes-like chunks to a temp file in the same directory, then
    rename it into place; on any error neither the temp file nor ``path`` is left."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _f64(arr: np.ndarray) -> np.ndarray:
    """``arr`` as contiguous little-endian f64, a chunk for :func:`_atomic_write`."""
    return np.ascontiguousarray(arr, dtype="<f8")


class _Cursor:
    """Sequential reader over a file's bytes with exhaustion checks.

    The file is read once into a buffer shifted so that the byte at offset
    ``f64_offset`` (the first f64 of the format) is 8-byte aligned; every
    later f64 field then is too, as all fields after it are f64.  ``floats``
    returns read-only views into that buffer, with no copy.
    """

    def __init__(self, path: str | Path, f64_offset: int):
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            raw = np.empty(size + 8, np.uint8)
            shift = -(raw.ctypes.data + f64_offset) % 8
            size = handle.readinto(memoryview(raw)[shift : shift + size])
        self.buf = memoryview(raw)[shift : shift + size].toreadonly()
        self.pos = 0
        self.label = str(path)

    def take(self, count: int) -> memoryview:
        if self.pos + count > len(self.buf):
            raise FormatError(f"{self.label}: truncated file")
        out = self.buf[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * 8), dtype="<f8")

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(
                f"{self.label}: {len(self.buf) - self.pos} trailing bytes"
            )


# Datasets -------------------------------------------------------------------

def _dataset_chunks(fields: SnapshotSet):
    stats = fields.norm_stats
    yield DATASET_MAGIC + struct.pack(
        "<4IB", fields.height, fields.width, fields.components, fields.snapshots,
        1 if stats is not None else 0,
    )
    if stats is not None:
        yield _f64(np.stack([stats.mean, stats.std], axis=1))  # (mean, std) pairs
    yield _f64(fields.data)


def write_dataset(fields: SnapshotSet, path: str | Path) -> None:
    _atomic_write(path, _dataset_chunks(fields))


def read_dataset(path: str | Path) -> SnapshotSet:
    cur = _Cursor(path, f64_offset=len(DATASET_MAGIC) + 4 * 4 + 1)
    magic = bytes(cur.take(8))
    if magic != DATASET_MAGIC:
        raise FormatError(f"{path}: unknown magic {magic!r}, expected {DATASET_MAGIC!r}")
    h, w, c, t = cur.unpack("<4I")
    if min(h, w, c, t) < 1:
        raise FormatError(f"{path}: invalid dimensions H={h} W={w} C={c} T={t}")
    (flag,) = cur.unpack("<B")
    if flag not in (0, 1):
        raise FormatError(f"{path}: invalid normalized flag {flag}")
    pairs = cur.floats(2 * c).reshape(c, 2) if flag else None
    data = cur.floats(t * h * w * c).reshape(t, h, w, c)
    cur.finish()
    try:
        stats = None if pairs is None else NormStats(pairs[:, 0], pairs[:, 1])
        return SnapshotSet(data, norm_stats=stats)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# Models ---------------------------------------------------------------------

def model_nbytes(height: int, width: int, components: int, patch_size: int, latent_dim: int) -> int:
    """Serialized size of a model with this geometry, in bytes."""
    grid = PatchGrid(height, width, components, patch_size)
    n, d, e = grid.n_patches, grid.patch_dim, latent_dim
    header = 8 + 5 * 4 + 1 + 8 + 8 + components * 16
    return header + 8 * (n * d * e + n * e + n * n * e * e + n * n * e + 2 * n * n)


def _model_chunks(model: AttentionModel):
    grid, stats = model.grid, model.norm_stats
    ridge = -RIDGE_SCALE if model.ridge_lambda is None else model.ridge_lambda
    yield MODEL_MAGIC + struct.pack(
        "<5IB2d", grid.height, grid.width, grid.components, grid.patch_size,
        model.latent_dim, 1 if model.use_intercept else 0, ridge, model.error_floor,
    )
    yield _f64(np.stack([stats.mean, stats.std], axis=1))  # (mean, std) pairs
    for basis in model.pod.bases:
        yield _f64(basis.T)  # column-major block
    for arr in (model.pod.singular_values, model.value_maps, model.attn_vectors,
                model.attn_intercepts, model.pair_losses):
        yield _f64(arr)


def write_model(model: AttentionModel, path: str | Path) -> None:
    _atomic_write(path, _model_chunks(model))


def read_model(path: str | Path) -> AttentionModel:
    cur = _Cursor(path, f64_offset=len(MODEL_MAGIC) + 5 * 4 + 1)
    magic = bytes(cur.take(8))
    if magic != MODEL_MAGIC:
        raise FormatError(f"{path}: unknown magic {magic!r}, expected {MODEL_MAGIC!r}")
    h, w, c, p, e = cur.unpack("<5I")
    try:
        grid = PatchGrid(h, w, c, p)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    n, d = grid.n_patches, grid.patch_dim
    if not 1 <= e <= d:
        raise FormatError(f"{path}: latent dimension {e} out of range for D={d}")
    need = model_nbytes(h, w, c, p, e)
    if len(cur.buf) < need:  # checked before the arrays are allocated
        raise FormatError(
            f"{path}: truncated file ({len(cur.buf)} bytes, header needs {need})"
        )
    (intercept_flag,) = cur.unpack("<B")
    if intercept_flag not in (0, 1):
        raise FormatError(f"{path}: invalid intercept flag {intercept_flag}")
    ridge, floor = cur.unpack("<2d")
    pairs = cur.floats(2 * c).reshape(c, 2)
    bases = cur.floats(n * d * e).reshape(n, e, d).transpose(0, 2, 1)  # column-major blocks
    svals = cur.floats(n * e).reshape(n, e)
    value_maps = cur.floats(n * n * e * e).reshape(n, n, e, e)
    attn_vectors = cur.floats(n * n * e).reshape(n, n, e)
    intercepts = cur.floats(n * n).reshape(n, n)
    pair_losses = cur.floats(n * n).reshape(n, n)
    cur.finish()
    try:
        return AttentionModel(
            pod=PatchPodModel(grid, int(e), bases, svals),
            norm_stats=NormStats(pairs[:, 0], pairs[:, 1]),
            value_maps=value_maps,
            attn_vectors=attn_vectors,
            attn_intercepts=intercepts,
            pair_losses=pair_losses,
            ridge_lambda=None if ridge < 0 else ridge,
            error_floor=floor,
            use_intercept=bool(intercept_flag),
        )
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# Images ---------------------------------------------------------------------

_ANCHORS = np.array([[0.0, 0.0, 255.0], [255.0, 255.0, 255.0], [255.0, 0.0, 0.0]])


def heatmap_rgb(values: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    """Map a (H, W) value array to (H, W, 3) uint8 via the blue-white-red map."""
    values = np.asarray(values, dtype=np.float64)
    if vmax > vmin:
        t = np.clip((values - vmin) / (vmax - vmin), 0.0, 1.0)
    else:
        t = np.full_like(values, 0.5)
    lower = _ANCHORS[0] + (_ANCHORS[1] - _ANCHORS[0]) * (2.0 * t)[..., None]
    upper = _ANCHORS[1] + (_ANCHORS[2] - _ANCHORS[1]) * (2.0 * t - 1.0)[..., None]
    rgb = np.where((t < 0.5)[..., None], lower, upper)
    return np.rint(rgb).astype(np.uint8)


def outline_masked(rgb: np.ndarray, grid: PatchGrid, mask: MaskSpec) -> np.ndarray:
    """Black 1-pixel borders around every masked patch."""
    edge = np.ones((grid.patch_size, grid.patch_size), dtype=bool)
    edge[1:-1, 1:-1] = False  # a patch's 1-pixel border
    out = rgb.copy()
    out[~pixel_mask(grid, mask) & np.tile(edge, (grid.rows, grid.cols))] = 0
    return out


def ppm_bytes(rgb: np.ndarray) -> bytes:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValidationError(f"PPM payload must be (H, W, 3) uint8, got {rgb.shape}")
    h, w = rgb.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes()


def write_ppm(rgb: np.ndarray, path: str | Path) -> None:
    _atomic_write(path, (ppm_bytes(rgb),))


def check_image_index(fields: SnapshotSet, snapshot: int, component: int) -> None:
    """Reject a snapshot or component index that :func:`render_field` cannot draw."""
    if not 0 <= snapshot < fields.snapshots:
        raise ValidationError(f"snapshot index {snapshot} out of range")
    if not 0 <= component < fields.components:
        raise ValidationError(f"component index {component} out of range")


def render_field(
    fields: SnapshotSet,
    snapshot: int,
    component: int,
    mask: MaskSpec | None = None,
    grid: PatchGrid | None = None,
) -> tuple[np.ndarray, float, float]:
    """Heatmap of one component of one snapshot; returns (rgb, vmin, vmax)."""
    if grid is not None:
        grid.check_fields(fields)
    check_image_index(fields, snapshot, component)
    plane = fields.data[snapshot, :, :, component]
    vmin, vmax = float(plane.min()), float(plane.max())
    rgb = heatmap_rgb(plane, vmin, vmax)
    if mask is not None:
        if grid is None:
            raise ValidationError("masked rendering needs the patch grid")
        rgb = outline_masked(rgb, grid, mask)
    return rgb, vmin, vmax


# Manifests and CSV ----------------------------------------------------------

def manifest_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_manifest(payload: dict, path: str | Path) -> None:
    _atomic_write(path, (manifest_bytes(payload),))


def read_manifest(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):  # np.float64 subclasses float
        return repr(float(value))
    return str(value)


def csv_bytes(header: list[str], rows: list[list]) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_value(v) for v in row])
    return out.getvalue().encode("utf-8")


def write_csv(header: list[str], rows: list[list], path: str | Path) -> None:
    _atomic_write(path, (csv_bytes(header, rows),))
