"""On-disk formats: datasets, models, PPM heatmaps, patch maps, manifests, CSV.

No other module of the package reads or writes what a file holds.

Binary layouts (little-endian): the 8-byte magic, the f64 arrays from byte 8,
then a trailer of the fields that size them.

LAMP-DS v2 (magic ``LAMPDS02``)
    if normalized, C pairs of f64 (mean, std); T*H*W*C f64 values in
    snapshot-major, row-major, component-fastest order; trailer: u32 H, W,
    C, T; u8 normalized flag.

LAMP-MODEL v2 (magic ``LAMPMD02``)
    C pairs of f64 norm stats; N blocks of D*N_e f64 (bases, column-major per
    block); N vectors of N_e f64 (singular values); N^2 blocks of N_e*N_e f64
    (value maps, row-major by (m, n) and inside each block); N^2 * N_e f64
    (attention vectors); N^2 f64 (intercepts); N^2 f64 (mean pair losses);
    trailer: u32 H, W, C, P, N_e; u8 intercept flag; f64 ridge lambda
    (negative for the automatic scale-aware policy); f64 error floor.

A trailer holds v1's header fields, so files keep their v1 sizes (25 or 45
bytes plus 8 per f64) and arrays are 8-byte aligned.  A layout is declared
once: a trailer ``struct.Struct`` and its f64 array shapes.  Readers map the
file read-only, reject unknown magic (v1's too), check its size before any
view is taken, and return read-only views of the mapping.  A mapped file
truncated in place raises SIGBUS, not a FormatError; the writers never do
that: they stream to a temp file, array by array, and rename it into place,
which leaves a mapped file intact.  Save/load/save is byte-identical.

PPM heatmaps use a piecewise-linear blue-white-red colormap with anchors
(0,0,255) at t=0, (255,255,255) at t=0.5, (255,0,0) at t=1, where t maps
[vmin, vmax] linearly onto [0, 1]; a constant field renders as white.
Channels are rounded to the nearest integer.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
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

DATASET_MAGIC = b"LAMPDS02"
MODEL_MAGIC = b"LAMPMD02"
DATASET_FORMAT = "LAMP-DS v2"
MODEL_FORMAT = "LAMP-MODEL v2"
_DATASET_TRAILER = struct.Struct("<4IB")  # H, W, C, T, normalized flag
_MODEL_TRAILER = struct.Struct("<5IB2d")  # H, W, C, P, N_e, intercept flag, ridge, floor


def _atomic_write(path: str | Path, head: bytes, arrays: Iterable[np.ndarray] = (),
                  tail: bytes = b"") -> None:
    """Stream ``head``, each array as f64 and ``tail`` to a temp file beside ``path``,
    then rename it into place; on any error neither the temp file nor ``path`` is left."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(head)
            for arr in arrays:
                handle.write(_f64(arr))
            handle.write(tail)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _f64(arr: np.ndarray) -> np.ndarray:
    """``arr`` as contiguous little-endian f64, a chunk for :func:`_atomic_write`."""
    return np.ascontiguousarray(arr, dtype="<f8")


def _read_trailer(path: str | Path, trailer: struct.Struct, magic: bytes) -> tuple[tuple, mmap.mmap]:
    """The trailer's fields, and the whole file mapped read-only."""
    try:
        with open(path, "rb") as handle:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError:  # mmap rejects an empty file
        raise FormatError(f"{path}: empty file, expected {magic!r}") from None
    found = buf[: len(magic)]
    if found != magic[: len(buf)]:  # a short prefix of the magic is a truncation
        raise FormatError(f"{path}: unknown magic {found!r}, expected {magic!r}")
    fixed = len(magic) + trailer.size
    if len(buf) < fixed or (len(buf) - fixed) % 8:  # no trailer where one was written
        raise FormatError(f"{path}: truncated file or trailing bytes ({len(buf)} bytes is not "
                          f"{fixed} plus a multiple of 8)")
    return trailer.unpack_from(buf, len(buf) - trailer.size), buf


def _read_arrays(path: str | Path, buf: mmap.mmap, trailer: struct.Struct, shapes: list) -> list:
    """Read-only views of the f64 ``shapes`` packed from byte 8, once the size is checked."""
    need = 8 + 8 * sum(math.prod(shape) for shape in shapes) + trailer.size
    if len(buf) < need:
        raise FormatError(f"{path}: truncated file ({len(buf)} bytes, layout needs {need})")
    if len(buf) > need:
        raise FormatError(f"{path}: {len(buf) - need} trailing bytes")
    arrays, start = [], 8
    for shape in shapes:
        arrays.append(np.frombuffer(buf, "<f8", math.prod(shape), start).reshape(shape))
        start += 8 * math.prod(shape)
    return arrays


# Datasets -------------------------------------------------------------------

def write_dataset(fields: SnapshotSet, path: str | Path) -> None:
    stats = fields.norm_stats
    pairs = [] if stats is None else [np.stack([stats.mean, stats.std], axis=1)]
    trailer = _DATASET_TRAILER.pack(fields.height, fields.width, fields.components,
                                    fields.snapshots, len(pairs))
    _atomic_write(path, DATASET_MAGIC, [*pairs, fields.data], trailer)


def read_dataset(path: str | Path) -> SnapshotSet:
    (h, w, c, t, flag), buf = _read_trailer(path, _DATASET_TRAILER, DATASET_MAGIC)
    if min(h, w, c, t) < 1:
        raise FormatError(f"{path}: invalid dimensions H={h} W={w} C={c} T={t}")
    if flag not in (0, 1):
        raise FormatError(f"{path}: invalid normalized flag {flag}")
    # (mean, std) pairs if normalized, then the snapshots
    *pairs, data = _read_arrays(path, buf, _DATASET_TRAILER, [(c, 2)] * flag + [(t, h, w, c)])
    try:
        stats = NormStats(pairs[0][:, 0], pairs[0][:, 1]) if pairs else None
        return SnapshotSet(data, norm_stats=stats)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# Models ---------------------------------------------------------------------

def _model_shapes(grid: PatchGrid, latent_dim: int) -> list[tuple[int, ...]]:
    """Shapes of the model's f64 arrays after the magic, in file order."""
    n, d, e = grid.n_patches, grid.patch_dim, latent_dim
    return [(grid.components, 2), (n, e, d), (n, e), (n, n, e, e), (n, n, e), (n, n), (n, n)]


def model_nbytes(height: int, width: int, components: int, patch_size: int, latent_dim: int) -> int:
    """Serialized size of a model with this geometry, in bytes."""
    shapes = _model_shapes(PatchGrid(height, width, components, patch_size), latent_dim)
    return len(MODEL_MAGIC) + _MODEL_TRAILER.size + 8 * sum(math.prod(shape) for shape in shapes)


def write_model(model: AttentionModel, path: str | Path) -> None:
    grid, stats = model.grid, model.norm_stats
    ridge = -RIDGE_SCALE if model.ridge_lambda is None else model.ridge_lambda
    trailer = _MODEL_TRAILER.pack(grid.height, grid.width, grid.components, grid.patch_size,
                                  model.latent_dim, model.use_intercept, ridge, model.error_floor)
    arrays = (np.stack([stats.mean, stats.std], axis=1), model.pod.bases.transpose(0, 2, 1),
              model.pod.singular_values, model.value_maps, model.attn_vectors,
              model.attn_intercepts, model.pair_losses)
    _atomic_write(path, MODEL_MAGIC, map(np.reshape, arrays, _model_shapes(grid, model.latent_dim)),
                  trailer)


def read_model(path: str | Path) -> AttentionModel:
    (h, w, c, p, e, flag, ridge, floor), buf = _read_trailer(path, _MODEL_TRAILER, MODEL_MAGIC)
    try:
        grid = PatchGrid(h, w, c, p)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not 1 <= e <= grid.patch_dim:
        raise FormatError(f"{path}: latent dimension {e} out of range for D={grid.patch_dim}")
    if flag not in (0, 1):
        raise FormatError(f"{path}: invalid intercept flag {flag}")
    pairs, bases, svals, value_maps, attn_vectors, intercepts, pair_losses = _read_arrays(
        path, buf, _MODEL_TRAILER, _model_shapes(grid, e)
    )
    try:
        return AttentionModel(
            pod=PatchPodModel(grid, int(e), bases.transpose(0, 2, 1), svals),
            norm_stats=NormStats(pairs[:, 0], pairs[:, 1]),
            value_maps=value_maps,
            attn_vectors=attn_vectors,
            attn_intercepts=intercepts,
            pair_losses=pair_losses,
            ridge_lambda=None if ridge < 0 else ridge,
            error_floor=floor,
            use_intercept=bool(flag),
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


def write_ppm(rgb: np.ndarray, path: str | Path) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValidationError(f"PPM payload must be (H, W, 3) uint8, got {rgb.shape}")
    h, w = rgb.shape[:2]
    _atomic_write(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes())


def check_image_index(fields: SnapshotSet, snapshot: int, component: int) -> None:
    """Reject a snapshot or component index outside ``fields``, before any image is drawn."""
    if not 0 <= snapshot < fields.snapshots:
        raise ValidationError(f"snapshot index {snapshot} out of range")
    if not 0 <= component < fields.components:
        raise ValidationError(f"component index {component} out of range")


def masked_outline(grid: PatchGrid, mask: MaskSpec) -> np.ndarray:
    """(H, W) bool: the 1-pixel border of every masked patch."""
    edge = np.ones((grid.patch_size, grid.patch_size), dtype=bool)
    edge[1:-1, 1:-1] = False
    return ~pixel_mask(grid, mask) & np.tile(edge, (grid.rows, grid.cols))


def write_heatmap(values: np.ndarray, path: str | Path, scale: int = 1, outline=None) -> tuple[float, float]:
    """PPM of a 2-D value grid, coloured over the range of its finite values ((0, 0)
    if none) with NaN cells at the minimum; each cell is a ``scale``-pixel square
    and the ``outline`` pixels (bool, the image's shape) are black.  Returns (vmin, vmax)."""
    finite = np.isfinite(values)
    vmin = float(values[finite].min()) if finite.any() else 0.0
    vmax = float(values[finite].max()) if finite.any() else 0.0
    rgb = heatmap_rgb(np.where(finite, values, vmin), vmin, vmax)
    rgb = np.repeat(np.repeat(rgb, scale, axis=0), scale, axis=1)
    if outline is not None:
        if outline.shape != rgb.shape[:2]:
            raise ValidationError(f"outline shape {outline.shape} != image shape {rgb.shape[:2]}")
        rgb[outline] = 0
    write_ppm(rgb, path)
    return vmin, vmax


# Manifests, CSV and patch maps ----------------------------------------------

def write_manifest(payload: dict, path: str | Path) -> None:
    _atomic_write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


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


def write_csv(header: list[str], rows: list[list], path: str | Path) -> None:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_value(v) for v in row])
    _atomic_write(path, out.getvalue().encode("utf-8"))


_PATCH_MAP_COLUMNS = ["patch_index", "row", "col", "value"]  # a row per patch, in order


def write_patch_map(values: np.ndarray, grid: PatchGrid, path: str | Path) -> None:
    rows = [[i, i // grid.cols, i % grid.cols, float(v)] for i, v in enumerate(values)]
    write_csv(_PATCH_MAP_COLUMNS, rows, path)


def read_patch_map(path: str | Path, grid: PatchGrid) -> np.ndarray:
    """The (N,) values of a patch map, placed by ``patch_index``; its ``row`` and
    ``col`` columns, if it has them, must be those of ``grid``."""
    n = grid.n_patches
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            # Without this, a headerless file's first row would pass as its header.
            if not {"patch_index", "value"} <= set(reader.fieldnames or ()):
                raise FormatError(f"{path}: not a power-map CSV: header {reader.fieldnames}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: power map is not UTF-8 text: {exc}") from exc
    if len(rows) != n:
        raise ValidationError(f"power map {path} has {len(rows)} patches, expected {n}")
    try:
        indices = [int(row["patch_index"]) for row in rows]
        values = [float(row["value"]) for row in rows]
        cells = [(int(r["row"]), int(r["col"])) for r in rows if {"row", "col"} <= r.keys()]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a power-map CSV: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise FormatError(f"{path}: power-map values must be finite")
    if sorted(indices) != list(range(n)):
        raise FormatError(f"{path}: patch_index must list each of 0..{n - 1} once")
    if cells and cells != [divmod(i, grid.cols) for i in indices]:
        raise ValidationError(f"power map {path} is over another grid than {grid.rows}x{grid.cols}")
    out = np.empty(n)
    out[indices] = values
    return out
