"""Field geometry: normalization, patches and masks over them, dataset splits.

A snapshot set is a time series of 2D multi-component fields stored as a
(T, H, W, C) float64 array.  Patching cuts each snapshot into non-overlapping
P x P tiles and flattens them into vectors of dimension D = C * P**2.

Patch ordering convention (fixed so model files are portable and tests are
bit-exact): patches are enumerated row-major over the patch grid, and within
a patch the pixels are flattened row-major with the component index varying
fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Bytes of one block of a streamed pass (standardization statistics, noise
#: draws): a block is made and used at once, so it should stay in L2 cache.
BLOCK_BYTES = 256 * 1024


def freeze(
    obj, field: str, shape: tuple[int, ...] | None = None, *, finite: bool = True
) -> np.ndarray:
    """Store array field ``field`` of frozen dataclass ``obj`` as a read-only
    C-contiguous float64 array, and return it.

    The array must have ``shape`` when one is given, and with ``finite`` no
    NaN or Inf; a failure raises :class:`ValidationError` naming the type and
    the field.  A writable C-contiguous float64 input is adopted, not copied:
    it is frozen in place, so the caller's array becomes read-only, and a
    view of it that the caller took before construction stays writable and
    still changes the instance.  Copying instead would hold every large
    array (training's value maps among them) twice at its peak.
    """
    arr = np.ascontiguousarray(np.asarray(getattr(obj, field), dtype=np.float64))
    name = f"{type(obj).__name__}.{field}"
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} shape {arr.shape} != {shape}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or Inf")
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    return arr


def _integer(value) -> bool:
    """An ``int`` or NumPy integer; ``True`` and ``False`` are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def positive_int(value) -> bool:
    """An integer of at least 1."""
    return _integer(value) and value >= 1


def check_int(name: str, value) -> int:
    """``value`` as an int if it is an integer, else ValidationError; the range
    check that follows it then compares integers only."""
    if not _integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """``seed`` as an int: NumPy seeds only from non-negative integers."""
    if not (_integer(seed) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def check_ridge(ridge_lambda: float | None) -> float | None:
    """An explicit ridge as a float; None, the caller's scale-aware default, as is."""
    if ridge_lambda is None:
        return None
    if not (math.isfinite(ridge_lambda) and ridge_lambda >= 0.0):
        raise ValidationError(f"ridge_lambda must be finite and nonnegative, got {ridge_lambda}")
    return float(ridge_lambda)


def check_positive(name: str, value: float) -> None:
    """Floors, lengths and rates must be finite and positive: a zero one divides
    by zero, and a negative length would silently act as its absolute value."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-component mean and standard deviation of a training block."""

    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)

    def __post_init__(self):
        mean = freeze(self, "mean", finite=False)
        std = freeze(self, "std", finite=False)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValidationError("norm stats mean/std length mismatch")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValidationError("norm stats must be finite")
        if np.any(std <= 0.0):
            raise ValidationError("norm stats std must be positive")


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Time series of 2D fields, shape (T, H, W, C), all values finite.

    The data array is converted to contiguous float64 and frozen
    (``writeable=False``); instances are safe to share across threads.
    ``norm_stats`` is None until :func:`normalize` has been applied (or the
    data came standardized from disk).
    """

    data: np.ndarray
    norm_stats: NormStats | None = None

    def __post_init__(self):
        shape = np.shape(self.data)
        if len(shape) != 4:
            raise ValidationError(
                f"snapshot data must have shape (T, H, W, C), got {shape}"
            )
        if min(shape) < 1:
            raise ValidationError(f"empty snapshot dimensions: {shape}")
        freeze(self, "data")
        if self.norm_stats is not None and len(self.norm_stats.mean) != shape[3]:
            raise ValidationError("norm stats do not match component count")

    def _rows(self, rows: range) -> SnapshotSet:
        """Snapshots ``rows`` as a view, not checked again: a slice of
        checked data is finite and frozen already."""
        out = object.__new__(SnapshotSet)
        object.__setattr__(out, "data", self.data[rows.start : rows.stop])
        object.__setattr__(out, "norm_stats", self.norm_stats)
        return out

    @property
    def snapshots(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def components(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class PatchGrid:
    """Geometry mapping between field pixels and flattened patch vectors."""

    height: int
    width: int
    components: int
    patch_size: int

    def __post_init__(self):
        for name in ("height", "width", "components", "patch_size"):
            v = getattr(self, name)
            if not positive_int(v):
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ValidationError(
                f"patch size {self.patch_size} does not divide field "
                f"{self.height}x{self.width}"
            )

    @property
    def rows(self) -> int:
        return self.height // self.patch_size

    @property
    def cols(self) -> int:
        return self.width // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    @property
    def patch_dim(self) -> int:
        return self.components * self.patch_size**2

    def check_fields(self, fields: SnapshotSet) -> None:
        """Reject fields whose (H, W, C) is not this grid's."""
        shape = (fields.height, fields.width, fields.components)
        if shape != (self.height, self.width, self.components):
            raise ValidationError(f"field geometry {shape} does not match model grid {self}")

    def check_mask(self, mask: MaskSpec) -> None:
        """Reject a mask over another number of patches than this grid's."""
        k, n = mask.n_patches, self.n_patches
        if k != n:
            raise ValidationError(f"mask over {k} patches does not match model grid with {n}")


def sensor_count(n_patches: int, coverage: float) -> int:
    """Unmasked patch count for a coverage fraction: round(coverage * N), at least one."""
    if not 0.0 < coverage <= 1.0:
        raise ValidationError(f"coverage must be in (0, 1], got {coverage}")
    return max(1, int(round(coverage * n_patches)))


@dataclass(frozen=True)
class MaskSpec:
    """Set of unmasked (observed) patch indices for one scenario."""

    unmasked: tuple[int, ...]
    n_patches: int

    def __post_init__(self):
        # int() would truncate 1.5 and map True to 1 without a word.
        if not (positive_int(self.n_patches) and all(_integer(i) for i in self.unmasked)):
            raise ValidationError(
                "mask indices must be integers and the patch count a positive integer, "
                f"got {self.unmasked!r} of {self.n_patches!r}"
            )
        idx = tuple(int(i) for i in self.unmasked)
        if len(set(idx)) != len(idx):
            raise ValidationError(f"duplicate unmasked indices: {idx}")
        if any(i < 0 or i >= self.n_patches for i in idx):
            raise ValidationError(
                f"unmasked indices out of range [0, {self.n_patches}): {idx}"
            )
        object.__setattr__(self, "unmasked", tuple(sorted(idx)))
        object.__setattr__(self, "n_patches", int(self.n_patches))

    @classmethod
    def random(cls, n_patches: int, coverage: float, seed: int) -> "MaskSpec":
        """Draw :func:`sensor_count` unmasked patches uniformly at random."""
        if not positive_int(n_patches):
            raise ValidationError(f"n_patches must be a positive integer, got {n_patches!r}")
        rng = np.random.default_rng(check_seed(seed))
        idx = rng.choice(n_patches, size=sensor_count(n_patches, coverage), replace=False)
        return cls(tuple(int(i) for i in idx), n_patches)

    @property
    def coverage(self) -> float:
        return len(self.unmasked) / self.n_patches

    @property
    def masked(self) -> tuple[int, ...]:
        observed = set(self.unmasked)
        return tuple(i for i in range(self.n_patches) if i not in observed)


def pixel_mask(grid: PatchGrid, mask: MaskSpec) -> np.ndarray:
    """Boolean (H, W) map of pixels covered by unmasked patches."""
    grid.check_mask(mask)
    obs = np.zeros((grid.rows, grid.cols), dtype=bool)
    for i in mask.unmasked:
        obs[i // grid.cols, i % grid.cols] = True
    return np.repeat(np.repeat(obs, grid.patch_size, axis=0), grid.patch_size, axis=1)


@dataclass(frozen=True, eq=False)
class PatchedSeries:
    """Flattened patches of a snapshot series, shape (T, N, D)."""

    grid: PatchGrid
    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 3 or shape[1:] != (self.grid.n_patches, self.grid.patch_dim):
            raise ValidationError(
                f"patched values shape {shape} inconsistent with grid "
                f"(N={self.grid.n_patches}, D={self.grid.patch_dim})"
            )
        freeze(self, "values", finite=False)

    @property
    def snapshots(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous train / gap / test split of a snapshot series.

    The gap block between train and test is discarded to reduce temporal
    leakage between the two.
    """

    train_fraction: float = 0.75
    test_fraction: float = 0.20
    gap_fraction: float = 0.05

    def __post_init__(self):
        fracs = (self.train_fraction, self.test_fraction, self.gap_fraction)
        if not all(math.isfinite(f) and f >= 0 for f in fracs):
            raise ValidationError(f"split fractions must be finite and nonnegative: {fracs}")
        if sum(fracs) > 1.0 + 1e-12:
            raise ValidationError(f"split fractions sum to more than 1: {fracs}")

    def train_range(self, snapshots: int) -> range:
        return range(0, int(self.train_fraction * snapshots))

    def test_range(self, snapshots: int) -> range:
        start = int(self.train_fraction * snapshots) + int(self.gap_fraction * snapshots)
        return range(start, start + int(self.test_fraction * snapshots))


def normalize(fields: SnapshotSet, train_range: range) -> SnapshotSet:
    """Standardize each component to zero mean, unit variance.

    Statistics are computed over ``train_range`` only (population std, so the
    training block has variance exactly 1) and applied to all snapshots.  The
    returned set carries the statistics so inference inputs can reuse them.
    """
    if len(train_range) == 0:
        raise ValidationError("train range is empty")
    if train_range.start < 0 or train_range.stop > fields.snapshots or train_range.step != 1:
        raise ValidationError(
            f"train range {train_range} outside [0, {fields.snapshots}) or non-contiguous"
        )
    mean, std = _moments(fields.data[train_range.start : train_range.stop])
    for c in range(fields.components):
        if std[c] == 0.0:
            raise ValidationError(
                f"component {c} has zero variance over the training block; "
                "cannot standardize"
            )
    stats = NormStats(mean, std)
    return apply_stats(fields, stats)


def _moments(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component mean and population std of a C-contiguous (T, H, W, C) block.

    Bit for bit ``block.mean(axis=(0, 1, 2))`` and ``block.std(axis=(0, 1, 2))``.
    For C > 1 numpy adds pixel by pixel within each component, starting from
    0.0; here each sum adds in that order, but one cache-sized block at a time,
    so no temporary is the size of ``block``: a block is copied to one row per
    component behind the running sums, and accumulated along the rows.  For
    C = 1 numpy's contiguous reduction is pairwise, so numpy computes it.
    """
    c = block.shape[-1]
    if c == 1:
        return block.mean(axis=(0, 1, 2)), block.std(axis=(0, 1, 2))
    pixels = block.reshape(-1, c)
    n = len(pixels)
    step = max(1, BLOCK_BYTES // (8 * c))  # pixels per block

    def total(mean: np.ndarray | None) -> np.ndarray:
        """Per-component sum of x, or of (x - mean)**2 given the mean."""
        buf = np.zeros((c, step + 1))  # column 0 carries the running sums
        for lo in range(0, n, step):
            rows = pixels[lo : lo + step].T
            part = buf[:, : 1 + rows.shape[1]]
            terms = part[:, 1:]
            terms[...] = rows
            if mean is not None:
                terms -= mean[:, None]
                np.square(terms, out=terms)
            np.add.accumulate(part, axis=1, out=part)
            buf[:, 0] = part[:, -1]
        return buf[:, 0]

    mean = total(None) / n
    return mean, np.sqrt(total(mean) / n)


def apply_stats(fields: SnapshotSet, stats: NormStats) -> SnapshotSet:
    """Standardize with previously fitted statistics (frozen, no refit)."""
    if len(stats.mean) != fields.components:
        raise ValidationError("norm stats do not match component count")
    rows, mean, std = _pixel_rows(fields, stats)
    data = rows - mean
    data /= std
    return SnapshotSet(data.reshape(fields.data.shape), norm_stats=stats)


def denormalize(fields: SnapshotSet) -> SnapshotSet:
    """Invert :func:`normalize`, returning data in original units."""
    if fields.norm_stats is None:
        raise ValidationError("snapshot set carries no normalization stats")
    rows, mean, std = _pixel_rows(fields, fields.norm_stats)
    data = rows * std
    data += mean
    return SnapshotSet(data.reshape(fields.data.shape), norm_stats=None)


def _pixel_rows(fields: SnapshotSet, stats: NormStats) -> tuple[np.ndarray, ...]:
    """The data as (T*H, W*C) rows, and the stats' mean and std tiled along a row.

    The same per-element arithmetic as broadcasting the (C,) stats over
    (T, H, W, C), but with inner loops of length W*C instead of C.
    """
    w = fields.width
    return fields.data.reshape(-1, w * fields.components), np.tile(stats.mean, w), np.tile(stats.std, w)


def patchify(fields: SnapshotSet, patch_size: int) -> PatchedSeries:
    """Cut every snapshot into flattened non-overlapping patches.

    Output shape is (T, N, D) under the documented ordering; the operation is
    a pure reindexing, so :func:`unpatchify` inverts it bit-exactly.
    """
    grid = PatchGrid(fields.height, fields.width, fields.components, patch_size)
    blocks = patch_blocks(fields.data, grid)
    values = blocks.reshape(fields.snapshots, grid.n_patches, grid.patch_dim)
    return PatchedSeries(grid, values)


def patch_vectors(data: np.ndarray, grid: PatchGrid, patches: np.ndarray) -> np.ndarray:
    """Flattened vectors of the listed patches of a (T, H, W, C) array, (k, T, D).

    The same ordering as :func:`patchify`, patch-major, with no copy of the
    other patches and no check of the values.
    """
    blocks = patch_blocks(data, grid).transpose(1, 2, 0, 3, 4, 5)  # (rows, cols, T, P, P, C)
    return blocks[patches // grid.cols, patches % grid.cols].reshape(
        len(patches), len(data), grid.patch_dim
    )


def patch_blocks(data: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """(T, H, W, C) as a (T, rows, cols, P, P, C) view of the patches."""
    t, p, c = data.shape[0], grid.patch_size, grid.components
    return data.reshape(t, grid.rows, p, grid.cols, p, c).transpose(0, 1, 3, 2, 4, 5)


def unpatchify(series: PatchedSeries, norm_stats: NormStats | None = None) -> SnapshotSet:
    """Reassemble a patched series into full snapshots (inverse of patchify)."""
    g = series.grid
    t, p, c = series.snapshots, g.patch_size, g.components
    blocks = series.values.reshape(t, g.rows, g.cols, p, p, c)
    data = blocks.transpose(0, 1, 3, 2, 4, 5).reshape(t, g.height, g.width, c)
    return SnapshotSet(data, norm_stats=norm_stats)


def split(fields: SnapshotSet, spec: SplitSpec = SplitSpec()) -> tuple[SnapshotSet, SnapshotSet]:
    """Split into (train, test) blocks, discarding the gap block between them."""
    t = fields.snapshots
    train_idx = spec.train_range(t)
    test_idx = spec.test_range(t)
    if len(train_idx) == 0:
        raise ValidationError(f"split of {t} snapshots leaves an empty train block")
    if len(test_idx) == 0:
        raise ValidationError(f"split of {t} snapshots leaves an empty test block")
    return fields._rows(train_idx), fields._rows(test_idx)


def split_standardized(
    raw: SnapshotSet, spec: SplitSpec, stats: NormStats | None = None
) -> tuple[SnapshotSet, SnapshotSet, SnapshotSet]:
    """Split raw fields and standardize both blocks: (train_norm, test_norm, test_raw).

    Without ``stats`` they are fitted on the train block (:func:`normalize`);
    given ``stats`` are applied frozen.  ``test_raw`` is the raw test block
    that the noise variance of an evaluation is scaled to.
    """
    train_raw, test_raw = split(raw, spec)
    if stats is None:
        train_norm = normalize(train_raw, range(train_raw.snapshots))
    else:
        train_norm = apply_stats(train_raw, stats)
    return train_norm, apply_stats(test_raw, train_norm.norm_stats), test_raw
