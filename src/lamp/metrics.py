"""Losses, parameter sweeps, predictive-power maps, sensor placement.

All losses are reported in normalized (standardized) units and always against
the noise-free target, so noise-variance comparisons stay consistent across
configurations.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .attention import (
    DEFAULT_ERROR_FLOOR,
    AttentionModel,
    predict_masked,
    reconstruct,
    train_attention_model,
)
from .errors import NumericalError, ValidationError, each
from .patches import (
    MaskSpec,
    NormStats,
    PatchGrid,
    SnapshotSet,
    SplitSpec,
    check_positive,
    check_int,
    check_ridge,
    check_seed,
    freeze,
    patchify,
    positive_int,
    sensor_count,
    split_standardized,
)
from .pod import ae_loss, encode
from .synthetic import add_noise_fixed, noise_sigma2, observe


def pred_loss(recon: SnapshotSet, truth: SnapshotSet) -> float:
    """Mean squared error per element between two geometrically equal sets."""
    if recon.data.shape != truth.data.shape:
        raise ValidationError(
            f"geometry mismatch: {recon.data.shape} vs {truth.data.shape}"
        )
    diff = recon.data - truth.data
    return float(np.mean(diff * diff))


def noise_variance_normalized(sigma2: float, stats: NormStats) -> float:
    """Noise variance expressed in normalized units.

    Isotropic noise of variance sigma^2 in raw units becomes sigma^2/std_c^2
    per component after standardization; the per-element mean over components
    is the value masked reconstructions are compared against.
    """
    return sigma2 * float(np.mean(1.0 / stats.std**2))


@dataclass(frozen=True, eq=False)
class PowerMap:
    """Predictive power per source patch, reshapeable to the patch grid."""

    grid: PatchGrid
    values: np.ndarray  # (N,)

    def __post_init__(self):
        freeze(self, "values", (self.grid.n_patches,))

    def as_grid(self) -> np.ndarray:
        return self.values.reshape(self.grid.rows, self.grid.cols)


def predictive_power(model: AttentionModel) -> PowerMap:
    """Mean confidence of each source patch predicting all other patches.

    value(n) = mean over m != n of -log(max(pair_loss[m, n], floor)).  The
    diagonal is excluded: self-loss is zero by construction and would
    dominate the log.  Uses training pair losses, so sensor placement never
    peeks at test data.
    """
    n = model.n_patches
    if n < 2:
        raise ValidationError("predictive power needs at least two patches")
    neg_log = -np.log(np.maximum(model.pair_losses, model.error_floor))
    col_mean = (neg_log.sum(axis=0) - np.diag(neg_log)) / (n - 1)
    return PowerMap(model.grid, col_mean)


def place_sensors(power: PowerMap, count: int) -> MaskSpec:
    """Unmask the ``count`` patches of highest predictive power.

    Ties are broken toward the lower patch index, so placement is
    deterministic.
    """
    n = power.grid.n_patches
    if not 1 <= check_int("sensor count", count) <= n:
        raise ValidationError(f"sensor count must be in [1, {n}], got {count}")
    order = np.lexsort((np.arange(n), -power.values))
    return MaskSpec(tuple(int(i) for i in order[:count]), n)


@dataclass(frozen=True)
class SweepAxes:
    """Cartesian axes of a sweep over (P, N_e, SNR, coverage)."""

    patch_sizes: tuple[int, ...]
    latent_dims: tuple[int, ...]
    snr_dbs: tuple[float, ...] = (math.inf,)
    coverages: tuple[float, ...] = (0.1,)

    def __post_init__(self):
        # Checked here, before any training: a patch size that does not
        # divide the field is not an error but a skipped cell (see run_sweep).
        valid = {
            "patch_sizes": ("positive integers", positive_int),
            "latent_dims": ("positive integers", positive_int),
            "snr_dbs": ("finite or +inf", lambda v: math.isfinite(v) or v == math.inf),
            "coverages": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
        }
        for name, (rule, ok) in valid.items():
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValidationError(f"{name} axis is empty")
            if len(set(vals)) < len(vals):
                raise ValidationError(f"{name} axis repeats a value: {vals}")
            bad = [v for v in vals if not ok(v)]
            if bad:
                raise ValidationError(f"{name} must be {rule}, got {bad}")
            object.__setattr__(self, name, vals)


@dataclass(frozen=True)
class SweepCell:
    """One (P, N_e, SNR, coverage) combination of a sweep.

    The first four fields are the cell's coordinates; a skipped cell has
    ``skip_reason`` set and None in place of its three measured values.
    """

    patch_size: int
    latent_dim: int
    snr_db: float
    coverage: float
    median_pred_loss: float | None
    ae_loss: float | None
    noise_variance: float | None
    n_arrangements: int
    seed: int
    skip_reason: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """A sweep's cells, in the product order of its axes: (P, N_e, SNR, coverage)."""

    cells: tuple[SweepCell, ...]


def derive_seed(*keys: int) -> int:
    """Stable child seed from integer keys (order-sensitive, reproducible)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0])


def _float_key(x: float) -> int:
    """Bit pattern of a float as a seedable integer (handles inf)."""
    return struct.unpack("<q", struct.pack("<d", float(x)))[0] & 0x7FFFFFFFFFFFFFFF


#: Largest relative gap allowed between a latent-space loss and the same
#: evaluation scored in pixel space; rounding alone stays below ~1e-11.
LATENT_LOSS_RTOL = 1e-6


def run_sweep(
    dataset: SnapshotSet,
    axes: SweepAxes,
    *,
    n_arrangements: int = 25,
    seed: int = 0,
    split_spec: SplitSpec = SplitSpec(),
    ridge_lambda: float | None = None,
    error_floor: float = DEFAULT_ERROR_FLOOR,
    use_intercept: bool = True,
    copy_through: bool = True,
) -> SweepResult:
    """Train/evaluate every axis combination and aggregate the median loss.

    For each (P, N_e): train on the (noise-free) train split, then for each
    (SNR, coverage) evaluate the masked-reconstruction loss on the test split
    over ``n_arrangements`` random mask draws and keep the median.  Each cell
    also records the test autoencoding floor and the normalized noise
    variance (zero when noise-free).  Invalid combinations become skipped
    cells with a reason instead of failing the sweep, among them a coverage
    that observes one patch when ``copy_through`` is off; invalid training
    options fail it before any training.

    The POD of each patch size is fitted once, at its largest N_e in range;
    the smaller N_e train on its leading modes, which equal their own fits
    bit for bit unless a patch's POD route depends on N_e
    (:meth:`lamp.pod.PatchPodModel.truncate`).

    ``dataset`` is expected in unnormalized units; it is standardized here
    with statistics frozen on the train block.  Mask and noise seeds derive
    from ``seed`` and the cell coordinates, not from N_e, so every model of
    a patch size is scored on the same masks and noise.

    Patch sizes run one after another, so the sweep holds one patch size's
    models at a time.  Its (coverage, arrangement) jobs are scored in latent
    space through :func:`lamp.errors.each`; the first, on the calling thread,
    is also checked in pixel space.  Every loss has its own slot, so no cell
    depends on the thread count, and a failure raised is the first one in
    the serial (P, coverage, arrangement) order.
    """
    if dataset.norm_stats is not None:
        raise ValidationError("run_sweep expects an unnormalized dataset")
    if check_int("n_arrangements", n_arrangements) < 1:
        raise ValidationError(f"n_arrangements must be at least 1, got {n_arrangements}")
    check_seed(seed)
    check_ridge(ridge_lambda)
    check_positive("error_floor", error_floor)
    train_norm, test_norm, test_raw = split_standardized(dataset, split_spec)
    sigma2s = {snr: noise_sigma2(test_raw, snr) for snr in axes.snr_dbs}
    fit = dict(ridge_lambda=ridge_lambda, error_floor=error_floor, use_intercept=use_intercept)
    cells: list[SweepCell] = []
    for p in axes.patch_sizes:
        models, skipped, pod = {}, {}, None
        for ne in sorted(axes.latent_dims, reverse=True):
            try:
                models[ne] = train_attention_model(train_norm, p, ne, pod=pod, **fit)
            except ValidationError as exc:
                skipped[ne] = str(exc)
                continue
            if pod is None:
                pod = models[ne].pod
        lone, jobs, size = {}, [], test_norm.data.size  # lone: coverage -> skip reason
        if models:
            grid = next(iter(models.values())).grid
            if not copy_through:  # a coverage whose one observed patch would predict itself
                lone = {
                    cov: f"coverage {cov} observes 1 of {grid.n_patches} patches; without "
                    "copy-through it has no prediction source"
                    for cov in axes.coverages if sensor_count(grid.n_patches, cov) == 1
                }
            jobs = [(cov, arr_idx) for cov in axes.coverages if cov not in lone
                    for arr_idx in range(n_arrangements)]
            series = patchify(test_norm, p)
            clean = {ne: encode(m.pod, series).values for ne, m in models.items()}
            floor_sums = {ne: ae_loss(m.pod, series, per_element=False) for ne, m in models.items()}
            del series  # not held while the next patch size trains
            losses = {key: np.empty(n_arrangements)
                      for key in itertools.product(models, sigma2s, axes.coverages)}

        def score(job: tuple[float, int]) -> None:
            """Fill each (N_e, SNR, coverage) loss slot of one (coverage, arrangement).

            One mask, and one noise field per SNR on it, serve every N_e.  The
            observed patch vectors are :func:`observe`'s, encoded as
            :func:`reconstruct` encodes them.  The bases are orthonormal, so the
            pixel-space error ||U z_hat - x||^2 is ||z_hat - U^T x||^2 plus the
            floor ||(I - U U^T) x||^2.  The first job then scores its first SNR
            in pixel space too (:func:`add_noise_fixed`, :func:`reconstruct`,
            :func:`pred_loss`); a gap over ``LATENT_LOSS_RTOL`` is NumericalError.
            """
            cov, arr_idx = job
            cov_key = int(round(cov * 1e9))
            mask = MaskSpec.random(grid.n_patches, cov, derive_seed(seed, 0, p, cov_key, arr_idx))
            sources = np.asarray(mask.unmasked, dtype=np.intp)
            noise_seeds = {snr: derive_seed(seed, 1, p, cov_key, arr_idx, _float_key(snr))
                           for snr in sigma2s}
            for snr, sigma2 in sigma2s.items():
                x_in = observe(test_norm, mask, sigma2, noise_seeds[snr], grid)  # (k, T, D)
                for ne, model in models.items():
                    observed = np.matmul(x_in, model.pod.bases[sources])  # (k, T, N_e)
                    err = predict_masked(model, observed, mask, copy_through) - clean[ne]
                    losses[ne, snr, cov][arr_idx] = (np.sum(err * err) + floor_sums[ne]) / size
            if job == jobs[0]:
                snr = axes.snr_dbs[0]
                test_in = add_noise_fixed(test_norm, mask, sigma2s[snr], noise_seeds[snr], grid)
                for ne, model in models.items():
                    loss = float(losses[ne, snr, cov][arr_idx])
                    pixel = pred_loss(reconstruct(model, test_in, mask, copy_through), test_norm)
                    if not math.isclose(loss, pixel, rel_tol=LATENT_LOSS_RTOL, abs_tol=1e-12):
                        raise NumericalError(
                            f"latent-space loss {loss!r} disagrees with pixel-space loss "
                            f"{pixel!r} at P={p}, N_e={ne}"
                        )

        each(score, jobs)
        for ne, snr, cov in itertools.product(axes.latent_dims, axes.snr_dbs, axes.coverages):
            reason = skipped.get(ne) or lone.get(cov)
            measured = (None, None, None) if reason else (
                float(np.median(losses[ne, snr, cov])), floor_sums[ne] / size,
                noise_variance_normalized(sigma2s[snr], train_norm.norm_stats),
            )
            cells.append(SweepCell(p, ne, snr, cov, *measured, n_arrangements, seed, reason))
    return SweepResult(tuple(cells))
