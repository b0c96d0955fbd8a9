"""Closed-form latent attention: training and masked inference.

Training fits, for every ordered patch pair (m, n), a linear value map that
predicts patch m's latent code from patch n's, plus an affine confidence
model that predicts the negative log of that pair's error from the source
latent.  Both are plain ridge regressions with closed-form solutions, so
training is deterministic and has no learning rate or initialization.

Inference blends the pair-wise predictions of each target patch with softmax
weights over the confidence logits of the unmasked sources; a target's own
pair gets a -inf logit and hence exactly zero weight.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dgemm

from .errors import NumericalError, ValidationError, cholesky, each
from .patches import (
    MaskSpec,
    NormStats,
    PatchGrid,
    SnapshotSet,
    check_positive,
    check_ridge,
    freeze,
    patch_vectors,
    patchify,
    unpatchify,
)
from .pod import LatentSeries, PatchPodModel, decode, encode, fit_patch_pod

#: Relative scale of the automatic ridge: lambda = RIDGE_SCALE * tr(G) / N_e,
#: where G is the source patch's latent Gram matrix.
RIDGE_SCALE = 1e-8

#: Default floor inside log(pair error); exact pairs would otherwise produce
#: infinite regression targets.
DEFAULT_ERROR_FLOOR = 1e-12

_PREDICT_CHUNK = 128  # snapshots per inference block, bounds peak memory

#: Bytes of one block of target latents in the value fit.  The block and its
#: residual buffer (the same size) are reread once per source patch, so
#: together they should stay in a core's L2 cache.
_VALUE_BLOCK_BYTES = 600 * 1024

#: Bytes of the (N, S, T) pair errors of one block of S sources in training:
#: the block's value maps and confidence models are fitted from them, then
#: they are dropped, so no (N, N, T) array is held.
_SOURCE_BLOCK_BYTES = 8 * 1024**2


@dataclass(frozen=True, eq=False)
class AttentionModel:
    """Fitted value and attention tensors plus the compression they act on.

    value_maps[m, n] is the N_e x N_e map predicting patch m from patch n;
    attn_vectors[m, n] / attn_intercepts[m, n] give that pair's confidence
    logit as an affine function of the source latent.  pair_losses[m, n] is
    the training-mean squared pair error (diagnostics, drives the
    predictive-power map).  ridge_lambda None means the scale-aware default.
    """

    pod: PatchPodModel
    norm_stats: NormStats
    value_maps: np.ndarray       # (N, N, N_e, N_e)
    attn_vectors: np.ndarray     # (N, N, N_e)
    attn_intercepts: np.ndarray  # (N, N)
    pair_losses: np.ndarray      # (N, N)
    ridge_lambda: float | None
    error_floor: float
    use_intercept: bool

    def __post_init__(self):
        n, e = self.pod.grid.n_patches, self.pod.latent_dim
        shapes = {
            "value_maps": (n, n, e, e),
            "attn_vectors": (n, n, e),
            "attn_intercepts": (n, n),
            "pair_losses": (n, n),
        }
        for name, want in shapes.items():
            freeze(self, name, want)
        check_ridge(self.ridge_lambda)
        check_positive("error_floor", self.error_floor)
        diag = np.arange(n)
        if not np.array_equal(self.value_maps[diag, diag], np.tile(np.eye(e), (n, 1, 1))):
            raise ValidationError("diagonal value maps must be the identity")
        if np.any(self.pair_losses < 0.0) or np.any(self.pair_losses[diag, diag] != 0.0):
            raise ValidationError("pair losses must be nonnegative with a zero diagonal")

    @property
    def grid(self) -> PatchGrid:
        return self.pod.grid

    @property
    def n_patches(self) -> int:
        return self.pod.grid.n_patches

    @property
    def latent_dim(self) -> int:
        return self.pod.latent_dim


def _source_range(latent: LatentSeries, sources: range | None) -> range:
    """The source patches a fit covers: all of them, or one contiguous block."""
    n = latent.n_patches
    if sources is None:
        return range(n)
    if not (isinstance(sources, range) and sources.step == 1
            and 0 <= sources.start < sources.stop <= n):
        raise ValidationError(
            f"sources must be a nonempty range of step 1 within [0, {n}), got {sources!r}"
        )
    return sources


def _source_systems(
    latent: LatentSeries,
    ridge_lambda: float | None,
    sources: range,
    system: str,
    centre: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One block of sources' latents z (S, N_e, T), their time means (S, N_e)
    if ``centre`` (z is then centred; else None), and the lower Cholesky
    factors of z_j z_j^T + lambda_j I, from one :func:`lamp.errors.cholesky`.

    lambda_j is ``ridge_lambda`` or RIDGE_SCALE * max(tr G_j, E) / N_e, with
    G_j the uncentred Gram and E the mean energy over all N patches: the floor
    keeps a near-constant source from an unboundedly amplifying map.  A
    singular system raises NumericalError naming ``system`` and its source.
    """
    z = latent.by_patch[sources.start : sources.stop]
    grams = z @ z.transpose(0, 2, 1)
    if ridge_lambda is None:
        energy = np.maximum(np.trace(grams, axis1=1, axis2=2), latent.mean_energy)
        lams = RIDGE_SCALE * energy / latent.latent_dim
    else:
        lams = np.full(len(sources), check_ridge(ridge_lambda))
    z_mean = None
    if centre:
        z_mean = z.mean(axis=2)
        z = z - z_mean[:, :, None]
        grams = z @ z.transpose(0, 2, 1)
    mats = grams + lams[:, None, None] * np.eye(grams.shape[-1])
    failure = f"{system} of source patch {{}} is singular; pass a positive ridge_lambda"
    return z, z_mean, cholesky(mats, failure, sources)


def fit_value_tensor(
    latent: LatentSeries, ridge_lambda: float | None = None, sources: range | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fit all pair-wise value maps by ridge-regularized least squares.

    Solves W_mn = argmin_W  sum_t ||z_m(t) - W z_n(t)||^2 + lambda_n ||W||_F^2
    through the normal equations W = (Z_m Z_n^T)(Z_n Z_n^T + lambda_n I)^-1,
    with source n's ridge and Cholesky factor from :func:`_source_systems`.
    Diagonal pairs are the identity with zero error by construction.

    Returns (value_maps, pair_errors) where pair_errors[m, n, t] is the
    per-snapshot squared error, the regression target of the attention fit.

    ``sources``, a ``range`` of step 1 within [0, N), fits only the maps from
    that block of S source patches: the outputs are then (N, S, N_e, N_e)
    and (N, S, T), column j holding source ``sources[j]``, bit for bit the
    same as that column of the full fit.  None fits all N sources.
    """
    sources = _source_range(latent, sources)
    t, n, e = latent.values.shape
    if t < e:
        warnings.warn(
            f"{t} training snapshots for latent dimension {e}: pair regressions "
            "are underdetermined and rely on the ridge term",
            stacklevel=2,
        )
    s = len(sources)
    z_src, _, factors = _source_systems(latent, ridge_lambda, sources, "normal matrix")
    z = latent.by_patch.reshape(n * e, t)
    # W_mn = Z_m Z_n^T (G_nn + lambda I)^-1 = Z_m Y_n^T with Y_n the scaled source.
    scaled = np.empty_like(z_src)                                 # (S, e, T)
    for src in range(s):
        scaled[src] = cho_solve((factors[src], True), z_src[src])
    value_maps = np.empty((n, s, e, e))
    pair_errors = np.empty((n, s, t))
    block = max(1, _VALUE_BLOCK_BYTES // (8 * e * t))             # targets per block

    def fit_targets(lo):
        hi = min(lo + block, n)
        targets = z[lo * e : hi * e]                              # (B*e, T)
        maps = np.empty((len(targets), e))                        # W_{block, src}
        resid = np.empty((len(targets), t))
        for src in range(s):
            np.matmul(targets, scaled[src].T, out=maps)
            value_maps[lo:hi, src] = maps.reshape(hi - lo, e, e)
            # Row i of resid is prediction minus truth for one (target,
            # component) of the block, over all snapshots.
            np.matmul(maps, z_src[src], out=resid)
            resid -= targets
            np.square(resid, out=resid)
            np.sum(resid.reshape(hi - lo, e, t), axis=1, out=pair_errors[lo:hi, src])

    each(fit_targets, range(0, n, block))  # disjoint target rows: bit-identical on any CPU count
    diag = (np.arange(sources.start, sources.stop), np.arange(s))
    value_maps[diag] = np.eye(e)
    pair_errors[diag] = 0.0
    return value_maps, pair_errors


def fit_attention_tensor(
    latent: LatentSeries,
    pair_errors: np.ndarray,
    ridge_lambda: float | None = None,
    error_floor: float = DEFAULT_ERROR_FLOOR,
    use_intercept: bool = True,
    sources: range | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the per-pair confidence model on negative log pair errors.

    For each pair (m, n) regresses -log(max(err_mn(t), floor)) on the source
    latent z_n(t), by ridge least squares with an unpenalized intercept (or
    through the origin when ``use_intercept`` is off), with the ridge lambda_n
    of :func:`fit_value_tensor`; the intercept fit centres the latents in time.
    Diagonal pairs get a zero vector and the confidence ceiling -log(floor) as
    intercept; they are excluded at inference anyway.

    ``sources``, a ``range`` of step 1 within [0, N), fits only the pairs
    from that block of S source patches: ``pair_errors`` is then the
    (N, S, T) block :func:`fit_value_tensor` returns for the same
    ``sources``, and the outputs are (N, S, N_e) and (N, S), bit for bit
    those columns of the full fit.  None fits all N sources.
    """
    check_positive("error_floor", error_floor)
    sources = _source_range(latent, sources)
    t, n, e = latent.values.shape
    s = len(sources)
    if pair_errors.shape != (n, s, t):
        raise ValidationError(
            f"pair_errors shape {pair_errors.shape} != {(n, s, t)} for sources {sources!r}"
        )
    # Centred z has zero sums over time, so Zc^T (Y - y_mean) = Zc^T Y.
    z, z_mean, factors = _source_systems(
        latent, ridge_lambda, sources, "attention system", centre=use_intercept
    )
    w = np.empty((s, e, n))     # source j: Z_j Y_j^T, then one column of weights per target
    y_mean = np.empty((s, n))   # [source, target]

    def targets(src):
        y = np.maximum(pair_errors[:, src], error_floor)  # row m is target m
        np.log(y, out=y)
        np.negative(y, out=y)
        np.matmul(z[src], y.T, out=w[src])
        y_mean[src] = y.mean(axis=1)

    each(targets, range(s))
    for src in range(s):  # scipy's cho_solve holds the GIL, so the solves stay on this thread
        w[src] = cho_solve((factors[src], True), w[src])
    attn_vectors = np.ascontiguousarray(w.transpose(2, 0, 1))
    attn_intercepts = np.zeros((n, s))
    if use_intercept:
        attn_intercepts = (y_mean - (z_mean[:, None, :] @ w)[:, 0, :]).T.copy()
    diag = (np.arange(sources.start, sources.stop), np.arange(s))
    attn_vectors[diag] = 0.0
    attn_intercepts[diag] = -np.log(error_floor)
    return attn_vectors, attn_intercepts


def train_attention_model(
    train_fields: SnapshotSet,
    patch_size: int,
    latent_dim: int,
    *,
    ridge_lambda: float | None = None,
    error_floor: float = DEFAULT_ERROR_FLOOR,
    use_intercept: bool = True,
    pod: PatchPodModel | None = None,
) -> AttentionModel:
    """Full training pipeline on standardized training snapshots.

    ``train_fields`` must carry normalization stats (see
    :func:`lamp.patches.normalize`); the stats are recorded in the model so
    raw inference inputs can be standardized consistently.

    ``pod``, if given, is a compression already fitted to these snapshots at
    this patch size with at least ``latent_dim`` modes.  Its leading modes
    (:meth:`PatchPodModel.truncate`) replace a new fit, bit for bit under
    the condition stated there, so models of several latent dimensions can
    share one POD.
    """
    if train_fields.norm_stats is None:
        raise ValidationError(
            "training snapshots must be normalized (norm_stats missing)"
        )
    series = patchify(train_fields, patch_size)
    pod = fit_patch_pod(series, latent_dim) if pod is None else pod.truncate(latent_dim)
    latent = encode(pod, series)
    del series  # the patch vectors are not read again
    t, n, e = latent.values.shape
    value_maps = np.empty((n, n, e, e))
    attn_vectors = np.empty((n, n, e))
    attn_intercepts = np.empty((n, n))
    pair_losses = np.empty((n, n))
    per_block = max(1, _SOURCE_BLOCK_BYTES // (8 * n * t))
    for lo in range(0, n, per_block):
        block = range(lo, min(lo + per_block, n))
        cols = slice(block.start, block.stop)
        value_maps[:, cols], errors = fit_value_tensor(latent, ridge_lambda, sources=block)
        attn_vectors[:, cols], attn_intercepts[:, cols] = fit_attention_tensor(
            latent, errors, ridge_lambda, error_floor, use_intercept, sources=block
        )
        pair_losses[:, cols] = errors.mean(axis=2)
        del errors  # before the next block's are allocated
    return AttentionModel(
        pod=pod,
        norm_stats=train_fields.norm_stats,
        value_maps=value_maps,
        attn_vectors=attn_vectors,
        attn_intercepts=attn_intercepts,
        pair_losses=pair_losses,
        ridge_lambda=ridge_lambda,
        error_floor=error_floor,
        use_intercept=use_intercept,
    )


def predict_masked(
    model: AttentionModel,
    observed: np.ndarray,
    mask: MaskSpec,
    copy_through: bool = True,
) -> np.ndarray:
    """Predict full (T, N, N_e) latents from the (k, T, N_e) latents of the unmasked patches.

    Row j of ``observed`` holds the latents of patch ``mask.unmasked[j]``.
    Each target row is the softmax-weighted blend of the pair predictions
    from all unmasked sources (self excluded).  With ``copy_through`` the rows
    of unmasked patches are the observed latents instead of predictions.
    """
    n, e = model.n_patches, model.latent_dim
    model.grid.check_mask(mask)
    sources = np.asarray(mask.unmasked, dtype=np.intp)
    if sources.size == 0:
        raise ValidationError("all patches are masked; nothing to attend to")
    # Each source's (T, e) block is contiguous, so the GEMMs below read it without a copy.
    z_src, k = np.ascontiguousarray(observed, dtype=np.float64), len(sources)
    if z_src.ndim != 3 or z_src.shape[::2] != (k, e):
        raise ValidationError(
            f"observed shape {z_src.shape} does not match model and mask ({k}, T, {e})"
        )
    targets = np.asarray(mask.masked if copy_through else range(n), dtype=np.intp)
    if k == 1 and not copy_through:  # its only source is itself
        raise ValidationError(
            f"patches {sources.tolist()} have no unmasked prediction sources; "
            "enable copy_through or unmask more patches"
        )
    if not np.isfinite(z_src).all():
        raise ValidationError("observed latent rows contain NaN or Inf")
    out = np.zeros((z_src.shape[1], n, e))
    if copy_through:
        out[:, sources, :] = z_src.transpose(1, 0, 2)
    if targets.size == 0:
        return out
    r = len(targets)
    pairs = (targets[None, :], sources[:, None])  # (k, R) grid of (target, source)
    value_maps = model.value_maps[pairs].reshape(k, r * e, e)  # source j: (R*e, e)
    attn_vectors = model.attn_vectors[pairs]                   # (k, R, e)
    attn_intercepts = model.attn_intercepts[pairs]             # (k, R)
    for lo in range(0, len(out), _PREDICT_CHUNK):
        zc = z_src[:, lo : lo + _PREDICT_CHUNK]                     # (k, tc, e)
        tc = zc.shape[1]
        # dgemm on transposed (Fortran-ordered) views writes straight into the
        # C-ordered buffers, and unlike np.matmul it never switches to gemv for
        # a one-row block.  That alone does not make a row's rounding
        # independent of the chunk width: the BLAS may pick its kernel by the
        # product's shape.  With OpenBLAS the prediction product (M = R*e)
        # rounds the same at every width; the logits product (M = R, K = e)
        # does at M <= 64, but at M = 230, K = 8 most rows round differently
        # at widths 1-8 than in one block of 80.
        logits = np.empty((k, tc, r))
        for j in range(k):
            dgemm(1.0, attn_vectors[j].T, zc[j].T, c=logits[j].T, trans_a=1, overwrite_c=1)
            logits[j] += attn_intercepts[j]
        if not np.isfinite(logits).all():
            raise NumericalError("non-finite attention logit encountered")
        if not copy_through:  # target s is row s; its self pair gets zero weight
            logits[np.arange(k), :, sources] = -np.inf
        # Softmax over the sources (axis 0), in place: logits[j] becomes source j's weights.
        logits -= logits.max(axis=0)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=0)
        pred = np.empty((tc, r * e))  # one source's pair predictions, reused
        blend = np.zeros((tc, r, e))
        for j in range(k):
            dgemm(1.0, value_maps[j].T, zc[j].T, c=pred.T, trans_a=1, overwrite_c=1)
            step = pred.reshape(tc, r, e)
            step *= logits[j, :, :, None]
            blend += step
        out[lo : lo + tc, targets, :] = blend
    return out


def reconstruct(
    model: AttentionModel,
    fields: SnapshotSet,
    mask: MaskSpec,
    copy_through: bool = True,
) -> SnapshotSet:
    """Reconstruct full standardized fields from masked standardized input.

    Pipeline: encode the unmasked patches, predict the masked latents from
    them, decode, reassemble; the content of masked patches is never read.
    Input and output are in normalized units; use the model's norm_stats to
    standardize raw data first.
    """
    model.grid.check_fields(fields)
    model.grid.check_mask(mask)
    # Only the observed rows are encoded, as encode would: z_n = U_n^T x_n.
    sources = np.asarray(mask.unmasked, dtype=np.intp)
    observed = np.matmul(patch_vectors(fields.data, model.grid, sources), model.pod.bases[sources])
    full = predict_masked(model, observed, mask, copy_through)
    recon = decode(model.pod, LatentSeries(full))
    return unpatchify(recon, norm_stats=fields.norm_stats)
