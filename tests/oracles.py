"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's linear-algebra paths (loops, explicit
inverses, lstsq on augmented designs, symmetric eigensolver) so that
agreement with the package is a meaningful check.
"""

import math

import numpy as np


def value_oracle(latents, m, n, lam):
    """Normal-equation solve for one pair's value map, via explicit inverse."""
    zm = latents[:, m, :]
    zn = latents[:, n, :]
    e = zm.shape[1]
    g_mn = sum(np.outer(zm[t], zn[t]) for t in range(zm.shape[0]))
    g_nn = sum(np.outer(zn[t], zn[t]) for t in range(zn.shape[0]))
    return g_mn @ np.linalg.inv(g_nn + lam * np.eye(e))


def attention_oracle(latents, targets, m, n, lam, use_intercept=True):
    """Affine ridge fit via lstsq on an augmented design matrix."""
    zn = latents[:, n, :]
    t, e = zn.shape
    y = targets[m, n, :]
    if use_intercept:
        design = np.hstack([zn, np.ones((t, 1))])
        aug = np.vstack([design, np.sqrt(lam) * np.eye(e + 1)[:e]])
    else:
        design = zn
        aug = np.vstack([design, np.sqrt(lam) * np.eye(e)])
    rhs = np.concatenate([y, np.zeros(e)])
    theta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    if use_intercept:
        return theta[:e], theta[e]
    return theta, 0.0


def singular_values_by_eigh(mat):
    """Singular values through the dense symmetric eigensolver."""
    vals = np.linalg.eigvalsh(mat @ mat.T)
    return np.sqrt(np.clip(vals[::-1], 0.0, None))


def predict_oracle(model, latents, unmasked, copy_through=True):
    """Masked predict by explicit loops over (snapshot, target, source).

    Each target's weights are a softmax, through ``math.exp``, of the affine
    confidence logits of its unmasked sources (itself excluded); its
    prediction is the weighted sum of the sources' value-map predictions.
    """
    t_count, n, e = latents.shape
    sources = sorted(unmasked)
    z = np.asarray(latents).tolist()
    vm, av, ai = (model.value_maps.tolist(), model.attn_vectors.tolist(),
                  model.attn_intercepts.tolist())
    out = np.zeros((t_count, n, e))
    for t in range(t_count):
        for m in range(n):
            if copy_through and m in sources:
                out[t, m] = z[t][m]
                continue
            cands = [s for s in sources if s != m]
            logits = [
                sum(av[m][s][i] * z[t][s][i] for i in range(e)) + ai[m][s]
                for s in cands
            ]
            top = max(logits)
            weights = [math.exp(v - top) for v in logits]
            total = sum(weights)
            for w, s in zip(weights, cands):
                for i in range(e):
                    pred = sum(vm[m][s][i][f] * z[t][s][f] for f in range(e))
                    out[t, m, i] += w / total * pred
    return out


def attention_weights(logits, unmasked, copy_through=False):
    """The softmax weights of ``predict_masked``, read off its output.

    ``logits`` is an (N, N) table: logits[m, n] is the confidence logit of
    source n for target m.  The model probed has N_e = N, identity value
    maps, zero attention vectors and ``logits`` as intercepts, and patch n
    observes the unit vector e_n.  So every pair prediction from source n is
    exactly e_n, and row m of the returned (N, N) array is, bit for bit,
    target m's weight on each source (zero on sources outside the mask).
    """
    from lamp import AttentionModel, MaskSpec, NormStats, predict_masked
    from lamp.patches import PatchGrid
    from lamp.pod import PatchPodModel

    n = len(logits)
    eye = np.eye(n)
    model = AttentionModel(
        pod=PatchPodModel(PatchGrid(1, n, n, 1), n, np.tile(eye, (n, 1, 1)), np.ones((n, n))),
        norm_stats=NormStats(np.zeros(n), np.ones(n)),
        value_maps=np.tile(eye, (n, n, 1, 1)),
        attn_vectors=np.zeros((n, n, n)),
        attn_intercepts=np.asarray(logits, dtype=np.float64),
        pair_losses=np.zeros((n, n)),
        ridge_lambda=None,
        error_floor=1e-12,
        use_intercept=True,
    )
    mask = MaskSpec(tuple(int(i) for i in unmasked), n)
    return predict_masked(model, eye[list(mask.unmasked), None, :], mask, copy_through)[0]


def sweep_cell_oracle(dataset, patch_size, latent_dim, snr_db, coverage, n_arrangements,
                      seed, copy_through=True, split_spec=None):
    """One sweep cell scored in pixel space, arrangement by arrangement.

    Trains the (P, N_e) model on its own, then for each arrangement draws the
    mask and the noise from the sweep's seeds, builds the noisy input the
    plain way (noise on the raw test split, then the training stats), decodes
    the full reconstruction and takes ``pred_loss`` against the clean
    standardized test split.  Returns ``(median loss, None)``, or
    ``(None, reason)`` when training is rejected.
    """
    from lamp import MaskSpec, SplitSpec, ValidationError, pred_loss, reconstruct
    from lamp import train_attention_model
    from lamp.metrics import _float_key, derive_seed
    from lamp.patches import apply_stats, split_standardized
    from lamp.synthetic import add_noise_fixed, noise_sigma2

    train_norm, test_norm, test_raw = split_standardized(dataset, split_spec or SplitSpec())
    try:
        model = train_attention_model(train_norm, patch_size, latent_dim)
    except ValidationError as exc:
        return None, str(exc)
    sigma2 = noise_sigma2(test_raw, snr_db)
    cov_key = int(round(coverage * 1e9))
    losses = []
    for arr in range(n_arrangements):
        mask = MaskSpec.random(model.n_patches, coverage,
                               derive_seed(seed, 0, patch_size, cov_key, arr))
        noise_seed = derive_seed(seed, 1, patch_size, cov_key, arr, _float_key(snr_db))
        noisy_raw = add_noise_fixed(test_raw, mask, sigma2, noise_seed, model.grid)
        test_in = apply_stats(noisy_raw, test_norm.norm_stats)
        losses.append(pred_loss(reconstruct(model, test_in, mask, copy_through), test_norm))
    return float(np.median(losses)), None


# Reference formulas of the serve path's fast kernels.  Each is the earlier,
# plainer form of the same arithmetic, so the package must agree bit for bit.

def apply_stats_oracle(data, mean, std):
    """Standardization by broadcasting the (C,) stats over (T, H, W, C)."""
    return (data - mean) / std


def denormalize_oracle(data, mean, std):
    """Its inverse, broadcast the same way."""
    return data * std + mean


def add_noise_oracle(data, observed, eps):
    """``eps`` added where the (H, W) map ``observed`` is True, zero elsewhere."""
    return data + np.where(observed[None, :, :, None], eps, 0.0)


def outline_oracle(rgb, grid, masked):
    """Black borders drawn patch by patch over the listed masked patches."""
    out = rgb.copy()
    p = grid.patch_size
    for idx in masked:
        r, c = (idx // grid.cols) * p, (idx % grid.cols) * p
        out[r, c : c + p] = 0
        out[r + p - 1, c : c + p] = 0
        out[r : r + p, c] = 0
        out[r : r + p, c + p - 1] = 0
    return out


def reconstruct_oracle(model, fields, mask, copy_through=True):
    """Encode every patch, predict the masked ones from the unmasked ones' latents,
    decode and reassemble."""
    from lamp import decode, encode, patchify, predict_masked, unpatchify
    from lamp.pod import LatentSeries

    latent = encode(model.pod, patchify(fields, model.grid.patch_size))
    observed = latent.values[:, list(mask.unmasked)].transpose(1, 0, 2)
    full = predict_masked(model, observed, mask, copy_through)
    return unpatchify(decode(model.pod, LatentSeries(full)), norm_stats=fields.norm_stats)
