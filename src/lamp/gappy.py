"""Gappy POD baseline: global modes fitted to the observed pixels.

Reference reconstruction method for head-to-head comparison.  A global POD
of the (unpatched) training snapshots gives r orthonormal modes, by the same
Gram-eigh kernel as the patch-wise bases; reconstruction solves a ridge
least-squares fit of the mode coefficients restricted to the pixels of
unmasked patches, then evaluates the modes everywhere.  Its normal matrix is
factored by :func:`lamp.errors.cholesky`, as the attention fits' are, so it
is singular by the same rule: a squared pivot at most eps * its trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import NumericalError, ValidationError, cholesky
from .patches import MaskSpec, PatchGrid, SnapshotSet, check_int, check_ridge, freeze, pixel_mask
from .pod import leading_modes

#: Relative ridge scale for the observed-pixel normal equations.  Smaller
#: than the attention module's scale so that full observation reproduces the
#: plain POD projection to much better than 1e-10; above eps * r, so the
#: default system passes the singular rule for rank r below about 4 500.
GAPPY_RIDGE_SCALE = 1e-12


@dataclass(frozen=True, eq=False)
class GappyPodModel:
    """Global POD modes (H*W*C x r, orthonormal columns)."""

    modes: np.ndarray

    def __post_init__(self):
        if np.ndim(self.modes) != 2:
            raise ValidationError(f"gappy modes must be (H*W*C, r), got {np.shape(self.modes)}")
        freeze(self, "modes", finite=False)

    @property
    def rank(self) -> int:
        return self.modes.shape[1]


def fit_gappy(train: SnapshotSet, rank: int) -> GappyPodModel:
    """Global POD of the training snapshot matrix, r leading modes.

    :func:`lamp.pod.leading_modes` on the one (H*W*C, T) matrix, so the
    modes carry the patch-wise bases' sign convention (largest-magnitude
    entry of each mode nonnegative).
    """
    t = train.snapshots
    dim = train.height * train.width * train.components
    if not 1 <= check_int("rank", rank) <= min(dim, t):
        raise ValidationError(
            f"rank must be in [1, min(H*W*C={dim}, T={t})], got {rank}"
        )
    snapshots = train.data.reshape(1, t, dim).transpose(0, 2, 1)  # columns are snapshots
    try:
        u, _ = leading_modes(snapshots, rank)
    except NumericalError as exc:
        raise NumericalError("POD of the global snapshot matrix did not converge") from exc
    return GappyPodModel(u[0])


def reconstruct_gappy(
    model: GappyPodModel,
    fields: SnapshotSet,
    mask: MaskSpec,
    grid: PatchGrid,
    ridge_lambda: float | None = None,
) -> SnapshotSet:
    """Least-squares mode fit on observed pixels, evaluated at all pixels.

    The pixel-level mask is induced by the same patch-level mask the
    attention model consumes: every pixel of an unmasked patch is observed,
    everything else is missing.
    """
    dim = grid.height * grid.width * grid.components
    if model.modes.shape[0] != dim:
        raise ValidationError(
            f"gappy model over {model.modes.shape[0]} values does not match grid "
            f"with H*W*C={dim}"
        )
    grid.check_fields(fields)
    observed = pixel_mask(grid, mask).reshape(-1)
    obs_flat = np.flatnonzero(np.repeat(observed, grid.components))
    if obs_flat.size < model.rank:
        raise ValidationError(
            f"{obs_flat.size} observed values cannot determine {model.rank} "
            "mode coefficients; use a smaller rank or more coverage"
        )
    phi = model.modes[obs_flat]                       # (n_obs, r)
    gram = phi.T @ phi
    lam = check_ridge(ridge_lambda)
    if lam is None:
        lam = GAPPY_RIDGE_SCALE * float(np.trace(gram)) / model.rank
    failure = "observed-pixel normal matrix is singular; pass a positive ridge_lambda"
    lower = cholesky((gram + lam * np.eye(model.rank))[None], failure)[0]
    x_obs = fields.data.reshape(fields.snapshots, dim)[:, obs_flat]
    coeffs = cho_solve((lower, True), phi.T @ x_obs.T)  # (r, T)
    recon = (model.modes @ coeffs).T.reshape(fields.data.shape)
    return SnapshotSet(recon, norm_stats=fields.norm_stats)
