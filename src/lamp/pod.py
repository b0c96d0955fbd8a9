"""Patch-wise POD compression.

Each patch gets its own orthonormal basis U_n (D x N_e), the leading left
singular vectors of that patch's training series.  The collection of bases
acts as a block-diagonal linear encoder/decoder: z_n = U_n^T x_n and
x~_n = U_n z_n, so decode(encode(x)) is the orthogonal projection onto each
patch's retained subspace.

The singular vectors come from the method of snapshots: an eigendecomposition
of each patch's smaller Gram matrix.  Patches whose retained modes the Gram
cannot resolve (dead patches, null modes) are decomposed by an SVD instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, batched, each
from .patches import PatchedSeries, PatchGrid, check_int, freeze

#: A matrix takes its k retained modes from its Gram only if the k-th Gram
#: eigenvalue exceeds this fraction of the largest eigenvalue of the whole
#: stack.  The Gram squares the singular values, so eigh resolves lambda_k
#: only to about eps * lambda_max absolute: at this floor sigma_k carries a
#: relative error near eps / (2 * 1e-8) ~ 1e-8, two orders inside the 1e-6
#: relative tolerance of the benchmark's reference checks.  Modes of dead
#: patches and null modes sit near eps * lambda_max, far below the floor;
#: only rounding defines them, so they keep the SVD that the recorded
#: reference results were computed with.
_GRAM_RTOL = 1e-8

#: Elements per snapshot block of :func:`ae_loss`.
_LOSS_BLOCK = 2**20


@dataclass(frozen=True, eq=False)
class PatchPodModel:
    """Per-patch orthonormal bases and their singular values.

    bases has shape (N, D, N_e) with orthonormal columns per patch;
    singular_values has shape (N, N_e), nonincreasing along the last axis.
    """

    grid: PatchGrid
    latent_dim: int
    bases: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        n, d = self.grid.n_patches, self.grid.patch_dim
        freeze(self, "bases", (n, d, self.latent_dim))
        freeze(self, "singular_values", (n, self.latent_dim))

    def truncate(self, latent_dim: int) -> PatchPodModel:
        """The model of the leading ``latent_dim`` modes of every patch.

        Bit-identical to refitting the same series at ``latent_dim`` exactly
        when every patch takes the same route in :func:`leading_modes` at
        both sizes: neither the Gram eigendecomposition and its full-block
        lift nor the SVD depends on the truncation, and :func:`_fix_signs`
        flips each column on its own.  A patch changes route only if its
        ``latent_dim``-th Gram eigenvalue is above ``_GRAM_RTOL`` times the
        stack's largest while its ``self.latent_dim``-th is not; it keeps the
        SVD's leading columns here, where a refit would take the Gram's.
        """
        if not 1 <= check_int("latent_dim", latent_dim) <= self.latent_dim:
            raise ValidationError(
                f"cannot truncate {self.latent_dim} modes to latent_dim {latent_dim}"
            )
        return PatchPodModel(
            self.grid,
            int(latent_dim),
            self.bases[:, :, :latent_dim],
            self.singular_values[:, :latent_dim],
        )


@dataclass(frozen=True, eq=False)
class LatentSeries:
    """Latent codes of a patched series, shape (T, N, N_e)."""

    values: np.ndarray

    def __post_init__(self):
        if np.ndim(self.values) != 3:
            raise ValidationError(f"latent values must be (T, N, N_e), got {np.shape(self.values)}")
        freeze(self, "values")

    @property
    def snapshots(self) -> int:
        return self.values.shape[0]

    @property
    def n_patches(self) -> int:
        return self.values.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.values.shape[2]

    @cached_property
    def by_patch(self) -> np.ndarray:
        """The codes laid out per patch, (N, N_e, T), contiguous and read-only."""
        arr = np.ascontiguousarray(self.values.transpose(1, 2, 0))
        arr.setflags(write=False)
        return arr

    @cached_property
    def mean_energy(self) -> float:
        """Mean over patches of the squared norm of a patch's code series."""
        return float(np.sum(self.values**2)) / self.n_patches


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip singular-vector signs so each column's largest-|entry| is >= 0.

    Makes the basis a deterministic function of the data (LAPACK sign choice
    is otherwise arbitrary).
    """
    # u: (N, D, K); argmax picks the first maximal index, which pins ties.
    idx = np.argmax(np.abs(u), axis=1)                       # (N, K)
    lead = np.take_along_axis(u, idx[:, None, :], axis=1)    # (N, 1, K)
    signs = np.where(lead < 0.0, -1.0, 1.0)
    return u * signs


def leading_modes(mats: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign-fixed leading ``k`` left singular vectors and values of each matrix.

    ``mats`` is (N, D, T); returns u (N, D, k) and s (N, k).  Each matrix is
    one :func:`lamp.errors.each` item: an ``eigh`` of its smaller Gram, the
    eigenvectors of X X^T when D <= T, else those of X^T X lifted by
    U = X V S^-1.  The full eigenvector block is lifted and sliced after, so
    the leading columns do not depend on ``k``.  A matrix whose k-th
    eigenvalue is at most ``_GRAM_RTOL`` times the largest eigenvalue of the
    stack goes to ``np.linalg.svd`` instead, one matrix per item, which gives
    the bits a batched SVD of the stack gives.  A thread holds one matrix's
    Gram, eigenvectors and lift at a time.
    """
    n, d, t = mats.shape
    lam, u = np.empty((n, min(d, t))), np.empty((n, d, k))

    def decompose(i):
        x = mats[i]
        gram = x @ x.T if d <= t else x.T @ x
        w, vec = batched(np.linalg.eigh, gram[None], "Gram eigh did not converge for patch {}",
                         [i])
        lam[i] = w[0]
        u[i] = (vec[0] if d <= t else x @ vec[0])[:, :-k - 1:-1]

    each(decompose, range(n))
    resolved = lam[:, -k] > _GRAM_RTOL * lam[:, -1].max()
    # Descending order (eigh ascends); a fallback matrix's placeholder 1 is overwritten below.
    s = np.sqrt(np.where(resolved[:, None], lam[:, :-k - 1:-1], 1.0))
    if d > t:
        u /= s[:, None, :]

    def fall_back(i):
        u_i, s_i, _ = batched(lambda a: np.linalg.svd(a, full_matrices=False), mats[i : i + 1],
                              "SVD did not converge for patch {}", [i])
        u[i], s[i] = u_i[0, :, :k], s_i[0, :k]

    each(fall_back, np.flatnonzero(~resolved))
    return _fix_signs(u), s


def max_latent_dim(patch_dim: int, snapshots: int) -> int:
    """The most modes :func:`fit_patch_pod` keeps of D-vectors over T snapshots: min(D, T)."""
    return min(patch_dim, snapshots)


def fit_patch_pod(train: PatchedSeries, latent_dim: int) -> PatchPodModel:
    """Fit per-patch POD bases from a training series.

    For each patch n the basis holds the ``latent_dim`` leading left singular
    vectors of the D x T matrix whose columns are that patch's training
    vectors, from :func:`leading_modes`.  Requesting more modes than
    min(D, T) is rejected rather than zero-padded: silent rank deficiency
    would corrupt the downstream regressions.
    """
    t, _, d = train.values.shape
    if not 1 <= check_int("latent_dim", latent_dim) <= max_latent_dim(d, t):
        raise ValidationError(
            f"latent_dim must be in [1, min(D={d}, T={t})], got {latent_dim}"
        )
    u, s = leading_modes(train.values.transpose(1, 2, 0), latent_dim)
    return PatchPodModel(train.grid, int(latent_dim), u, s)


def encode(model: PatchPodModel, series: PatchedSeries) -> LatentSeries:
    """Project patch vectors onto the per-patch bases: z_n = U_n^T x_n."""
    if series.grid != model.grid:
        raise ValidationError(
            f"series grid {series.grid} does not match model grid {model.grid}"
        )
    # One batched GEMM over patches, (N, T, D) @ (N, D, N_e), written through
    # an (N, T, N_e) view of the (T, N, N_e) result to skip a transposed copy.
    z = np.empty((series.snapshots, model.grid.n_patches, model.latent_dim))
    np.matmul(series.values.transpose(1, 0, 2), model.bases, out=z.transpose(1, 0, 2))
    return LatentSeries(z)


def decode(model: PatchPodModel, latent: LatentSeries) -> PatchedSeries:
    """Lift latent codes back to patch vectors: x~_n = U_n z_n."""
    if latent.n_patches != model.grid.n_patches or latent.latent_dim != model.latent_dim:
        raise ValidationError(
            f"latent shape {latent.values.shape[1:]} does not match model "
            f"(N={model.grid.n_patches}, N_e={model.latent_dim})"
        )
    x = np.empty((latent.snapshots, model.grid.n_patches, model.grid.patch_dim))
    np.matmul(latent.values.transpose(1, 0, 2), model.bases.transpose(0, 2, 1),
              out=x.transpose(1, 0, 2))
    return PatchedSeries(model.grid, x)


def ae_loss(model: PatchPodModel, series: PatchedSeries, *, per_element: bool = True) -> float:
    """Autoencoding reconstruction error of the projection decode(encode(.)).

    With ``per_element`` (default) the squared error is divided by T*N*D so
    values are comparable across patch sizes and latent dimensions; otherwise
    the raw sum of squared residuals is returned for exactness checks.  The
    sum runs over snapshot blocks of about ``_LOSS_BLOCK`` elements, so no
    full-size temporaries are held.
    """
    step = max(1, _LOSS_BLOCK // series.values[0].size)
    total = 0.0
    for lo in range(0, series.snapshots, step):
        block = PatchedSeries(series.grid, series.values[lo : lo + step])
        err = decode(model, encode(model, block)).values - block.values
        err *= err
        total += float(np.sum(err))
    if per_element:
        return total / series.values.size
    return total
