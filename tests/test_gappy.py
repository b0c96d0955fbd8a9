import numpy as np
import pytest

from lamp import (
    MaskSpec,
    NumericalError,
    SnapshotSet,
    ValidationError,
    fit_gappy,
    pred_loss,
    reconstruct_gappy,
)
from lamp.patches import PatchGrid


def fields_of_rank(rng, t, h, w, c, rank):
    basis = rng.standard_normal((rank, h * w * c))
    coeffs = rng.standard_normal((t, rank))
    return SnapshotSet((coeffs @ basis).reshape(t, h, w, c))


def projection(model, fields):
    """Independent rank-r POD projection: Phi Phi^T x."""
    flat = fields.data.reshape(fields.snapshots, -1)
    return (flat @ model.modes) @ model.modes.T


class TestFitGappy:
    def test_rank_must_be_an_integer(self):
        fields = fields_of_rank(np.random.default_rng(9), 10, 4, 4, 2, rank=3)
        with pytest.raises(ValidationError, match="rank must be an integer"):
            fit_gappy(fields, 2.5)
        with pytest.raises(ValidationError, match=r"rank must be in \[1, min"):
            fit_gappy(fields, 0)  # an integer keeps its message
        assert fit_gappy(fields, np.int64(2)).rank == 2

    def test_rank_one_data_exact(self):
        rng = np.random.default_rng(0)
        fields = fields_of_rank(rng, 10, 4, 4, 2, rank=1)
        model = fit_gappy(fields, 1)
        resid = projection(model, fields) - fields.data.reshape(10, -1)
        assert np.sum(resid**2) < 1e-16

    def test_full_rank_spans_training_data(self):
        rng = np.random.default_rng(1)
        fields = SnapshotSet(rng.standard_normal((6, 4, 4, 1)))
        model = fit_gappy(fields, 6)
        flat = fields.data.reshape(6, -1)
        resid = projection(model, fields) - flat
        assert np.linalg.norm(resid) / np.linalg.norm(flat) < 1e-10

    def test_truncation_residual_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        fields = fields_of_rank(rng, 12, 4, 4, 1, rank=5)
        model = fit_gappy(fields, 3)
        flat = fields.data.reshape(12, -1)
        resid = float(np.sum((projection(model, fields) - flat) ** 2))
        sigma = np.linalg.svd(flat.T, compute_uv=False)
        expect = float(np.sum(sigma[3:] ** 2))
        np.testing.assert_allclose(resid, expect, rtol=1e-8)

    def test_orthonormal_modes(self):
        rng = np.random.default_rng(3)
        model = fit_gappy(SnapshotSet(rng.standard_normal((8, 4, 4, 2))), 5)
        err = np.max(np.abs(model.modes.T @ model.modes - np.eye(5)))
        assert err < 1e-10

    def test_rank_bounds(self):
        rng = np.random.default_rng(4)
        fields = SnapshotSet(rng.standard_normal((5, 4, 4, 1)))
        with pytest.raises(ValidationError, match="rank"):
            fit_gappy(fields, 0)
        with pytest.raises(ValidationError, match="rank"):
            fit_gappy(fields, 6)  # T=5 limits the rank

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(5)
        fields = SnapshotSet(rng.standard_normal((8, 4, 4, 1)))
        a = fit_gappy(fields, 3)
        b = fit_gappy(fields, 3)
        np.testing.assert_array_equal(a.modes, b.modes)
        for j in range(3):
            col = a.modes[:, j]
            assert col[np.argmax(np.abs(col))] >= 0.0

    def test_eigh_failure_names_the_global_pod(self, monkeypatch):
        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        fields = fields_of_rank(np.random.default_rng(9), 10, 4, 4, 2, rank=3)
        with pytest.raises(NumericalError,
                           match="^POD of the global snapshot matrix did not converge$"):
            fit_gappy(fields, 2)


class TestReconstructGappy:
    def test_full_observation_equals_projection(self):
        rng = np.random.default_rng(6)
        fields = SnapshotSet(rng.standard_normal((10, 8, 8, 2)))
        model = fit_gappy(fields, 4)
        grid = PatchGrid(8, 8, 2, 4)
        mask = MaskSpec(tuple(range(grid.n_patches)), grid.n_patches)
        recon = reconstruct_gappy(model, fields, mask, grid)
        expect = projection(model, fields).reshape(fields.data.shape)
        assert np.max(np.abs(recon.data - expect)) < 1e-10

    def test_in_span_fields_recovered_exactly(self):
        rng = np.random.default_rng(7)
        train = SnapshotSet(rng.standard_normal((20, 8, 8, 1)))
        model = fit_gappy(train, 4)
        grid = PatchGrid(8, 8, 1, 4)
        coeffs = rng.standard_normal((5, 4))
        in_span = SnapshotSet((coeffs @ model.modes.T).reshape(5, 8, 8, 1))
        mask = MaskSpec((0, 3), grid.n_patches)  # 32 observed values >= 4
        recon = reconstruct_gappy(model, in_span, mask, grid)
        assert np.max(np.abs(recon.data - in_span.data)) < 1e-8

    def test_underdetermined_observation_rejected(self):
        rng = np.random.default_rng(8)
        train = SnapshotSet(rng.standard_normal((40, 8, 8, 1)))
        model = fit_gappy(train, 20)
        grid = PatchGrid(8, 8, 1, 4)
        with pytest.raises(ValidationError, match="smaller rank"):
            reconstruct_gappy(model, train, MaskSpec((0,), grid.n_patches), grid)

    @pytest.mark.parametrize("ridge_lambda", [np.nan, np.inf, -1.0])
    def test_bad_ridge_rejected(self, ridge_lambda):
        train = SnapshotSet(np.random.default_rng(8).standard_normal((40, 8, 8, 1)))
        model = fit_gappy(train, 2)
        grid = PatchGrid(8, 8, 1, 4)
        with pytest.raises(ValidationError, match="ridge_lambda"):
            reconstruct_gappy(model, train, MaskSpec((0, 1), grid.n_patches), grid, ridge_lambda)

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        model = fit_gappy(SnapshotSet(rng.standard_normal((6, 4, 4, 1))), 2)
        grid = PatchGrid(8, 8, 1, 4)
        other = SnapshotSet(rng.standard_normal((2, 8, 8, 1)))
        with pytest.raises(ValidationError, match="does not match"):
            reconstruct_gappy(model, other, MaskSpec((0,), grid.n_patches), grid)

    def test_error_nonincreasing_in_coverage(self):
        rng = np.random.default_rng(10)
        train = SnapshotSet(rng.standard_normal((60, 8, 8, 2)))
        test = SnapshotSet(rng.standard_normal((10, 8, 8, 2)))
        model = fit_gappy(train, 6)
        grid = PatchGrid(8, 8, 2, 4)
        means = []
        for cov in (0.25, 0.5, 0.75, 1.0):
            losses = []
            for draw in range(10):
                mask = MaskSpec.random(grid.n_patches, cov, seed=100 * draw + int(cov * 100))
                recon = reconstruct_gappy(model, test, mask, grid)
                losses.append(pred_loss(recon, test))
            means.append(np.mean(losses))
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
