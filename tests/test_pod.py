import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lamp import (
    LatentSeries,
    NumericalError,
    SnapshotSet,
    ValidationError,
    ae_loss,
    decode,
    encode,
    fit_patch_pod,
    patchify,
)
from lamp import pod
from lamp.patches import PatchedSeries, PatchGrid
from lamp.pod import _fix_signs, leading_modes


from oracles import singular_values_by_eigh


def series_from_matrix(mat):
    """Wrap a (D, T) matrix as a single-patch series (H = W = sqrt(D))."""
    d, t = mat.shape
    side = int(round(d**0.5))
    grid = PatchGrid(side, side, 1, side)
    return PatchedSeries(grid, mat.T.reshape(t, 1, d))


def rand_series(rng, t=12, h=4, w=4, c=2, p=2):
    fields = SnapshotSet(rng.standard_normal((t, h, w, c)))
    return patchify(fields, p)


class TestFit:
    def test_rank_one_patch_is_exact_at_one_mode(self):
        rng = np.random.default_rng(0)
        shape = rng.standard_normal(16)
        amps = rng.standard_normal(10)
        series = series_from_matrix(np.outer(shape, amps))
        model = fit_patch_pod(series, 1)
        assert ae_loss(model, series, per_element=False) < 1e-20

    def test_full_basis_is_identity(self):
        rng = np.random.default_rng(1)
        series = series_from_matrix(rng.standard_normal((4, 9)))
        model = fit_patch_pod(series, 4)
        recon = decode(model, encode(model, series))
        np.testing.assert_allclose(recon.values, series.values, rtol=0, atol=1e-10)

    def test_truncation_error_is_discarded_singular_value(self):
        # rank-3 4x4 series compressed to 2 modes loses exactly sigma_3^2
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
        series = series_from_matrix(mat)
        model = fit_patch_pod(series, 2)
        sigma = singular_values_by_eigh(mat)
        loss = ae_loss(model, series, per_element=False)
        np.testing.assert_allclose(loss, sigma[2] ** 2, rtol=1e-8)

    def test_latent_dim_bounds(self):
        series = rand_series(np.random.default_rng(3), t=5)
        with pytest.raises(ValidationError, match="latent_dim"):
            fit_patch_pod(series, 0)
        with pytest.raises(ValidationError, match="latent_dim"):
            fit_patch_pod(series, 6)  # T=5 < 6 even though D=8

    def test_latent_dim_must_be_an_integer(self):
        series = rand_series(np.random.default_rng(40))
        with pytest.raises(ValidationError, match="latent_dim must be an integer"):
            fit_patch_pod(series, 2.5)
        with pytest.raises(ValidationError, match="latent_dim must be an integer"):
            fit_patch_pod(series, 3).truncate(2.5)
        assert fit_patch_pod(series, np.int64(2)).latent_dim == 2

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        series = rand_series(rng)
        model = fit_patch_pod(series, 3)
        for n in range(model.grid.n_patches):
            for j in range(3):
                col = model.bases[n, :, j]
                assert col[np.argmax(np.abs(col))] >= 0.0

    def test_singular_values_nonincreasing(self):
        series = rand_series(np.random.default_rng(5))
        model = fit_patch_pod(series, 4)
        assert np.all(np.diff(model.singular_values, axis=1) <= 0.0)

    def test_refit_is_bit_identical(self):
        series = rand_series(np.random.default_rng(6))
        a = fit_patch_pod(series, 3)
        b = fit_patch_pod(series, 3)
        np.testing.assert_array_equal(a.bases, b.bases)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)

    def test_truncate_equals_refit(self):
        rng = np.random.default_rng(16)
        # D=8 <= T=12 (eigenvectors of X X^T), then D=32 > T=6 (lifted from X^T X).
        for series in (rand_series(rng), rand_series(rng, t=6, h=8, w=8, p=4)):
            k = min(series.grid.patch_dim, series.snapshots)
            full = fit_patch_pod(series, k)
            for ne in range(1, k + 1):
                cut, fit = full.truncate(ne), fit_patch_pod(series, ne)
                assert cut.latent_dim == ne
                np.testing.assert_array_equal(cut.bases, fit.bases)
                np.testing.assert_array_equal(cut.singular_values, fit.singular_values)

    @pytest.mark.parametrize("ne", [0, 4])
    def test_truncate_beyond_fitted_modes_rejected(self, ne):
        model = fit_patch_pod(rand_series(np.random.default_rng(17)), 3)
        with pytest.raises(ValidationError, match="cannot truncate 3 modes"):
            model.truncate(ne)


def svd_modes(mats, k):
    """The leading modes the way a batched SVD of the whole stack gives them."""
    u, s, _ = np.linalg.svd(mats, full_matrices=False)
    return _fix_signs(u[:, :, :k]), s[:, :k]


class TestGramKernel:
    @pytest.mark.parametrize("d, t", [(8, 20), (32, 12)], ids=["D<=T", "D>T"])
    def test_gram_route_agrees_with_svd(self, d, t, monkeypatch):
        mats = np.random.default_rng(30).standard_normal((6, d, t))
        k = min(d, t)
        want_u, want_s = svd_modes(mats, k)

        def no_svd(*args, **kwargs):
            raise AssertionError("a resolved spectrum must not reach the SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        u, s = leading_modes(mats, k)
        np.testing.assert_allclose(u, want_u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(s, want_s, rtol=1e-10)

    @pytest.mark.parametrize("t, h, p", [(12, 4, 2), (6, 8, 4)], ids=["D<=T", "D>T"])
    def test_dead_patches_get_the_svd_bit_for_bit(self, t, h, p):
        series = rand_series(np.random.default_rng(31), t=t, h=h, w=h, p=p)
        vals = series.values.copy()
        vals[:, ::2] *= 1e-60                       # patches 0 and 2 carry no signal
        series = PatchedSeries(series.grid, vals)
        model = fit_patch_pod(series, 3)
        want_u, want_s = svd_modes(vals.transpose(1, 2, 0), 3)
        np.testing.assert_array_equal(model.bases[::2], want_u[::2])
        np.testing.assert_array_equal(model.singular_values[::2], want_s[::2])
        np.testing.assert_allclose(model.bases[1::2], want_u[1::2], rtol=0, atol=1e-10)

    def test_retained_null_modes_get_the_svd_bit_for_bit(self):
        # Rank 2 per patch, 4 modes kept: modes 3 and 4 are rounding-defined.
        rng = np.random.default_rng(32)
        mats = rng.standard_normal((4, 16, 2)) @ rng.standard_normal((4, 2, 10))
        u, s = leading_modes(mats, 4)
        want_u, want_s = svd_modes(mats, 4)
        np.testing.assert_array_equal(u, want_u)
        np.testing.assert_array_equal(s, want_s)

    def test_eigh_failure_names_the_patch(self, monkeypatch):
        eigh, calls = np.linalg.eigh, []

        def failing(a, *args, **kwargs):
            calls.append(a.shape)
            # Patch 2's one-patch stack fails, then the patch alone fails too.
            if len(calls) in (3, 4):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the patches in order
        with pytest.raises(NumericalError, match="^Gram eigh did not converge for patch 2$"):
            fit_patch_pod(rand_series(np.random.default_rng(33)), 2)
        assert calls == [(1, 8, 8)] * 3 + [(8, 8)]  # one eigh per patch, then the redo

    def test_eigh_failure_of_the_stack_alone_keeps_lapack_message(self, monkeypatch):
        eigh = np.linalg.eigh

        def stack_fails(a, *args, **kwargs):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", stack_fails)
        with pytest.raises(NumericalError) as info:
            fit_patch_pod(rand_series(np.random.default_rng(34)), 2)
        assert str(info.value) == "Eigenvalues did not converge, though each matrix passes alone"

    def test_svd_fallback_failure_names_the_patch(self, monkeypatch):
        series = rand_series(np.random.default_rng(35))
        vals = series.values.copy()
        vals[:, 2] *= 1e-60                         # only patch 2 takes the SVD
        calls = []

        def failing(a, *args, **kwargs):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NumericalError, match="^SVD did not converge for patch 2$"):
            fit_patch_pod(PatchedSeries(series.grid, vals), 2)
        assert calls == [(1, 8, 12), (8, 12)]      # the one-patch stack, then the patch alone


class TestOnEveryCpu:
    """Each patch's Gram eigh and each SVD fallback is one ``errors.each`` item."""

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @pytest.mark.parametrize("t, h, p, dead, items",
                             [(12, 14, 2, 7, [49, 7]), (6, 20, 4, 4, [25, 7])], ids=["D<=T", "D>T"])
    def test_equal_at_one_and_four_cpus(self, monkeypatch, t, h, p, dead, items):
        series = rand_series(np.random.default_rng(36), t=t, h=h, w=h, p=p)
        vals = series.values.copy()
        vals[:, ::dead] *= 1e-60                    # seven dead patches take the SVD
        series = PatchedSeries(series.grid, vals)
        fits, counts, interval = {}, [], sys.getswitchinterval()
        each = pod.each

        def counting(fn, items):
            counts.append(len(items))
            each(fn, items)

        monkeypatch.setattr(pod, "each", counting)
        for count in (1, 4):  # four shares on fewer cores, switching threads often
            self.cpus(monkeypatch, count)
            sys.setswitchinterval(1e-5 if count > 1 else interval)
            try:
                fits[count] = fit_patch_pod(series, 3)
            finally:
                sys.setswitchinterval(interval)
        assert counts == items * 2                  # no count a multiple of four
        np.testing.assert_array_equal(fits[4].bases, fits[1].bases)
        np.testing.assert_array_equal(fits[4].singular_values, fits[1].singular_values)

    def test_eigh_failure_names_the_first_patch_in_order(self, monkeypatch):
        # 16 patches in four shares of four: patch 2 is in the calling
        # thread's, patch 9 in the third.  Patch 9 fails first in time.
        series = rand_series(np.random.default_rng(37), t=12, h=8, w=8, p=2)
        vals = series.values.copy()
        vals[:, 2] *= 1e3                           # Gram entries near 1e7
        vals[:, 9] *= 1e4                           # and near 1e9
        self.cpus(monkeypatch, 4)
        eigh, failed_later = np.linalg.eigh, threading.Event()
        started = threading.active_count()

        def failing(a, *args, **kwargs):
            largest = np.abs(a).max()
            if a.ndim == 2 and largest > 1e8:       # patch 9 alone
                failed_later.set()
            elif a.ndim == 2 and largest > 1e5:     # patch 2 alone
                failed_later.wait(timeout=5)
            if largest > 1e5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalError, match="^Gram eigh did not converge for patch 2$"):
            fit_patch_pod(PatchedSeries(series.grid, vals), 2)
        assert failed_later.is_set()
        assert threading.active_count() == started
        vals = vals.copy()
        vals[:, 2] /= 1e3                           # patch 9 alone, in the third share
        with pytest.raises(NumericalError, match="^Gram eigh did not converge for patch 9$"):
            fit_patch_pod(PatchedSeries(series.grid, vals), 2)

    def test_svd_failures_name_the_lower_patch(self, monkeypatch):
        series = rand_series(np.random.default_rng(38), t=12, h=8, w=8, p=2)
        vals = series.values.copy()
        vals[:, 2] *= 1e-60                         # two fallbacks, in two shares
        vals[:, 9] *= 1e-70
        self.cpus(monkeypatch, 4)
        failed_later = threading.Event()

        def failing(a, *args, **kwargs):
            if np.abs(a).max() < 1e-65:             # patch 9 fails first in time
                failed_later.set()
            failed_later.wait(timeout=5)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NumericalError, match="^SVD did not converge for patch 2$"):
            fit_patch_pod(PatchedSeries(series.grid, vals), 2)
        assert failed_later.is_set()

    def test_working_memory_is_a_small_multiple_of_the_bases(self, monkeypatch):
        # D=32 <= T=40, 144 patches, k=2: an (N, D, D) stack of Gram
        # eigenvectors would be 16 times the bases.  What the fit holds
        # besides its input is the bases, the sign fix's copies of them, and
        # per share one Gram and its eigendecomposition.
        series = rand_series(np.random.default_rng(39), t=40, h=48, w=48, p=4)
        self.cpus(monkeypatch, 4)
        tracemalloc.start()
        try:
            model = fit_patch_pod(series, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * model.bases.nbytes


class TestEncodeDecode:
    def test_basis_column_maps_to_unit_vector(self):
        rng = np.random.default_rng(7)
        train = rand_series(rng, t=10)
        model = fit_patch_pod(train, 3)
        grid = model.grid
        vals = np.zeros((1, grid.n_patches, grid.patch_dim))
        for n in range(grid.n_patches):
            vals[0, n] = model.bases[n, :, 1]
        z = encode(model, PatchedSeries(grid, vals))
        expect = np.zeros(3)
        expect[1] = 1.0
        np.testing.assert_allclose(z.values[0], np.tile(expect, (grid.n_patches, 1)), atol=1e-12)

    def test_zero_maps_to_zero(self):
        model = fit_patch_pod(rand_series(np.random.default_rng(8)), 2)
        grid = model.grid
        z = encode(model, PatchedSeries(grid, np.zeros((2, grid.n_patches, grid.patch_dim))))
        np.testing.assert_array_equal(z.values, 0.0)

    def test_encode_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(9)
        series = rand_series(rng, t=6)
        model = fit_patch_pod(series, 3)
        z = encode(model, series)
        t, n, d = series.values.shape
        oracle = np.zeros((t, n, 3))
        for ti in range(t):
            for ni in range(n):
                for e in range(3):
                    acc = 0.0
                    for di in range(d):
                        acc += model.bases[ni, di, e] * series.values[ti, ni, di]
                    oracle[ti, ni, e] = acc
        np.testing.assert_allclose(z.values, oracle, rtol=0, atol=1e-12)

    def test_decode_unit_vector_gives_basis_column(self):
        model = fit_patch_pod(rand_series(np.random.default_rng(10)), 3)
        grid = model.grid
        z = np.zeros((1, grid.n_patches, 3))
        z[0, :, 2] = 1.0
        x = decode(model, LatentSeries(z))
        np.testing.assert_allclose(x.values[0], model.bases[:, :, 2], atol=1e-14)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(11)
        series = rand_series(rng)
        model = fit_patch_pod(series, 3)
        once = decode(model, encode(model, series))
        twice = decode(model, encode(model, once))
        np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-10)

    def test_projection_contracts_norm(self):
        rng = np.random.default_rng(12)
        series = rand_series(rng, t=20)
        model = fit_patch_pod(series, 3)
        proj = decode(model, encode(model, series))
        norm_in = np.linalg.norm(series.values, axis=2)
        norm_out = np.linalg.norm(proj.values, axis=2)
        assert np.all(norm_out <= norm_in + 1e-12)

    def test_grid_mismatch_rejected(self):
        model = fit_patch_pod(rand_series(np.random.default_rng(13), h=4, w=4, p=2), 2)
        other = rand_series(np.random.default_rng(14), h=8, w=8, p=4)
        with pytest.raises(ValidationError, match="grid"):
            encode(model, other)

    def test_decode_dim_mismatch_rejected(self):
        model = fit_patch_pod(rand_series(np.random.default_rng(15)), 2)
        with pytest.raises(ValidationError, match="match"):
            decode(model, LatentSeries(np.zeros((1, model.grid.n_patches, 5))))


class TestAeLoss:
    def test_zero_at_full_rank(self):
        rng = np.random.default_rng(16)
        series = series_from_matrix(rng.standard_normal((4, 8)))
        model = fit_patch_pod(series, 4)
        assert ae_loss(model, series) < 1e-12

    def test_exact_capture_of_low_rank_data(self):
        rng = np.random.default_rng(17)
        mat = rng.standard_normal((16, 3)) @ rng.standard_normal((3, 12))
        series = series_from_matrix(mat)
        model = fit_patch_pod(series, 5)
        assert ae_loss(model, series) < 1e-16

    def test_nonincreasing_in_latent_dim(self):
        rng = np.random.default_rng(18)
        series = rand_series(rng, t=15)
        losses = [ae_loss(fit_patch_pod(series, ne), series) for ne in range(1, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_per_element_scaling(self):
        rng = np.random.default_rng(19)
        series = rand_series(rng, t=9)
        model = fit_patch_pod(series, 2)
        raw = ae_loss(model, series, per_element=False)
        per = ae_loss(model, series)
        np.testing.assert_allclose(per, raw / series.values.size, rtol=1e-15)

    @pytest.mark.parametrize("block", [1, 80, 200, 2**20])
    def test_snapshot_blocks_match_one_shot_sum(self, block, monkeypatch):
        # 13 snapshots of N*D = 40 elements: blocks of 1, 2, 5 and all 13 snapshots.
        rng = np.random.default_rng(23)
        series = rand_series(rng, t=13, h=4, w=10, c=1, p=2)
        model = fit_patch_pod(series, 2)
        err = decode(model, encode(model, series)).values - series.values
        one_shot = float(np.sum(err * err))
        monkeypatch.setattr(pod, "_LOSS_BLOCK", block)
        assert ae_loss(model, series, per_element=False) == pytest.approx(one_shot, rel=1e-12)


class TestInvariants:
    def test_orthonormal_bases(self):
        rng = np.random.default_rng(20)
        model = fit_patch_pod(rand_series(rng, t=20), 4)
        for n in range(model.grid.n_patches):
            u = model.bases[n]
            err = np.max(np.abs(u.T @ u - np.eye(4)))
            assert err < 1e-10

    def test_beats_random_orthonormal_bases(self):
        rng = np.random.default_rng(21)
        series = rand_series(rng, t=20)
        model = fit_patch_pod(series, 3)
        best = ae_loss(model, series, per_element=False)
        d = series.grid.patch_dim
        for trial in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((d, 3)))
            recon = np.einsum("de,tne->tnd", q, np.einsum("de,tnd->tne", q, series.values))
            rand_loss = float(np.sum((recon - series.values) ** 2))
            assert best <= rand_loss + 1e-12

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(22)
        series = rand_series(rng, t=18, h=4, w=4, c=1, p=2)
        ne = 2
        model = fit_patch_pod(series, ne)
        recon = decode(model, encode(model, series))
        for n in range(series.grid.n_patches):
            resid = float(np.sum((recon.values[:, n] - series.values[:, n]) ** 2))
            sigma = singular_values_by_eigh(series.values[:, n, :].T)
            expect = float(np.sum(sigma[ne:] ** 2))
            np.testing.assert_allclose(resid, expect, rtol=1e-8)
