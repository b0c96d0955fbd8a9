import copy
import dataclasses
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp import (
    AttentionModel,
    FlowSpec,
    LatentSeries,
    MaskSpec,
    NormStats,
    NumericalError,
    SnapshotSet,
    SplitSpec,
    ValidationError,
    decode,
    encode,
    fit_attention_tensor,
    fit_value_tensor,
    generate,
    normalize,
    patchify,
    pixel_mask,
    predict_masked,
    reconstruct,
    train_attention_model,
    unpatchify,
)
from lamp import attention, pod
from lamp.attention import _PREDICT_CHUNK
from lamp.patches import PatchGrid, split_standardized
from lamp.pod import PatchPodModel, fit_patch_pod


from oracles import (
    attention_oracle,
    attention_weights,
    predict_oracle,
    reconstruct_oracle,
    value_oracle,
)


def identity_pod(n_patches, latent_dim):
    """POD model whose bases are identity maps (D == N_e), for direct latent tests."""
    grid = PatchGrid(1, n_patches, latent_dim, 1)  # one pixel of N_e components per patch
    bases = np.tile(np.eye(latent_dim), (n_patches, 1, 1))
    svals = np.ones((n_patches, latent_dim))
    return PatchPodModel(grid, latent_dim, bases, svals)


def model_from_latents(latents, ridge_lambda=1e-10, error_floor=1e-12):
    """Train value/attention tensors on raw latents over an identity POD."""
    t, n, e = latents.shape
    series = LatentSeries(latents)
    value_maps, pair_errors = fit_value_tensor(series, ridge_lambda)
    attn_vectors, attn_intercepts = fit_attention_tensor(
        series, pair_errors, ridge_lambda, error_floor
    )
    return AttentionModel(
        pod=identity_pod(n, e),
        norm_stats=NormStats(np.zeros(e), np.ones(e)),
        value_maps=value_maps,
        attn_vectors=attn_vectors,
        attn_intercepts=attn_intercepts,
        pair_losses=pair_errors.mean(axis=2),
        ridge_lambda=ridge_lambda,
        error_floor=error_floor,
        use_intercept=True,
    )


def random_model(n, e, seed):
    """Model with random value and attention tensors, for predict-kernel tests."""
    rng = np.random.default_rng(seed)
    value_maps = rng.standard_normal((n, n, e, e))
    value_maps[np.arange(n), np.arange(n)] = np.eye(e)
    pair_losses = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(pair_losses, 0.0)
    return AttentionModel(
        pod=identity_pod(n, e),
        norm_stats=NormStats(np.zeros(e), np.ones(e)),
        value_maps=value_maps,
        attn_vectors=rng.standard_normal((n, n, e)),
        attn_intercepts=rng.standard_normal((n, n)),
        pair_losses=pair_losses,
        ridge_lambda=None,
        error_floor=1e-12,
        use_intercept=True,
    )


def observed(latents, mask):
    """The (k, T, N_e) input of predict_masked: the latents of the unmasked patches."""
    return latents[:, list(mask.unmasked)].transpose(1, 0, 2)


def relabelled(model, perm):
    """The same model with patch m renamed perm[m]."""
    inv = np.argsort(perm)
    return AttentionModel(
        pod=model.pod,
        norm_stats=model.norm_stats,
        value_maps=model.value_maps[inv][:, inv],
        attn_vectors=model.attn_vectors[inv][:, inv],
        attn_intercepts=model.attn_intercepts[inv][:, inv],
        pair_losses=model.pair_losses[inv][:, inv],
        ridge_lambda=model.ridge_lambda,
        error_floor=model.error_floor,
        use_intercept=model.use_intercept,
    )


class TestMaskSpec:
    def test_random_draw_size(self):
        mask = MaskSpec.random(16, 0.1, seed=0)
        assert len(mask.unmasked) == 2  # round(1.6)
        assert mask.coverage == 2 / 16

    def test_random_at_least_one(self):
        mask = MaskSpec.random(16, 0.01, seed=1)
        assert len(mask.unmasked) == 1

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            MaskSpec((1, 1), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            MaskSpec((4,), 4)

    def test_random_seed_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            MaskSpec.random(16, 0.1, seed=-1)
        assert MaskSpec.random(16, 0.1, seed=np.int64(0)) == MaskSpec.random(16, 0.1, seed=0)

    @pytest.mark.parametrize("unmasked, n_patches",
                             [((1.5,), 4), ((True,), 4), ((0,), 4.5), ((), 0), ((), -3)],
                             ids=["float-index", "bool-index", "float-count", "zero-count",
                                  "negative-count"])
    def test_non_integers_rejected_not_truncated(self, unmasked, n_patches):
        with pytest.raises(ValidationError, match="must be integers and the patch count a pos"):
            MaskSpec(unmasked, n_patches)

    def test_masked_complement(self):
        mask = MaskSpec((0, 3), 5)
        assert mask.masked == (1, 2, 4)

    def test_pixel_mask(self):
        grid = PatchGrid(4, 4, 1, 2)
        obs = pixel_mask(grid, MaskSpec((1,), 4))
        expect = np.zeros((4, 4), dtype=bool)
        expect[0:2, 2:4] = True
        np.testing.assert_array_equal(obs, expect)


class TestAttentionModel:
    @pytest.mark.parametrize("at, value", [((0, 1), -1e-300), ((2, 2), 1e-300)],
                             ids=["negative", "nonzero-diagonal"])
    def test_bad_pair_losses_rejected(self, at, value):
        model = random_model(3, 2, 0)
        pair_losses = model.pair_losses.copy()
        pair_losses[at] = value
        with pytest.raises(ValidationError, match="pair losses must be nonnegative"):
            dataclasses.replace(model, pair_losses=pair_losses)


class TestSoftmaxRow:
    """The softmax inside predict_masked, its weights read off by the
    attention_weights probe (one target per row, one source per column)."""

    def test_neg_inf_gets_exact_zero(self):
        # Without copy-through a target's own pair gets a -inf logit.
        a = np.random.default_rng(0).standard_normal((5, 5)) * 10
        w = attention_weights(a, (0, 1, 3))
        np.testing.assert_array_equal(np.diag(w), 0.0)
        np.testing.assert_array_equal(w[:, [2, 4]], 0.0)  # masked sources

    def test_uniform_on_equal_logits(self):
        w = attention_weights(np.full((4, 4), 3.7), (1, 2, 3), copy_through=True)
        np.testing.assert_allclose(w[0], [0.0] + [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        # Shifting all of one target's logits by a constant keeps its weights.
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal((6, 6)) * 10
            shift = rng.uniform(-500.0, 500.0, (6, 1))
            w1 = attention_weights(a, range(6))
            w2 = attention_weights(a + shift, range(6))
            np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_large_logits_match_extended_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 60
        a = np.array([1000.0, 999.0])
        exps = [mpmath.e**v for v in a]
        total = sum(exps)
        oracle = np.array([float(v / total) for v in exps])
        table = np.zeros((3, 3))
        table[0, 1:] = a
        w = attention_weights(table, (1, 2), copy_through=True)
        np.testing.assert_allclose(w[0, 1:], oracle, atol=1e-12)

    def test_rows_of_a_2d_input_match_the_1d_result(self):
        # A target's weights depend on its own row of logits only.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 7)) * 20
        unmasked = (0, 2, 3, 5, 6)
        w = attention_weights(a, unmasked)
        for m in range(7):
            alone = rng.standard_normal((7, 7)) * 20
            alone[m] = a[m]
            np.testing.assert_array_equal(attention_weights(alone, unmasked)[m], w[m])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.standard_normal((8, 8)) * 50
            unmasked = rng.choice(8, size=int(rng.integers(2, 9)), replace=False)
            sums = attention_weights(a, unmasked).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)


def check_value_fit_against_oracle(latents, lam):
    """Every value map against the explicit-inverse oracle, and every pair
    error against that pair's residual recomputed pair by pair."""
    _, n, e = latents.shape
    value_maps, pair_errors = fit_value_tensor(LatentSeries(latents), lam)
    for m in range(n):
        for src in range(n):
            if m == src:
                np.testing.assert_array_equal(value_maps[m, src], np.eye(e))
                continue
            oracle = value_oracle(latents, m, src, lam)
            assert np.max(np.abs(value_maps[m, src] - oracle)) < 1e-8
            resid = latents[:, m, :] - latents[:, src, :] @ value_maps[m, src].T
            np.testing.assert_allclose(
                pair_errors[m, src], np.sum(resid**2, axis=1), atol=1e-10
            )


class TestFitValueTensor:
    def test_scalar_hand_case(self):
        # z_n over time (1, 2), z_m = (2, 4): least squares gives W = 2 exactly
        latents = np.zeros((2, 2, 1))
        latents[:, 0, 0] = [1.0, 2.0]
        latents[:, 1, 0] = [2.0, 4.0]
        value_maps, pair_errors = fit_value_tensor(LatentSeries(latents), 0.0)
        assert value_maps[1, 0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        assert np.all(pair_errors[1, 0] < 1e-24)

    def test_identical_latents_give_identity(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((20, 1, 3))
        latents = np.concatenate([z, z], axis=1)
        value_maps, _ = fit_value_tensor(LatentSeries(latents), 1e-10)
        np.testing.assert_allclose(value_maps[0, 1], np.eye(3), atol=1e-8)
        np.testing.assert_allclose(value_maps[1, 0], np.eye(3), atol=1e-8)

    def test_matches_bruteforce_oracle(self):
        latents = np.random.default_rng(4).standard_normal((50, 4, 3))
        check_value_fit_against_oracle(latents, 1e-6)

    @pytest.mark.parametrize("e", [1, 5])
    def test_matches_oracle_over_many_targets(self, e):
        # N*e spans many GEMM rows per source, so a mix-up of the
        # (target, component) row layout of the residuals would show.
        latents = np.random.default_rng(17).standard_normal((30, 12, e))
        check_value_fit_against_oracle(latents, 1e-6)

    @pytest.mark.parametrize("e", [1, 5])
    @pytest.mark.parametrize("n", [9, 3], ids=["2B+1", "below-B"])
    def test_matches_oracle_across_target_blocks(self, monkeypatch, e, n):
        # Blocks of B=4 targets: a ragged last block, or one partial block.
        t = 30
        monkeypatch.setattr(attention, "_VALUE_BLOCK_BYTES", 4 * 8 * e * t)
        latents = np.random.default_rng(18).standard_normal((t, n, e))
        check_value_fit_against_oracle(latents, 1e-6)

    def test_no_full_latent_gram(self):
        # Peak allocation beyond the two outputs stays far below one
        # (N*N_e)^2 array: no Gram of all patches against all is formed.
        t, n, e = 20, 64, 8
        latents = LatentSeries(np.random.default_rng(19).standard_normal((t, n, e)))
        tracemalloc.start()
        try:
            value_maps, pair_errors = fit_value_tensor(latents)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - value_maps.nbytes - pair_errors.nbytes < (n * e) ** 2 * 8 / 2

    def test_repeat_fit_bit_identical(self):
        latents = LatentSeries(np.random.default_rng(15).standard_normal((30, 12, 5)))
        first, second = fit_value_tensor(latents), fit_value_tensor(latents)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_diagonal_identity_and_zero_error(self):
        rng = np.random.default_rng(5)
        value_maps, pair_errors = fit_value_tensor(LatentSeries(rng.standard_normal((10, 3, 2))))
        for n in range(3):
            np.testing.assert_array_equal(value_maps[n, n], np.eye(2))
            np.testing.assert_array_equal(pair_errors[n, n], 0.0)

    def test_singular_system_instructs_ridge(self):
        latents = np.zeros((5, 2, 2))
        latents[:, 0, 0] = 1.0  # source patch 1 stays identically zero
        with pytest.raises(NumericalError, match="ridge_lambda"):
            fit_value_tensor(LatentSeries(latents), 0.0)
        latents = np.random.default_rng(20).standard_normal((10, 4, 3))
        latents[:, 2, :] = 0.0  # only source patch 2 is singular
        with pytest.raises(NumericalError, match="source patch 2 is singular"):
            fit_value_tensor(LatentSeries(latents), 0.0)

    def test_solves_one_source_at_a_time(self, monkeypatch):
        # SciPy before 1.15 rejects a stack of factors in cho_solve, so both
        # fits must hand it one (N_e, N_e) factor per call.
        solve = attention.cho_solve

        def two_dimensional_only(factor, b):
            assert factor[0].ndim == 2 and b.ndim == 2
            return solve(factor, b)

        monkeypatch.setattr(attention, "cho_solve", two_dimensional_only)
        latents = LatentSeries(np.random.default_rng(21).standard_normal((20, 5, 3)))
        _, pair_errors = fit_value_tensor(latents)
        fit_attention_tensor(latents, pair_errors)

    def test_underdetermined_warns(self):
        rng = np.random.default_rng(6)
        with pytest.warns(UserWarning, match="underdetermined"):
            fit_value_tensor(LatentSeries(rng.standard_normal((2, 2, 4))))

    def test_ridge_limit_converges_to_pseudoinverse(self):
        rng = np.random.default_rng(7)
        latents = rng.standard_normal((40, 2, 3))
        zm, zn = latents[:, 0, :], latents[:, 1, :]
        target = (zm.T @ zn) @ np.linalg.pinv(zn.T @ zn)
        gaps = []
        for lam in (1e-6, 1e-9, 1e-12):
            value_maps, _ = fit_value_tensor(LatentSeries(latents), lam)
            gaps.append(np.max(np.abs(value_maps[0, 1] - target)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-10

    def test_perturbing_solution_never_improves_objective(self):
        rng = np.random.default_rng(8)
        latents = rng.standard_normal((30, 3, 2))
        lam = 1e-3
        value_maps, _ = fit_value_tensor(LatentSeries(latents), lam)

        def objective(w, m, n):
            resid = latents[:, m, :] - latents[:, n, :] @ w.T
            return np.sum(resid**2) + lam * np.sum(w**2)

        for m, n in [(0, 1), (2, 0), (1, 2)]:
            base = objective(value_maps[m, n], m, n)
            for _ in range(10):
                delta = rng.standard_normal((2, 2))
                delta *= 1e-3 / np.linalg.norm(delta)
                assert objective(value_maps[m, n] + delta, m, n) >= base


class TestFitAttentionTensor:
    def test_constant_error_gives_intercept(self):
        rng = np.random.default_rng(9)
        latents = rng.standard_normal((30, 2, 3))
        pair_errors = np.full((2, 2, 30), np.exp(-2.0))
        vec, icpt = fit_attention_tensor(LatentSeries(latents), pair_errors, 1e-8)
        np.testing.assert_allclose(vec[0, 1], 0.0, atol=1e-8)
        assert icpt[0, 1] == pytest.approx(2.0, abs=1e-8)

    def test_floored_errors_give_constant_ceiling(self):
        rng = np.random.default_rng(10)
        latents = rng.standard_normal((20, 2, 2))
        pair_errors = np.full((2, 2, 20), 1e-30)
        floor = 1e-12
        vec, icpt = fit_attention_tensor(LatentSeries(latents), pair_errors, 1e-8, floor)
        np.testing.assert_allclose(vec[0, 1], 0.0, atol=1e-8)
        assert icpt[0, 1] == pytest.approx(-np.log(floor), rel=1e-10)

    def test_matches_affine_ridge_oracle(self):
        rng = np.random.default_rng(11)
        latents = rng.standard_normal((40, 3, 3))
        pair_errors = rng.uniform(0.1, 5.0, size=(3, 3, 40))
        lam = 1e-4
        vec, icpt = fit_attention_tensor(LatentSeries(latents), pair_errors, lam)
        targets = -np.log(np.maximum(pair_errors, 1e-12))
        for m in range(3):
            for n in range(3):
                if m == n:
                    continue
                w, b = attention_oracle(latents, targets, m, n, lam)
                assert np.max(np.abs(vec[m, n] - w)) < 1e-8
                assert abs(icpt[m, n] - b) < 1e-8

    def test_no_intercept_mode(self):
        rng = np.random.default_rng(12)
        latents = rng.standard_normal((25, 2, 2))
        pair_errors = rng.uniform(0.5, 2.0, size=(2, 2, 25))
        lam = 1e-4
        vec, icpt = fit_attention_tensor(
            LatentSeries(latents), pair_errors, lam, use_intercept=False
        )
        targets = -np.log(np.maximum(pair_errors, 1e-12))
        w, _ = attention_oracle(latents, targets, 0, 1, lam, use_intercept=False)
        assert np.max(np.abs(vec[0, 1] - w)) < 1e-8
        assert icpt[0, 1] == 0.0

    def test_no_full_size_temporaries(self):
        # Targets are built one source at a time: the fit's peak allocation,
        # outputs included, stays far below one (N, N, T) array.
        latents = LatentSeries(np.random.default_rng(16).standard_normal((40, 32, 2)))
        _, pair_errors = fit_value_tensor(latents)
        tracemalloc.start()
        try:
            fit_attention_tensor(latents, pair_errors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pair_errors.nbytes / 2

    def test_diagonal_sentinel(self):
        rng = np.random.default_rng(13)
        latents = rng.standard_normal((10, 2, 2))
        pair_errors = rng.uniform(0.5, 2.0, size=(2, 2, 10))
        vec, icpt = fit_attention_tensor(LatentSeries(latents), pair_errors, 1e-8, 1e-12)
        for n in range(2):
            np.testing.assert_array_equal(vec[n, n], 0.0)
            assert icpt[n, n] == pytest.approx(-np.log(1e-12))

    def test_nonpositive_floor_rejected(self):
        rng = np.random.default_rng(14)
        latents = rng.standard_normal((10, 2, 2))
        with pytest.raises(ValidationError, match="error_floor"):
            fit_attention_tensor(LatentSeries(latents), np.ones((2, 2, 10)), error_floor=0.0)

    @pytest.mark.parametrize("kwargs", [{"error_floor": np.nan}, {"error_floor": np.inf},
                                        {"ridge_lambda": np.nan}, {"ridge_lambda": np.inf}])
    def test_non_finite_floor_or_ridge_rejected(self, kwargs):
        latents = np.random.default_rng(14).standard_normal((10, 2, 2))
        with pytest.raises(ValidationError, match="finite"):
            fit_attention_tensor(LatentSeries(latents), np.ones((2, 2, 10)), **kwargs)


class TestSourceBlocks:
    @pytest.mark.parametrize("use_intercept", [True, False])
    def test_block_is_the_columns_of_the_full_fit(self, use_intercept):
        latents = LatentSeries(np.random.default_rng(40).standard_normal((30, 7, 3)))
        maps, errors = fit_value_tensor(latents, 1e-6)
        vec, icpt = fit_attention_tensor(latents, errors, 1e-6, use_intercept=use_intercept)
        for block in (range(0, 7), range(2, 5), range(6, 7)):
            cols = slice(block.start, block.stop)
            block_maps, block_errors = fit_value_tensor(latents, 1e-6, sources=block)
            np.testing.assert_array_equal(block_maps, maps[:, cols])
            np.testing.assert_array_equal(block_errors, errors[:, cols])
            block_vec, block_icpt = fit_attention_tensor(
                latents, block_errors, 1e-6, use_intercept=use_intercept, sources=block
            )
            np.testing.assert_array_equal(block_vec, vec[:, cols])
            np.testing.assert_array_equal(block_icpt, icpt[:, cols])

    @pytest.mark.parametrize("sources", [range(0), range(3, 3), range(0, 4, 2), range(-1, 2),
                                         range(2, 6), [0, 1]],
                             ids=["empty", "empty-offset", "step-2", "negative", "past-end",
                                  "list"])
    def test_bad_sources_rejected(self, sources):
        latents = LatentSeries(np.random.default_rng(41).standard_normal((10, 5, 2)))
        with pytest.raises(ValidationError, match="sources must be"):
            fit_value_tensor(latents, sources=sources)
        with pytest.raises(ValidationError, match="sources must be"):
            fit_attention_tensor(latents, np.ones((5, 2, 10)), sources=sources)

    def test_pair_errors_must_match_sources(self):
        latents = LatentSeries(np.random.default_rng(42).standard_normal((10, 5, 2)))
        _, errors = fit_value_tensor(latents, sources=range(1, 3))
        with pytest.raises(ValidationError, match="pair_errors shape"):
            fit_attention_tensor(latents, errors)
        with pytest.raises(ValidationError, match="pair_errors shape"):
            fit_attention_tensor(latents, errors, sources=range(1, 4))

    def test_singular_source_named_by_its_global_index(self):
        latents = np.random.default_rng(43).standard_normal((10, 6, 3))
        latents[:, 4, :] = 0.0  # second entry of the block below
        series = LatentSeries(latents)
        block = range(3, 6)
        with pytest.raises(NumericalError, match="normal matrix of source patch 4 is singular"):
            fit_value_tensor(series, 0.0, sources=block)
        with pytest.raises(NumericalError, match="attention system of source patch 4 is singular"):
            fit_attention_tensor(series, np.ones((6, 3, 10)), 0.0, sources=block)

    def test_only_the_centred_system_singular(self):
        # A constant nonzero source has a positive Gram but a zero centred one.
        latents = np.random.default_rng(46).standard_normal((12, 4, 1))
        latents[:, 2, 0] = 3.0
        series = LatentSeries(latents)
        _, errors = fit_value_tensor(series, 0.0)
        with pytest.raises(NumericalError, match="attention system of source patch 2 is singular"):
            fit_attention_tensor(series, errors, 0.0)
        vec, _ = fit_attention_tensor(series, errors, 0.0, use_intercept=False)
        assert np.isfinite(vec).all()

    def test_stack_failure_with_no_singular_source_is_numerical(self, monkeypatch):
        # A library caller gets the package's typed error, never a raw LinAlgError.
        cholesky = np.linalg.cholesky

        def stack_fails(a):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", stack_fails)
        fields = SnapshotSet(np.random.default_rng(48).standard_normal((12, 8, 8, 1)))
        with pytest.raises(NumericalError) as info:
            train_attention_model(normalize(fields, range(0, 12)), 4, 2)
        assert str(info.value) == (
            "Matrix is not positive definite, though each matrix passes alone"
        )

    def test_validation_precedes_factorization(self):
        latents = np.random.default_rng(47).standard_normal((10, 5, 2))
        latents[:, 0, :] = 0.0  # singular at ridge 0 in both fits
        series = LatentSeries(latents)
        with pytest.raises(ValidationError, match="sources must be"):
            fit_value_tensor(series, 0.0, sources=range(0, 4, 2))
        with pytest.raises(ValidationError, match="sources must be"):
            fit_attention_tensor(series, np.ones((5, 2, 10)), 0.0, sources=range(0, 4, 2))
        with pytest.raises(ValidationError, match="pair_errors shape"):
            fit_attention_tensor(series, np.ones((5, 3, 10)), 0.0, sources=range(0, 2))
        with pytest.raises(ValidationError, match="pair_errors shape"):
            fit_attention_tensor(series, np.ones((5, 5, 9)), 0.0)


class TestTrainInSourceBlocks:
    def test_unnormalized_fields_rejected(self):
        fields = SnapshotSet(np.random.default_rng(49).standard_normal((12, 8, 8, 1)))
        with pytest.raises(ValidationError, match=r"^training snapshots must be normalized"):
            train_attention_model(fields, 4, 2)

    @pytest.mark.parametrize("shared_pod", [False, True], ids=["fit", "truncate"])
    def test_latent_dim_must_be_an_integer(self, shared_pod):
        fields = SnapshotSet(np.random.default_rng(50).standard_normal((12, 8, 8, 1)))
        norm = normalize(fields, range(0, 12))
        pod = fit_patch_pod(patchify(norm, 4), 3) if shared_pod else None
        with pytest.raises(ValidationError, match="latent_dim must be an integer"):
            train_attention_model(norm, 4, 2.5, pod=pod)

    def test_ragged_blocks_match_full_fits(self, monkeypatch):
        # N=16 sources in blocks of 3: five full blocks and a ragged one.
        t, side, p, e = 24, 16, 4, 3
        fields = SnapshotSet(np.random.default_rng(44).standard_normal((t, side, side, 2)))
        norm = normalize(fields, range(0, t))
        n = (side // p) ** 2
        monkeypatch.setattr(attention, "_SOURCE_BLOCK_BYTES", 3 * 8 * n * t)
        seen = []
        fit = attention.fit_value_tensor

        def recording(latent, ridge_lambda=None, sources=None):
            seen.append(sources)
            return fit(latent, ridge_lambda, sources=sources)

        monkeypatch.setattr(attention, "fit_value_tensor", recording)
        model = train_attention_model(norm, p, e)
        assert seen == [range(lo, min(lo + 3, n)) for lo in range(0, n, 3)]

        latent = encode(model.pod, patchify(norm, p))
        value_maps, pair_errors = fit(latent)
        attn_vectors, attn_intercepts = fit_attention_tensor(latent, pair_errors)
        np.testing.assert_array_equal(model.value_maps, value_maps)
        np.testing.assert_array_equal(model.attn_vectors, attn_vectors)
        np.testing.assert_array_equal(model.attn_intercepts, attn_intercepts)
        np.testing.assert_array_equal(model.pair_losses, pair_errors.mean(axis=2))

    def test_no_pair_error_tensor(self):
        # N=64 patches and T=1024 snapshots: the default block holds the errors
        # of 16 sources, so the peak stays well below half of one (N, N, T)
        # array beyond the model's value maps.
        t, side, p, e = 1024, 16, 2, 4
        fields = SnapshotSet(np.random.default_rng(45).standard_normal((t, side, side, 2)))
        norm = normalize(fields, range(0, t))
        n = (side // p) ** 2
        tracemalloc.start()
        try:
            model = train_attention_model(norm, p, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.value_maps.nbytes + n * n * t * 8 / 2


class TestTrainOnEveryCpu:
    """Target blocks, sources, the POD's patches and its SVD fallbacks run
    through ``errors.each``; no bit of a model depends on the CPU count."""

    @pytest.mark.parametrize("kind, side, p, fallbacks", [
        ("chaotic-surrogate", 28, 4, 0),  # N=49
        ("laminar-surrogate", 40, 8, 10),  # N=25, ten patches take the SVD
    ], ids=["chaotic", "laminar"])
    def test_model_equal_at_one_and_four_cpus(self, monkeypatch, kind, side, p, fallbacks):
        t, e = 40, 4
        norm = normalize(generate(FlowSpec(kind, side, side, t, seed=3)), range(0, t))
        n = (side // p) ** 2
        # Blocks of 3 targets and of 3 sources, and one POD item per patch: no
        # count of blocks, sources or patches is a multiple of four.
        monkeypatch.setattr(attention, "_VALUE_BLOCK_BYTES", 3 * 8 * e * t)
        monkeypatch.setattr(attention, "_SOURCE_BLOCK_BYTES", 3 * 8 * n * t)
        counts, each = [], attention.each

        def counting(fn, items):
            counts.append(len(items))
            each(fn, items)

        monkeypatch.setattr(attention, "each", counting)
        monkeypatch.setattr(pod, "each", counting)
        models, interval = {}, sys.getswitchinterval()
        for count in (1, 4):  # four shares on fewer cores, switching threads often
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
            sys.setswitchinterval(1e-5 if count > 1 else interval)
            try:
                models[count] = train_attention_model(norm, p, e)
            finally:
                sys.setswitchinterval(interval)
        blocks = -(-n // 3)  # of targets and of sources
        # Per fit: the patches' Gram eighs, the fallbacks, then per source
        # block its target blocks and its sources.
        per_fit = [n, fallbacks]
        for lo in range(0, n, 3):
            per_fit += [blocks, min(3, n - lo)]
        assert counts == per_fit * 2
        one, four = models[1], models[4]
        for name in ("value_maps", "attn_vectors", "attn_intercepts", "pair_losses"):
            assert np.array_equal(getattr(one, name), getattr(four, name)), name
        assert np.array_equal(one.pod.bases, four.pod.bases)
        assert np.array_equal(one.pod.singular_values, four.pod.singular_values)


class TestPredictMasked:
    def test_single_candidate_is_pair_prediction(self):
        rng = np.random.default_rng(15)
        latents = rng.standard_normal((30, 3, 4))
        model = model_from_latents(latents)
        z = latents[0]
        mask = MaskSpec((1,), 3)
        out = predict_masked(model, observed(z[None], mask), mask)[0]
        expect = model.value_maps[0, 1] @ z[1]
        np.testing.assert_allclose(out[0], expect, atol=1e-12)
        np.testing.assert_array_equal(out[1], z[1])  # copy-through

    def test_equal_logits_average_pair_predictions(self):
        rng = np.random.default_rng(16)
        latents = rng.standard_normal((30, 3, 4))
        model = model_from_latents(latents)
        # force equal confidence for both candidate sources of patch 0
        av = np.array(model.attn_vectors, copy=True)
        ic = np.array(model.attn_intercepts, copy=True)
        av[0, :, :] = 0.0
        ic[0, :] = 1.0
        forced = AttentionModel(
            pod=model.pod, norm_stats=model.norm_stats, value_maps=model.value_maps,
            attn_vectors=av, attn_intercepts=ic, pair_losses=model.pair_losses,
            ridge_lambda=model.ridge_lambda, error_floor=model.error_floor,
            use_intercept=True,
        )
        z = latents[3]
        mask = MaskSpec((1, 2), 3)
        out = predict_masked(forced, observed(z[None], mask), mask)[0]
        expect = 0.5 * (forced.value_maps[0, 1] @ z[1] + forced.value_maps[0, 2] @ z[2])
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    def test_exact_linear_relation_recovered(self):
        # z_m = 2 z_n in training: predicting m from mask {n} is exact
        rng = np.random.default_rng(17)
        base = rng.standard_normal((40, 1, 4))
        latents = np.concatenate([base, 2.0 * base], axis=1)
        model = model_from_latents(latents)
        z = latents[5]
        mask = MaskSpec((0,), 2)
        out = predict_masked(model, observed(z[None], mask), mask)[0]
        assert np.max(np.abs(out[1] - 2.0 * z[0])) < 1e-10

    def test_masked_sources_have_zero_influence(self):
        rng = np.random.default_rng(18)
        latents = rng.standard_normal((30, 4, 4))
        model = model_from_latents(latents)
        mask = MaskSpec((0, 2), 4)
        z = latents[7]
        out = predict_masked(model, observed(z[None], mask), mask)[0]
        # manual blend over unmasked sources only
        for m in mask.masked:
            logits = np.array(
                [model.attn_vectors[m, n] @ z[n] + model.attn_intercepts[m, n] for n in (0, 2)]
            )
            w = np.exp(logits - logits.max())
            w /= w.sum()
            expect = w[0] * model.value_maps[m, 0] @ z[0] + w[1] * model.value_maps[m, 2] @ z[2]
            np.testing.assert_allclose(out[m], expect, atol=1e-12)

    def test_self_pair_has_exactly_zero_weight(self):
        # Without copy-through each observed target blends the other sources
        # only: its own pair's value map and logit change no output bit.
        rng = np.random.default_rng(21)
        latents = rng.standard_normal((30, 5, 3))
        model = model_from_latents(latents)
        mask = MaskSpec((0, 2, 3), 5)
        z = observed(latents[:9], mask)
        altered = copy.copy(model)
        diag = (np.array(mask.unmasked), np.array(mask.unmasked))
        for name, scale in [("value_maps", 1e3), ("attn_vectors", 1e3), ("attn_intercepts", 1e6)]:
            arr = getattr(model, name).copy()
            arr[diag] = scale * rng.standard_normal(arr[diag].shape)
            # A non-identity self map fails model validation, so set it directly.
            object.__setattr__(altered, name, arr)
        want = predict_masked(model, z, mask, copy_through=False)
        np.testing.assert_array_equal(predict_masked(altered, z, mask, copy_through=False), want)

    def test_all_masked_rejected(self):
        rng = np.random.default_rng(19)
        model = model_from_latents(rng.standard_normal((20, 3, 4)))
        with pytest.raises(ValidationError, match="all patches are masked"):
            predict_masked(model, np.zeros((0, 1, 4)), MaskSpec((), 3))

    def test_lone_self_row_without_copy_through_rejected(self):
        rng = np.random.default_rng(20)
        model = model_from_latents(rng.standard_normal((20, 3, 4)))
        z = rng.standard_normal((1, 3, 4))
        mask = MaskSpec((1,), 3)
        with pytest.raises(ValidationError, match="no unmasked prediction sources"):
            predict_masked(model, observed(z, mask), mask, copy_through=False)

    def test_without_copy_through_all_rows_predicted(self):
        rng = np.random.default_rng(21)
        latents = rng.standard_normal((30, 4, 4))
        model = model_from_latents(latents)
        z = latents[2]
        mask = MaskSpec((0, 3), 4)
        out = predict_masked(model, observed(z[None], mask), mask, copy_through=False)[0]
        # row 0 is predicted from source 3 only (self excluded)
        expect = model.value_maps[0, 3] @ z[3]
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observed_row_rejected(self, bad):
        rng = np.random.default_rng(27)
        model = model_from_latents(rng.standard_normal((20, 3, 4)))
        z = rng.standard_normal((2, 3, 4))
        z[1, 2, 0] = bad
        mask = MaskSpec((0, 2), 3)
        with pytest.raises(ValidationError, match="observed latent rows"):
            predict_masked(model, observed(z, mask), mask)

    def test_overflowing_logit_raises_numerical_error(self):
        # Small training latents give confidence vectors of norm ~1e3, so a
        # finite observed latent near the float64 maximum overflows a logit.
        rng = np.random.default_rng(27)
        model = model_from_latents(1e-3 * rng.standard_normal((20, 3, 4)))
        mask = MaskSpec((0, 2), 3)
        z = np.zeros((1, 3, 4))
        z[0, 0] = 1e308 * np.sign(model.attn_vectors[1, 0])
        assert np.abs(model.attn_vectors[1, 0]).sum() > np.finfo(float).max / 1e308
        with pytest.raises(NumericalError, match="^non-finite attention logit encountered$"):
            predict_masked(model, observed(z, mask), mask)

    @pytest.mark.parametrize(
        "shape, n_mask", [((1, 4), 3), ((1, 1, 5), 3), ((2, 1, 4), 3), ((1, 1, 4), 4)]
    )
    def test_shape_or_mask_mismatch_rejected(self, shape, n_mask):
        rng = np.random.default_rng(28)
        model = model_from_latents(rng.standard_normal((20, 3, 4)))
        with pytest.raises(ValidationError, match="does not match model"):
            predict_masked(model, np.zeros(shape), MaskSpec((0,), n_mask))

    @pytest.mark.parametrize("copy_through", [True, False])
    def test_chunked_batch_matches_per_snapshot_calls(self, copy_through):
        rng = np.random.default_rng(29)
        model = model_from_latents(rng.standard_normal((30, 4, 4)))
        mask = MaskSpec((1, 3), 4)
        z = rng.standard_normal((2 * _PREDICT_CHUNK + 1, 4, 4))
        batch = predict_masked(model, observed(z, mask), mask, copy_through)
        for t in range(len(z)):
            single = predict_masked(model, observed(z[t : t + 1], mask), mask, copy_through)
            np.testing.assert_array_equal(batch[t], single[0])

    @pytest.mark.parametrize("copy_through", [True, False])
    @pytest.mark.parametrize("e", [1, 5])
    def test_matches_loop_oracle(self, e, copy_through):
        # Three chunks, five sources, random tensors so the weights spread.
        model = random_model(20, e, seed=30 + e)
        z = np.random.default_rng(31).standard_normal((2 * _PREDICT_CHUNK + 1, 20, e))
        mask = MaskSpec((0, 3, 7, 12, 19), 20)
        want = predict_oracle(model, z, mask.unmasked, copy_through)
        np.testing.assert_allclose(
            predict_masked(model, observed(z, mask), mask, copy_through), want,
            rtol=1e-12, atol=1e-12 * np.max(np.abs(want)),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 9), e=st.integers(1, 3), t=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1), copy_through=st.booleans(), data=st.data(),
    )
    def test_relabelling_patches_permutes_rows(self, n, e, t, seed, copy_through, data):
        # Any relabelling that keeps the observed patches in their order: the
        # sums over sources run in label order, so reordering them would move
        # the rounding.
        unmasked = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1)))
        perm = np.array(data.draw(st.permutations(range(n))))
        perm[unmasked] = np.sort(perm[unmasked])
        model = random_model(n, e, seed)
        z = np.random.default_rng(seed).standard_normal((t, n, e))
        mask = MaskSpec(tuple(unmasked), n)
        out = predict_masked(model, observed(z, mask), mask, copy_through)
        moved_mask = MaskSpec(tuple(int(perm[s]) for s in unmasked), n)
        moved = predict_masked(
            relabelled(model, perm), observed(z[:, np.argsort(perm)], moved_mask), moved_mask,
            copy_through,
        )
        np.testing.assert_array_equal(moved[:, perm], out)

    def test_no_pair_prediction_temporary(self):
        # One GEMM per source into a reused buffer: the peak allocation stays
        # below one (T, R, k, e) array holding every pair prediction.
        n, e = 64, 8
        model = random_model(n, e, seed=33)
        mask = MaskSpec(tuple(range(0, n, 2)), n)
        z = observed(np.random.default_rng(34).standard_normal((_PREDICT_CHUNK, n, e)), mask)
        pair_preds_nbytes = _PREDICT_CHUNK * len(mask.masked) * len(mask.unmasked) * e * 8
        tracemalloc.start()
        try:
            predict_masked(model, z, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pair_preds_nbytes

    def test_reproducible_training(self):
        rng = np.random.default_rng(22)
        fields = SnapshotSet(rng.standard_normal((24, 8, 8, 2)))
        norm = normalize(fields, range(0, 24))
        a = train_attention_model(norm, 4, 3)
        b = train_attention_model(norm, 4, 3)
        np.testing.assert_array_equal(a.value_maps, b.value_maps)
        np.testing.assert_array_equal(a.attn_vectors, b.attn_vectors)
        np.testing.assert_array_equal(a.attn_intercepts, b.attn_intercepts)
        np.testing.assert_array_equal(a.pair_losses, b.pair_losses)
        np.testing.assert_array_equal(a.pod.bases, b.pod.bases)

    def test_mismatched_pod_rejected(self):
        fields = SnapshotSet(np.random.default_rng(35).standard_normal((24, 8, 8, 2)))
        norm = normalize(fields, range(0, 24))
        pod = train_attention_model(norm, 4, 3).pod
        with pytest.raises(ValidationError, match="does not match model grid"):
            train_attention_model(norm, 2, 3, pod=pod)
        with pytest.raises(ValidationError, match="cannot truncate 3 modes to latent_dim 4"):
            train_attention_model(norm, 4, 4, pod=pod)


class TestReconstruct:
    def make_model(self, seed=23, t=40, h=8, w=8, p=4, ne=3):
        rng = np.random.default_rng(seed)
        fields = SnapshotSet(rng.standard_normal((t, h, w, 2)))
        norm = normalize(fields, range(0, t))
        return train_attention_model(norm, p, ne), norm

    def test_full_coverage_is_pod_projection(self):
        model, norm = self.make_model()
        mask = MaskSpec(tuple(range(model.n_patches)), model.n_patches)
        recon = reconstruct(model, norm, mask)
        series = patchify(norm, model.grid.patch_size)
        proj = unpatchify(decode(model.pod, encode(model.pod, series)))
        np.testing.assert_allclose(recon.data, proj.data, atol=1e-12)

    def test_masked_content_is_ignored(self):
        model, norm = self.make_model()
        mask = MaskSpec((0, 1), model.n_patches)
        recon_a = reconstruct(model, norm, mask)
        # scribble over the masked patches; the reconstruction must not change
        scribbled = np.array(norm.data, copy=True)
        obs = pixel_mask(model.grid, mask)
        scribbled[:, ~obs, :] = 123.0
        recon_b = reconstruct(model, SnapshotSet(scribbled, norm.norm_stats), mask)
        np.testing.assert_array_equal(recon_a.data, recon_b.data)

    @pytest.mark.parametrize("unmasked, copy_through", [
        ((0,), True), ((1, 2), True), ((1, 2), False), ((0, 1, 2, 3), True), ((0, 1, 2, 3), False),
    ])
    def test_observed_only_encode_matches_encode_all(self, unmasked, copy_through):
        model, norm = self.make_model()
        mask = MaskSpec(unmasked, model.n_patches)
        recon = reconstruct(model, norm, mask, copy_through)
        want = reconstruct_oracle(model, norm, mask, copy_through)
        assert np.array_equal(recon.data, want.data)
        assert recon.norm_stats is norm.norm_stats

    def test_mask_size_mismatch_rejected(self):
        model, norm = self.make_model()
        with pytest.raises(ValidationError, match="mask over 9 patches"):
            reconstruct(model, norm, MaskSpec((8,), 9))

    def test_no_unmasked_rejected(self):
        model, norm = self.make_model()
        with pytest.raises(ValidationError, match="all patches are masked"):
            reconstruct(model, norm, MaskSpec((), model.n_patches))

    def test_geometry_mismatch_rejected(self):
        model, _ = self.make_model()
        rng = np.random.default_rng(24)
        other = SnapshotSet(rng.standard_normal((4, 16, 16, 2)))
        with pytest.raises(ValidationError, match="does not match model grid"):
            reconstruct(model, other, MaskSpec((0,), model.n_patches))

    def test_batch_predict_matches_single(self):
        rng = np.random.default_rng(25)
        latents = rng.standard_normal((10, 4, 4))
        model = model_from_latents(latents)
        mask = MaskSpec((1, 2), 4)
        batch = predict_masked(model, observed(latents, mask), mask)
        for t in range(10):
            single = predict_masked(model, observed(latents[t : t + 1], mask), mask)
            np.testing.assert_array_equal(batch[t], single[0])


class TestValueFitGram:
    """Training latents are U^T X for the POD of the same series, so each
    source's Gram Z_n Z_n^T, the value fit's normal matrix less its ridge, is
    diag(sigma_n^2) up to rounding."""

    @pytest.mark.parametrize(
        "kind, snapshots, patch_size",
        [("laminar-surrogate", 160, 8), ("chaotic-surrogate", 400, 4)],
        ids=["laminar-P8", "chaotic-P4"],
    )
    def test_source_grams_are_the_pod_spectrum(self, kind, snapshots, patch_size):
        raw = generate(FlowSpec(kind, 64, 64, snapshots, seed=3))
        series = patchify(split_standardized(raw, SplitSpec())[0], patch_size)
        pod = fit_patch_pod(series, 8)
        latent = encode(pod, series)
        z = latent.by_patch                                       # (N, N_e, T)
        grams = z @ z.transpose(0, 2, 1)
        sigma2 = pod.singular_values**2                           # (N, N_e)
        # The automatic ridge of attention._source_systems.
        energy = np.maximum(np.trace(grams, axis1=1, axis2=2), latent.mean_energy)
        lam = attention.RIDGE_SCALE * energy / latent.latent_dim
        diag = np.diagonal(grams, axis1=1, axis2=2)
        off = np.abs(grams - diag[:, :, None] * np.eye(8)).max(axis=(1, 2))
        # Measured at most 4.0e-14 and 6.0e-12 (laminar P=8) of these scales.
        assert np.all(off <= 1e-12 * (sigma2[:, 0] + lam))
        assert np.all(np.abs(diag - sigma2) <= 1e-10 * (sigma2 + lam[:, None]))
