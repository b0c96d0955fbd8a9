import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp import (
    SnapshotSet,
    SplitSpec,
    ValidationError,
    denormalize,
    normalize,
    patchify,
    split,
    unpatchify,
)
from lamp import patches
from lamp.patches import (
    MaskSpec,
    NormStats,
    PatchedSeries,
    PatchGrid,
    apply_stats,
    patch_vectors,
    split_standardized,
)
from lamp.synthetic import CHAOTIC, LAMINAR, FlowSpec, generate
from oracles import apply_stats_oracle, denormalize_oracle


def rand_fields(rng, t, h, w, c):
    return SnapshotSet(rng.standard_normal((t, h, w, c)))


class TestSnapshotSet:
    def test_rejects_nan(self):
        data = np.zeros((2, 4, 4, 1))
        data[1, 2, 3, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            SnapshotSet(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError, match="shape"):
            SnapshotSet(np.zeros((4, 4, 1)))

    @pytest.mark.parametrize("shape", [(0, 2, 2, 1), (1, 2, 0, 1), (1, 2, 2, 0)])
    def test_rejects_empty_dimension(self, shape):
        with pytest.raises(ValidationError, match="empty snapshot dimensions"):
            SnapshotSet(np.zeros(shape))

    def test_rejects_stats_of_another_component_count(self):
        with pytest.raises(ValidationError, match="norm stats do not match component count"):
            SnapshotSet(np.zeros((1, 2, 2, 2)), norm_stats=NormStats(np.zeros(1), np.ones(1)))

    def test_immutable(self):
        fields = SnapshotSet(np.zeros((1, 2, 2, 1)))
        with pytest.raises(ValueError):
            fields.data[0, 0, 0, 0] = 1.0


class TestNormalize:
    def test_constant_component_errors(self):
        fields = SnapshotSet(np.full((4, 4, 4, 1), 5.0))
        with pytest.raises(ValidationError, match="component 0.*zero variance"):
            normalize(fields, range(0, 4))

    def test_two_point_values(self):
        # train values {-1, +1}: population mean 0, std 1, output unchanged
        data = np.zeros((2, 2, 2, 1))
        data[0] = -1.0
        data[1] = +1.0
        out = normalize(SnapshotSet(data), range(0, 2))
        assert out.norm_stats.mean[0] == 0.0
        assert out.norm_stats.std[0] == 1.0
        np.testing.assert_array_equal(out.data, data)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(0)
        raw = rand_fields(rng, 20, 4, 4, 2)
        once = normalize(raw, range(0, 20))
        twice = normalize(SnapshotSet(once.data), range(0, 20))
        np.testing.assert_allclose(twice.data, once.data, rtol=0, atol=1e-12)

    def test_train_block_statistics(self):
        rng = np.random.default_rng(1)
        raw = SnapshotSet(3.0 + 2.5 * rng.standard_normal((30, 8, 8, 2)))
        out = normalize(raw, range(0, 20))
        block = out.data[:20]
        for c in range(2):
            assert abs(block[..., c].mean()) < 1e-10
            assert abs(block[..., c].std() - 1.0) < 1e-10

    def test_stats_applied_to_all_snapshots(self):
        rng = np.random.default_rng(2)
        raw = rand_fields(rng, 10, 4, 4, 1)
        out = normalize(raw, range(0, 5))
        stats = out.norm_stats
        expect = (raw.data - stats.mean) / stats.std
        np.testing.assert_array_equal(out.data, expect)

    def test_round_trip_within_1e12(self):
        rng = np.random.default_rng(3)
        raw = SnapshotSet(10.0 + 4.0 * rng.standard_normal((12, 4, 6, 2)))
        back = denormalize(normalize(raw, range(0, 12)))
        np.testing.assert_allclose(back.data, raw.data, rtol=1e-12)

    def test_empty_train_range(self):
        fields = rand_fields(np.random.default_rng(4), 4, 2, 2, 1)
        with pytest.raises(ValidationError, match="empty"):
            normalize(fields, range(0, 0))

    @pytest.mark.parametrize("train_range", [range(0, 5), range(-1, 2), range(0, 4, 2)])
    def test_train_range_outside_or_strided(self, train_range):
        fields = rand_fields(np.random.default_rng(4), 4, 2, 2, 1)
        with pytest.raises(ValidationError, match="outside .* or non-contiguous"):
            normalize(fields, train_range)

    def test_apply_stats_of_another_component_count(self):
        fields = rand_fields(np.random.default_rng(4), 2, 2, 3, 2)
        with pytest.raises(ValidationError, match="norm stats do not match component count"):
            apply_stats(fields, NormStats(np.zeros(1), np.ones(1)))

    def test_denormalize_without_stats(self):
        fields = rand_fields(np.random.default_rng(4), 2, 2, 2, 1)
        with pytest.raises(ValidationError, match="carries no normalization stats"):
            denormalize(fields)


class TestAffineRows:
    """The row-wise standardization is bit-identical to broadcasting (C,) stats."""

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("w", [1, 5, 7])
    def test_apply_stats_and_denormalize_match_broadcast(self, c, w):
        rng = np.random.default_rng(10 * c + w)
        fields = SnapshotSet(3.0 + 2.0 * rng.standard_normal((4, 3, w, c)))
        stats = NormStats(rng.standard_normal(c), 0.5 + rng.random(c))
        norm = apply_stats(fields, stats)
        want = apply_stats_oracle(fields.data, stats.mean, stats.std)
        assert np.array_equal(norm.data, want)
        assert norm.norm_stats is stats
        back = denormalize(norm)
        assert np.array_equal(back.data, denormalize_oracle(norm.data, stats.mean, stats.std))
        assert back.norm_stats is None


class TestNormStatsBits:
    """normalize's blocked statistics are numpy's mean and population std, bit for bit."""

    @staticmethod
    def assert_numpy_bits(fields, train):
        stats = normalize(fields, train).norm_stats
        block = fields.data[train.start : train.stop]
        assert np.array_equal(stats.mean, block.mean(axis=(0, 1, 2)))
        assert np.array_equal(stats.std, block.std(axis=(0, 1, 2)))

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "extra", [-1, 0, 1, None], ids=["under", "one-block", "one-more", "ragged"]
    )
    def test_block_boundaries(self, c, extra):
        step = patches.BLOCK_BYTES // (8 * c)  # the helper's pixels per block
        pixels = 7 * step + step // 3 + 5 if extra is None else step + extra
        rng = np.random.default_rng(100 * c + pixels % 97)
        # Zero-mean values cancel, so the sums' roundings depend on the order of addition.
        data = rng.standard_normal((pixels, 1, 1, c))
        self.assert_numpy_bits(SnapshotSet(data), range(0, pixels))

    def test_more_components_than_one_block_holds(self):
        c = patches.BLOCK_BYTES // 8 + 1  # one pixel is more than a block
        data = np.random.default_rng(9).standard_normal((3, 1, 2, c))
        self.assert_numpy_bits(SnapshotSet(data), range(0, 3))

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_train_block_of_a_longer_series(self, c):
        rng = np.random.default_rng(c)
        shape = (23, 37, 29, c)
        data = 5.0 + rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
        self.assert_numpy_bits(SnapshotSet(data), range(3, 20))

    @pytest.mark.parametrize("kind,snapshots", [(LAMINAR, 160), (CHAOTIC, 400)])
    def test_generated_sets(self, kind, snapshots):
        raw = generate(FlowSpec(kind, 64, 64, snapshots, seed=7))
        self.assert_numpy_bits(raw, SplitSpec().train_range(snapshots))


class TestPatchify:
    def test_single_patch_is_row_major_flattening(self):
        rng = np.random.default_rng(5)
        fields = rand_fields(rng, 3, 4, 4, 1)
        series = patchify(fields, 4)
        assert series.grid.n_patches == 1
        assert series.grid.patch_dim == 16
        np.testing.assert_array_equal(series.values[:, 0, :], fields.data.reshape(3, 16))

    def test_two_by_two_ordering(self):
        # top-left patch holds pixels (0,0),(0,1),(1,0),(1,1) in that order
        fields = SnapshotSet(np.arange(16, dtype=float).reshape(1, 4, 4, 1))
        series = patchify(fields, 2)
        assert series.grid.n_patches == 4
        np.testing.assert_array_equal(series.values[0, 0], [0.0, 1.0, 4.0, 5.0])
        np.testing.assert_array_equal(series.values[0, 1], [2.0, 3.0, 6.0, 7.0])
        np.testing.assert_array_equal(series.values[0, 2], [8.0, 9.0, 12.0, 13.0])

    def test_component_index_fastest(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, :, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
        data[0, :, :, 1] = [[10.0, 20.0], [30.0, 40.0]]
        series = patchify(SnapshotSet(data), 2)
        np.testing.assert_array_equal(
            series.values[0, 0], [1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]
        )

    def test_non_divisible_patch_errors(self):
        fields = rand_fields(np.random.default_rng(6), 2, 6, 4, 1)
        with pytest.raises(ValidationError, match="4 does not divide.*6x4"):
            patchify(fields, 4)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("name", ["height", "width", "components", "patch_size"])
    def test_grid_rejects_booleans(self, name, value):
        sizes = {"height": 8, "width": 8, "components": 1, "patch_size": 4, name: value}
        with pytest.raises(ValidationError, match=f"{name} must be a positive integer"):
            PatchGrid(**sizes)


class TestUnpatchify:
    @pytest.mark.parametrize("h,w,c,p", [(8, 8, 2, 4), (4, 4, 1, 4), (6, 9, 3, 3)])
    def test_round_trip_bit_exact(self, h, w, c, p):
        rng = np.random.default_rng(7)
        fields = rand_fields(rng, 5, h, w, c)
        back = unpatchify(patchify(fields, p))
        np.testing.assert_array_equal(back.data, fields.data)

    def test_round_trip_zero_field(self):
        fields = SnapshotSet(np.zeros((2, 8, 8, 2)))
        back = unpatchify(patchify(fields, 4))
        np.testing.assert_array_equal(back.data, fields.data)

    def test_series_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        grid = PatchGrid(8, 12, 2, 4)
        series = PatchedSeries(grid, rng.standard_normal((3, grid.n_patches, grid.patch_dim)))
        again = patchify(unpatchify(series), 4)
        np.testing.assert_array_equal(again.values, series.values)

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 4), rows=st.integers(1, 4), cols=st.integers(1, 4),
        c=st.integers(1, 3), p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact_property(self, t, rows, cols, c, p, seed):
        fields = rand_fields(np.random.default_rng(seed), t, rows * p, cols * p, c)
        series = patchify(fields, p)
        assert series.values.shape == (t, rows * cols, c * p * p)
        np.testing.assert_array_equal(unpatchify(series).data, fields.data)

    def test_patch_vectors_are_patchify_rows(self):
        rng = np.random.default_rng(9)
        fields = rand_fields(rng, 3, 8, 12, 2)
        series = patchify(fields, 4)
        picked = np.array([5, 0, 3])
        got = patch_vectors(fields.data, series.grid, picked)
        np.testing.assert_array_equal(got, series.values[:, picked].transpose(1, 0, 2))

    def test_inconsistent_values_rejected(self):
        grid = PatchGrid(8, 8, 1, 4)
        with pytest.raises(ValidationError, match="inconsistent"):
            PatchedSeries(grid, np.zeros((2, 3, 16)))


class TestSplit:
    def test_blocks_are_frozen_views(self):
        fields = SnapshotSet(np.arange(40, dtype=float).reshape(10, 2, 1, 2))
        for block in split(fields, SplitSpec(0.5, 0.3, 0.2)):
            assert np.shares_memory(block.data, fields.data)
            assert not block.data.flags.writeable
            assert block.data.flags.c_contiguous

    def test_default_fractions_at_t100(self):
        fields = SnapshotSet(np.arange(100, dtype=float).reshape(100, 1, 1, 1))
        train, test = split(fields, SplitSpec(0.75, 0.20, 0.05))
        np.testing.assert_array_equal(train.data.ravel(), np.arange(75))
        np.testing.assert_array_equal(test.data.ravel(), np.arange(80, 100))

    def test_no_gap(self):
        fields = SnapshotSet(np.arange(20, dtype=float).reshape(20, 1, 1, 1))
        train, test = split(fields, SplitSpec(0.5, 0.5, 0.0))
        np.testing.assert_array_equal(train.data.ravel(), np.arange(10))
        np.testing.assert_array_equal(test.data.ravel(), np.arange(10, 20))

    def test_empty_test_errors(self):
        fields = SnapshotSet(np.zeros((3, 1, 1, 1)))
        with pytest.raises(ValidationError, match="empty test"):
            split(fields, SplitSpec(0.9, 0.05, 0.05))

    @pytest.mark.parametrize("t", [10, 33, 100, 161])
    def test_disjoint_with_gap_of_floor_len(self, t):
        spec = SplitSpec(0.75, 0.20, 0.05)
        train_idx = spec.train_range(t)
        test_idx = spec.test_range(t)
        assert set(train_idx).isdisjoint(test_idx)
        gap = test_idx.start - train_idx.stop
        assert abs(gap - int(0.05 * t)) <= 1

    def test_fraction_validation(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            SplitSpec(-0.1, 0.5, 0.0)
        with pytest.raises(ValidationError, match="more than 1"):
            SplitSpec(0.8, 0.3, 0.05)

    @pytest.mark.parametrize("fracs", [(np.nan, 0.2, 0.05), (0.75, np.nan, 0.05),
                                       (0.75, 0.2, np.nan), (0.75, 0.2, -np.inf)])
    def test_non_finite_fraction_rejected(self, fracs):
        with pytest.raises(ValidationError, match="finite"):
            SplitSpec(*fracs)


class TestSplitStandardized:
    def test_matches_normalize_then_split_bitwise(self):
        raw = rand_fields(np.random.default_rng(20), 41, 4, 4, 2)
        spec = SplitSpec(0.6, 0.3, 0.1)
        train_norm, test_norm, test_raw = split_standardized(raw, spec)
        want_train, want_test = split(normalize(raw, spec.train_range(raw.snapshots)), spec)
        np.testing.assert_array_equal(train_norm.data, want_train.data)
        np.testing.assert_array_equal(test_norm.data, want_test.data)
        np.testing.assert_array_equal(train_norm.norm_stats.std, want_train.norm_stats.std)
        assert test_norm.norm_stats is train_norm.norm_stats
        np.testing.assert_array_equal(test_raw.data, split(raw, spec)[1].data)
        assert test_raw.norm_stats is None

    def test_given_stats_applied_frozen(self):
        raw = rand_fields(np.random.default_rng(21), 20, 2, 2, 1)
        stats = NormStats(np.array([3.0]), np.array([2.0]))
        train_norm, test_norm, test_raw = split_standardized(raw, SplitSpec(), stats)
        assert train_norm.norm_stats is stats and test_norm.norm_stats is stats
        np.testing.assert_array_equal(test_norm.data, (test_raw.data - 3.0) / 2.0)


class TestMaskSpec:
    @pytest.mark.parametrize("n_patches", [0, 1.5])
    def test_random_rejects_a_bad_patch_count(self, n_patches):
        # Checked before drawing, as MaskSpec((), 0) is, not left to rng.choice.
        with pytest.raises(ValidationError, match="n_patches must be a positive integer"):
            MaskSpec.random(n_patches, 0.5, 1)
