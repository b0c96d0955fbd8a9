import math

import numpy as np
import pytest

from lamp import (
    ChaoticParams,
    FlowSpec,
    LaminarParams,
    MaskSpec,
    NormStats,
    NumericalError,
    SnapshotSet,
    ValidationError,
    generate,
    noise_sigma2,
    patchify,
    pixel_mask,
    signal_power,
)
from lamp import patches, synthetic
from lamp.patches import PatchGrid, apply_stats, patch_vectors
from lamp.synthetic import add_noise_fixed, draw_noise, observe
from oracles import add_noise_oracle


def effective_rank(mat, energy=0.99):
    s = np.linalg.svd(mat, compute_uv=False)
    cum = np.cumsum(s**2) / np.sum(s**2)
    return int(np.searchsorted(cum, energy) + 1)


class TestLaminar:
    def test_period_expressed_in_snapshots(self):
        # wavelength 32 at unit speed: snapshot t equals snapshot t + 32
        spec = FlowSpec("laminar-surrogate", 64, 64, 64, seed=0)
        fields = generate(spec)
        assert np.max(np.abs(fields.data[:32] - fields.data[32:])) < 1e-10

    def test_deterministic(self):
        spec = FlowSpec("laminar-surrogate", 32, 32, 20, seed=42)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_per_patch_rank_bounded_by_twice_harmonics(self):
        params = LaminarParams(harmonics=3)
        spec = FlowSpec("laminar-surrogate", 64, 64, 80, seed=1, params=params)
        series = patchify(generate(spec), 8)
        for n in range(series.grid.n_patches):
            mat = series.values[:, n, :]
            s = np.linalg.svd(mat, compute_uv=False)
            if s[0] == 0.0:
                continue  # identically zero border patch
            assert np.all(s[2 * 3 :] < 1e-10 * s[0])

    def test_envelope_has_compact_support(self):
        params = LaminarParams(envelope_width=16.0)
        spec = FlowSpec("laminar-surrogate", 64, 64, 10, seed=2, params=params)
        fields = generate(spec)
        assert np.all(fields.data[:, :15, :, :] == 0.0)
        assert np.all(fields.data[:, 49:, :, :] == 0.0)
        assert np.any(fields.data[:, 28:36, :, :] != 0.0)

    def test_two_components(self):
        fields = generate(FlowSpec("laminar-surrogate", 32, 32, 8, seed=3))
        assert fields.components == 2


class TestChaotic:
    def test_high_effective_rank(self):
        spec = FlowSpec("chaotic-surrogate", 48, 48, 300, seed=4)
        fields = generate(spec)
        mat = fields.data.reshape(300, -1)
        assert effective_rank(mat) > 30

    def test_deterministic(self):
        spec = FlowSpec("chaotic-surrogate", 32, 32, 40, seed=5)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_non_repeating(self):
        spec = FlowSpec("chaotic-surrogate", 32, 32, 200, seed=6)
        fields = generate(spec)
        first = fields.data[0]
        gaps = [np.max(np.abs(fields.data[t] - first)) for t in range(1, 200)]
        assert min(gaps) > 1e-3

    def test_mode_count_validated(self):
        with pytest.raises(ValidationError, match="mode count"):
            ChaoticParams(modes=0)


class TestFlowSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown flow kind"):
            FlowSpec("dns", 32, 32, 10, seed=0)

    def test_params_type_checked(self):
        with pytest.raises(ValidationError, match="expects"):
            FlowSpec("laminar-surrogate", 32, 32, 10, seed=0, params=ChaoticParams())

    @pytest.mark.parametrize("field, value, match", [
        ("height", 2.5, "height must be an integer"),
        ("width", 2.5, "width must be an integer"),
        ("snapshots", 2.5, "snapshots must be an integer"),
        ("height", "8", "height must be an integer"),
        ("seed", 2.5, "seed must be a non-negative integer"),
        ("seed", -1, "seed must be a non-negative integer"),
        ("height", 0, "height, width and snapshots must be positive"),  # unchanged message
    ])
    def test_geometry_and_seed_must_be_integers(self, field, value, match):
        args = {"height": 8, "width": 8, "snapshots": 4, "seed": 0, field: value}
        with pytest.raises(ValidationError, match=match):
            FlowSpec("laminar-surrogate", **args)

    def test_numpy_integers_accepted(self):
        spec = FlowSpec("chaotic-surrogate", np.int64(8), np.int32(8), np.int64(4),
                        seed=np.uint32(3), params=ChaoticParams(modes=np.int64(3)))
        assert generate(spec).data.shape == (4, 8, 8, 2)
        assert LaminarParams(harmonics=np.int16(2)).harmonics == 2

    @pytest.mark.parametrize("params, match", [
        (lambda: LaminarParams(harmonics=2.5), "harmonics must be an integer"),
        (lambda: ChaoticParams(modes=2.5), "modes must be an integer"),
        (lambda: LaminarParams(harmonics="2"), "harmonics must be an integer"),
        (lambda: LaminarParams(harmonics=0), r"harmonics must be in \[1, 6\], got 0"),
    ], ids=["harmonics", "modes", "harmonics-str", "harmonics-0"])
    def test_term_counts_must_be_integers(self, params, match):
        with pytest.raises(ValidationError, match=match):
            params()


    @pytest.mark.parametrize(
        "params",
        [
            lambda: ChaoticParams(packet_radius=0.0),
            lambda: ChaoticParams(packet_radius=-1.0),
            lambda: ChaoticParams(packet_radius=math.nan),
            lambda: ChaoticParams(packet_radius=math.inf),
            lambda: LaminarParams(envelope_width=-2.0),
            lambda: LaminarParams(envelope_width=0.0),
            lambda: LaminarParams(envelope_width=math.nan),
            lambda: LaminarParams(speed=math.nan),
            lambda: LaminarParams(speed=math.inf),
            lambda: LaminarParams(wavelength=math.inf),
            lambda: LaminarParams(wavelength=-32.0),
        ],
        ids=["radius-0", "radius-neg", "radius-nan", "radius-inf", "width-neg", "width-0",
             "width-nan", "speed-nan", "speed-inf", "wavelength-inf", "wavelength-neg"],
    )
    def test_lengths_and_rates_must_be_finite_and_positive(self, params):
        with pytest.raises(ValidationError, match="must be finite and positive"):
            params()

    @pytest.mark.parametrize("radius", [1e300, 1e-300])
    def test_packet_radius_square_must_be_finite_and_nonzero(self, radius):
        # 1e300**2 overflows; 1e-300**2 underflows to a zero divisor.
        with pytest.raises(ValidationError, match="finite nonzero"):
            ChaoticParams(packet_radius=radius)

    @pytest.mark.parametrize("amplitude", [0.0, -0.0, math.nan, math.inf])
    def test_amplitude_must_be_finite_and_nonzero(self, amplitude):
        with pytest.raises(ValidationError, match="amplitude must be finite and nonzero"):
            LaminarParams(amplitude=amplitude)

    @pytest.mark.parametrize("params", [LaminarParams, ChaoticParams])
    @pytest.mark.parametrize("decay", [math.nan, math.inf, -math.inf, -1000.0, 1e6])
    def test_decay_must_be_finite(self, params, decay):
        # -1000 overflows the last amplitude factor, 1e6 underflows it to zero.
        with pytest.raises(ValidationError, match="decay must be finite"):
            params(decay=decay)

    def test_any_finite_decay_is_valid_with_one_harmonic(self):
        # The only factor is 1**-decay == 1.
        assert LaminarParams(harmonics=1, decay=1e6).decay == 1e6
        assert ChaoticParams(modes=1, decay=-1000.0).decay == -1000.0

    @pytest.mark.parametrize("kind, params", [("laminar-surrogate", LaminarParams),
                                              ("chaotic-surrogate", ChaoticParams)])
    def test_negative_decay_is_valid(self, kind, params):
        fields = generate(FlowSpec(kind, 16, 16, 6, seed=0, params=params(decay=-1.0)))
        assert np.isfinite(fields.data).all()

    def test_negative_amplitude_flips_the_sign(self):
        def field(amplitude):
            params = LaminarParams(amplitude=amplitude)
            return generate(FlowSpec("laminar-surrogate", 16, 16, 6, seed=0, params=params)).data

        np.testing.assert_array_equal(field(-1.0), -field(1.0))


class TestNoise:
    def grid(self):
        return PatchGrid(64, 64, 2, 16)

    def unit_power_fields(self, t=30):
        # alternating +/-1 values: mean-square exactly 1 everywhere
        data = np.ones((t, 64, 64, 2))
        data[:, ::2] = -1.0
        return SnapshotSet(data)

    def full_mask(self):
        grid = self.grid()
        return MaskSpec(tuple(range(grid.n_patches)), grid.n_patches)

    def test_infinite_snr_returns_input_unchanged(self):
        fields = self.unit_power_fields(4)
        sigma2 = noise_sigma2(fields, math.inf)
        assert sigma2 == 0.0
        out = add_noise_fixed(fields, self.full_mask(), sigma2, seed=0, grid=self.grid())
        np.testing.assert_array_equal(out.data, fields.data)

    def test_variance_law_at_20db_unit_power(self):
        sigma2 = noise_sigma2(self.unit_power_fields(2), 20.0)
        assert sigma2 == pytest.approx(0.01, rel=1e-12)

    def test_empirical_variance_within_5_percent(self):
        fields = self.unit_power_fields(30)  # 245760 noised values
        mask = self.full_mask()
        sigma2 = noise_sigma2(fields, 10.0)
        noisy = add_noise_fixed(fields, mask, sigma2, seed=7, grid=self.grid())
        eps = noisy.data - fields.data
        assert eps.size >= 1e5
        assert abs(eps.var() / sigma2 - 1.0) < 0.05

    def test_masked_pixels_untouched(self):
        rng = np.random.default_rng(8)
        fields = SnapshotSet(rng.standard_normal((5, 64, 64, 2)))
        grid = self.grid()
        mask = MaskSpec((0, 5), grid.n_patches)
        noisy = add_noise_fixed(fields, mask, noise_sigma2(fields, 10.0), seed=9, grid=grid)
        obs = pixel_mask(grid, mask)
        np.testing.assert_array_equal(noisy.data[:, ~obs, :], fields.data[:, ~obs, :])
        assert np.all(noisy.data[:, obs, :] != fields.data[:, obs, :])

    def test_deterministic_given_seed(self):
        fields = self.unit_power_fields(3)
        mask = self.full_mask()
        sigma2 = noise_sigma2(fields, 20.0)
        a = add_noise_fixed(fields, mask, sigma2, seed=3, grid=self.grid())
        b = add_noise_fixed(fields, mask, sigma2, seed=3, grid=self.grid())
        np.testing.assert_array_equal(a.data, b.data)

    def test_added_noise_is_the_protocol_draw(self):
        fields = self.unit_power_fields(3)
        grid = self.grid()
        mask = MaskSpec((1, 6, 11), grid.n_patches)
        noisy = add_noise_fixed(fields, mask, 0.04, seed=5, grid=grid)
        eps = draw_noise(fields.data.shape, 0.04, 5)
        np.testing.assert_array_equal(
            eps, np.random.default_rng(5).normal(0.0, 0.2, size=fields.data.shape)
        )
        obs = pixel_mask(grid, mask)
        np.testing.assert_array_equal(noisy.data[:, obs], fields.data[:, obs] + eps[:, obs])

    @pytest.mark.parametrize(
        "shape, p, unmasked",
        [
            *(pytest.param((64, 64, 2), 16, u, id=f"unmasked{i}")
              for i, u in enumerate([(), (0,), (1, 6, 11), tuple(range(16))])),
            pytest.param((32, 64, 2), 16, (1, 6, 7), id="2x4-grid"),
            pytest.param((4, 6, 2), 1, (0, 5, 13, 23), id="P1"),
            pytest.param((16, 24, 1), 8, (0, 4), id="C1"),
            pytest.param((16, 24, 3), 8, (1, 2, 5), id="C3"),
        ],
    )
    def test_matches_full_field_formula(self, shape, p, unmasked):
        rng = np.random.default_rng(12)
        fields = SnapshotSet(rng.standard_normal((3, *shape)))
        grid = PatchGrid(*shape, p)
        mask = MaskSpec(unmasked, grid.n_patches)
        noisy = add_noise_fixed(fields, mask, 0.3, seed=13, grid=grid)
        want = add_noise_oracle(fields.data, pixel_mask(grid, mask), draw_noise(fields.data.shape, 0.3, 13))
        assert np.array_equal(noisy.data, want)
        assert not fields.data.flags.writeable  # the input is copied, not written

    def test_zero_signal_power_rejected(self):
        fields = SnapshotSet(np.zeros((2, 64, 64, 2)))
        with pytest.raises(ValidationError, match="zero"):
            noise_sigma2(fields, 10.0)

    def test_fixed_variance_injection(self):
        fields = self.unit_power_fields(30)
        mask = self.full_mask()
        noisy = add_noise_fixed(fields, mask, 0.04, seed=11, grid=self.grid())
        eps = noisy.data - fields.data
        assert abs(eps.var() / 0.04 - 1.0) < 0.05

    def test_standardized_fields_get_the_draw_over_std(self):
        rng = np.random.default_rng(21)
        stats = NormStats(np.array([1.0, -2.0]), np.array([3.0, 0.5]))
        raw = SnapshotSet(rng.standard_normal((4, 64, 64, 2)) * stats.std + stats.mean)
        norm = apply_stats(raw, stats)
        grid = self.grid()
        mask = MaskSpec((1, 6, 11), grid.n_patches)
        noisy = add_noise_fixed(norm, mask, 0.3, seed=4, grid=grid)
        assert noisy.norm_stats is stats
        obs = pixel_mask(grid, mask)
        np.testing.assert_array_equal(noisy.data[:, ~obs], norm.data[:, ~obs])
        eps = draw_noise(raw.data.shape, 0.3, 4)
        np.testing.assert_array_equal(noisy.data[:, obs], norm.data[:, obs] + (eps / stats.std)[:, obs])
        # Noising the raw fields and standardizing them again: equal up to rounding.
        want = apply_stats(add_noise_fixed(raw, mask, 0.3, seed=4, grid=grid), stats).data
        assert np.max(np.abs(noisy.data - want)) <= 1e-13 * np.max(np.abs(want))
        assert add_noise_fixed(norm, mask, 0.0, seed=4, grid=grid) is norm

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("call", ["draw_noise", "add_noise_fixed", "observe"])
    def test_bad_noise_variance_rejected(self, call, sigma2):
        fields, mask, grid = self.unit_power_fields(2), self.full_mask(), self.grid()
        draw = {
            "draw_noise": lambda: draw_noise((2, 2), sigma2, 1),
            "add_noise_fixed": lambda: add_noise_fixed(fields, mask, sigma2, 1, grid),
            "observe": lambda: observe(fields, mask, sigma2, 1, grid),
        }[call]
        with pytest.raises(ValidationError, match="noise variance must be finite and nonnegative"):
            draw()

    def test_observe_without_noise_is_the_patch_vectors(self, monkeypatch):
        fields = SnapshotSet(np.random.default_rng(23).standard_normal((3, 64, 64, 2)))
        grid = self.grid()
        mask = MaskSpec((11, 1, 6), grid.n_patches)
        monkeypatch.setattr(synthetic, "draw_noise", None)  # a call would raise TypeError
        sources = np.array([1, 6, 11])
        assert np.array_equal(observe(fields, mask, 0.0, 5, grid),
                              patch_vectors(fields.data, grid, sources))

    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardized"])
    def test_add_noise_fixed_writes_the_observed_vectors(self, standardized):
        rng = np.random.default_rng(22)
        fields = SnapshotSet(rng.standard_normal((4, 64, 64, 2)))
        if standardized:
            fields = apply_stats(fields, NormStats(np.array([1.0, -2.0]), np.array([3.0, 0.5])))
        grid = self.grid()
        mask = MaskSpec((2, 9, 15), grid.n_patches)
        noisy = add_noise_fixed(fields, mask, 0.3, seed=6, grid=grid)
        sources = np.array(mask.unmasked)
        assert np.array_equal(patch_vectors(noisy.data, grid, sources),
                              observe(fields, mask, 0.3, 6, grid))

    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardized"])
    @pytest.mark.parametrize(
        "shape, p, unmasked",
        [
            pytest.param((100, 16, 16, 2), 8, (0, 3), id="ragged-last-block"),
            pytest.param((3, 128, 128, 3), 16, (5, 17, 63), id="snapshot-over-a-block"),
            pytest.param((70, 32, 32, 1), 8, (2, 9, 15), id="C1"),
            pytest.param((40, 32, 32, 3), 8, (0, 15), id="C3"),
            pytest.param((100, 16, 16, 2), 8, (), id="empty-mask"),
        ],
    )
    def test_blocked_observe_equals_one_whole_field_draw(self, monkeypatch, standardized,
                                                         shape, p, unmasked):
        rng = np.random.default_rng(24)
        fields, std, c = SnapshotSet(rng.standard_normal(shape)), 1.0, shape[-1]
        if standardized:
            stats = NormStats(rng.standard_normal(c), rng.uniform(0.5, 3.0, c))
            fields, std = apply_stats(fields, stats), np.tile(stats.std, p * p)
        grid = PatchGrid(*shape[1:], p)
        sources = np.array(unmasked, dtype=np.intp)
        want = (patch_vectors(fields.data, grid, sources)
                + patch_vectors(draw_noise(shape, 0.3, 25), grid, sources) / std)
        blocks = []
        monkeypatch.setattr(synthetic, "draw_noise",
                            lambda s, sigma2, seed: blocks.append(s) or draw_noise(s, sigma2, seed))
        got = observe(fields, MaskSpec(unmasked, grid.n_patches), 0.3, 25, grid)
        step = max(1, patches.BLOCK_BYTES // (8 * math.prod(shape[1:])))  # snapshots per block
        assert len(blocks) == -(-shape[0] // step) > 1
        assert np.array_equal(got, want)

    def test_finite_snr_that_underflows_rejected(self):
        # 10**-400 underflows to zero: a finite SNR must never mean noise-free.
        fields = generate(FlowSpec("laminar-surrogate", 16, 16, 8, seed=0))
        with pytest.raises(ValidationError, match="positive noise variance"):
            noise_sigma2(fields, 4000.0)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValidationError):
            noise_sigma2(self.unit_power_fields(2), float("nan"))

    def test_overflowing_signal_power_rejected(self):
        fields = SnapshotSet(np.full((2, 4, 4, 2), -1e300))
        with pytest.raises(NumericalError, match="overflows"):
            signal_power(fields)

    def test_signal_power_full_field(self):
        fields = self.unit_power_fields(2)
        assert signal_power(fields) == pytest.approx(1.0)
