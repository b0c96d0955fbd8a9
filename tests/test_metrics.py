import importlib.util
import itertools
import math
import os
import sys
import threading
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lamp import (
    AttentionModel,
    FlowSpec,
    NormStats,
    SnapshotSet,
    SweepAxes,
    ValidationError,
    generate,
    noise_variance_normalized,
    place_sensors,
    pred_loss,
    predictive_power,
    run_sweep,
)
from lamp import NumericalError, SplitSpec, attention, errors, metrics, synthetic
from lamp.metrics import PowerMap, derive_seed
from lamp.patches import MaskSpec, PatchGrid, normalize, split_standardized
from lamp.pod import PatchPodModel
from oracles import sweep_cell_oracle


def toy_model(pair_losses, error_floor=1e-12):
    """Attention model with fabricated pair losses over a 1x4 patch grid."""
    n = pair_losses.shape[0]
    e = 4
    grid = PatchGrid(2, 2 * n, 1, 2)
    pod = PatchPodModel(grid, e, np.tile(np.eye(e), (n, 1, 1)), np.ones((n, e)))
    return AttentionModel(
        pod=pod,
        norm_stats=NormStats(np.zeros(1), np.ones(1)),
        value_maps=np.tile(np.eye(e), (n, n, 1, 1)),
        attn_vectors=np.zeros((n, n, e)),
        attn_intercepts=np.zeros((n, n)),
        pair_losses=pair_losses,
        ridge_lambda=None,
        error_floor=error_floor,
        use_intercept=True,
    )


class TestPredLoss:
    def test_identical_fields(self):
        fields = SnapshotSet(np.random.default_rng(0).standard_normal((3, 4, 4, 2)))
        assert pred_loss(fields, fields) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        truth = SnapshotSet(rng.standard_normal((3, 4, 4, 2)))
        shifted = SnapshotSet(truth.data + 0.1)
        assert pred_loss(shifted, truth) == pytest.approx(0.01, rel=1e-12)

    def test_matches_elementwise_accumulation_oracle(self):
        rng = np.random.default_rng(2)
        a = SnapshotSet(rng.standard_normal((2, 3, 4, 2)))
        b = SnapshotSet(rng.standard_normal((2, 3, 4, 2)))
        acc, count = 0.0, 0
        for t in range(2):
            for i in range(3):
                for j in range(4):
                    for c in range(2):
                        acc += (a.data[t, i, j, c] - b.data[t, i, j, c]) ** 2
                        count += 1
        np.testing.assert_allclose(pred_loss(a, b), acc / count, rtol=0, atol=1e-12)

    def test_geometry_mismatch_rejected(self):
        a = SnapshotSet(np.zeros((2, 4, 4, 1)))
        b = SnapshotSet(np.zeros((2, 4, 8, 1)))
        with pytest.raises(ValidationError, match="mismatch"):
            pred_loss(a, b)


class TestPredictivePower:
    def test_floored_column_saturates(self):
        # patch 0 predicts everything below the floor: maximal power -log(floor)
        losses = np.full((4, 4), np.e**-1)
        losses[:, 0] = 1e-30
        np.fill_diagonal(losses, 0.0)
        power = predictive_power(toy_model(losses))
        assert power.values[0] == pytest.approx(-math.log(1e-12))
        assert np.all(power.values[1:] == pytest.approx(1.0))

    def test_constant_losses_give_constant_map(self):
        losses = np.full((4, 4), np.e**-1)
        np.fill_diagonal(losses, 0.0)
        power = predictive_power(toy_model(losses))
        np.testing.assert_allclose(power.values, 1.0)

    def test_diagonal_excluded(self):
        losses = np.full((3, 3), np.e**-2)
        np.fill_diagonal(losses, 0.0)  # would dominate if included
        power = predictive_power(toy_model(losses))
        np.testing.assert_allclose(power.values, 2.0)

    def test_as_grid_shape(self):
        losses = np.full((4, 4), 0.5)
        np.fill_diagonal(losses, 0.0)
        power = predictive_power(toy_model(losses))
        assert power.as_grid().shape == (1, 4)

    def test_pure_function_of_model_file(self, tmp_path):
        from lamp import (
            FlowSpec,
            generate,
            normalize,
            read_model,
            split,
            train_attention_model,
            write_model,
        )

        fields = generate(FlowSpec("laminar-surrogate", 32, 32, 40, seed=6))
        norm = normalize(fields, range(0, 30))
        train, _ = split(norm)
        model = train_attention_model(train, 8, 3)
        write_model(model, tmp_path / "m.lampmd")
        a = predictive_power(read_model(tmp_path / "m.lampmd"))
        b = predictive_power(read_model(tmp_path / "m.lampmd"))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.values, predictive_power(model).values)


class TestPlaceSensors:
    def grid_map(self, values):
        n = len(values)
        grid = PatchGrid(2, 2 * n, 1, 2)
        return PowerMap(grid, np.asarray(values, dtype=float))

    def test_all_patches(self):
        mask = place_sensors(self.grid_map([1.0, 2.0, 3.0]), 3)
        assert mask.unmasked == (0, 1, 2)

    def test_top_k(self):
        mask = place_sensors(self.grid_map([3.0, 1.0, 2.0]), 2)
        assert mask.unmasked == (0, 2)

    def test_tie_breaks_to_lower_index(self):
        mask = place_sensors(self.grid_map([2.0, 2.0, 1.0]), 1)
        assert mask.unmasked == (0,)

    def test_count_bounds(self):
        with pytest.raises(ValidationError, match="sensor count"):
            place_sensors(self.grid_map([1.0, 2.0]), 0)
        with pytest.raises(ValidationError, match="sensor count"):
            place_sensors(self.grid_map([1.0, 2.0]), 3)

    def test_count_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="sensor count must be an integer"):
            place_sensors(self.grid_map([1.0, 2.0]), 1.5)
        assert place_sensors(self.grid_map([1.0, 2.0]), np.int64(1)).unmasked == (1,)


class TestNoiseVarianceNormalized:
    def test_component_scaling(self):
        stats = NormStats(np.zeros(2), np.array([1.0, 2.0]))
        # per-component variances sigma2/1 and sigma2/4, averaged
        assert noise_variance_normalized(0.08, stats) == pytest.approx(0.08 * (1 + 0.25) / 2)


@pytest.fixture(scope="module")
def laminar_fields():
    return generate(FlowSpec("laminar-surrogate", 64, 64, 160, seed=7))


class TestRunSweep:
    @pytest.mark.parametrize("option, match", [
        ({"n_arrangements": 2.5}, "n_arrangements must be an integer"),
        ({"n_arrangements": 0}, "n_arrangements must be at least 1, got 0"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": 2.5}, "seed must be a non-negative integer"),
    ])
    def test_arrangements_and_seed_must_be_integers(self, laminar_fields, option, match):
        axes = SweepAxes(patch_sizes=(16,), latent_dims=(2,))
        with pytest.raises(ValidationError, match=match):
            run_sweep(laminar_fields, axes, **{"n_arrangements": 1, **option})

    def test_full_coverage_median_equals_ae(self, laminar_fields):
        axes = SweepAxes(patch_sizes=(16,), latent_dims=(8,), coverages=(1.0,))
        result = run_sweep(laminar_fields, axes, n_arrangements=3, seed=0)
        cell = result.cells[0]
        assert cell.median_pred_loss == pytest.approx(cell.ae_loss, abs=1e-10)

    def test_deterministic(self, laminar_fields):
        axes = SweepAxes(patch_sizes=(16,), latent_dims=(4,), coverages=(0.2,))
        a = run_sweep(laminar_fields, axes, n_arrangements=4, seed=3)
        b = run_sweep(laminar_fields, axes, n_arrangements=4, seed=3)
        assert a == b

    def test_noisy_cell_below_noise_variance(self, laminar_fields):
        axes = SweepAxes(
            patch_sizes=(16,), latent_dims=(8,), snr_dbs=(20.0,), coverages=(0.1,)
        )
        result = run_sweep(laminar_fields, axes, n_arrangements=9, seed=0)
        cell = result.cells[0]
        assert cell.median_pred_loss < cell.noise_variance

    def test_invalid_combination_recorded_not_raised(self, laminar_fields):
        axes = SweepAxes(patch_sizes=(7, 16), latent_dims=(4,), coverages=(0.5,))
        result = run_sweep(laminar_fields, axes, n_arrangements=2, seed=0)
        skipped = [c for c in result.cells if c.skip_reason]
        assert len(skipped) == 1
        assert skipped[0].patch_size == 7
        assert "divide" in skipped[0].skip_reason
        cells = {(c.patch_size, c.latent_dim, c.snr_db, c.coverage): c for c in result.cells}
        assert cells[16, 4, math.inf, 0.5].median_pred_loss is not None

    def test_cells_in_product_order_of_the_axes(self, laminar_fields):
        axes = SweepAxes(patch_sizes=(32, 16), latent_dims=(2, 4), snr_dbs=(20.0, math.inf),
                         coverages=(0.5, 0.25))
        result = run_sweep(laminar_fields, axes, n_arrangements=1, seed=0)
        coords = [(c.patch_size, c.latent_dim, c.snr_db, c.coverage) for c in result.cells]
        assert coords == list(itertools.product(axes.patch_sizes, axes.latent_dims,
                                                axes.snr_dbs, axes.coverages))

    def test_oversized_latent_dim_skipped(self, laminar_fields):
        axes = SweepAxes(patch_sizes=(16,), latent_dims=(4, 10_000), coverages=(0.5,))
        result = run_sweep(laminar_fields, axes, n_arrangements=2, seed=0)
        cells = {(c.patch_size, c.latent_dim, c.snr_db, c.coverage): c for c in result.cells}
        assert cells[16, 10_000, math.inf, 0.5].skip_reason is not None

    def test_lone_patch_without_copy_through_skipped(self, laminar_fields, monkeypatch):
        # P=32 on 64x64 gives N=4, and coverage 0.1 observes one patch: with
        # copy-through off it would have to predict itself.
        drawn, random = [], MaskSpec.random.__func__

        def recording(cls, n_patches, coverage, seed):
            drawn.append((n_patches, coverage))
            return random(cls, n_patches, coverage, seed)

        def sweep(patch_sizes, coverages):
            axes = SweepAxes(patch_sizes=patch_sizes, latent_dims=(2,),
                             snr_dbs=(math.inf, 20.0), coverages=coverages)
            return run_sweep(laminar_fields, axes, n_arrangements=2, seed=4, copy_through=False)

        monkeypatch.setattr(MaskSpec, "random", classmethod(recording))
        result = sweep((16, 32), (0.1, 0.5))
        cells = {(c.patch_size, c.latent_dim, c.snr_db, c.coverage): c for c in result.cells}
        assert (4, 0.1) not in drawn
        for snr in (math.inf, 20.0):
            cell = cells[32, 2, snr, 0.1]
            assert cell.skip_reason == ("coverage 0.1 observes 1 of 4 patches; without "
                                        "copy-through it has no prediction source")
            assert cell.median_pred_loss is None
        for p, cov in [(16, 0.1), (16, 0.5), (32, 0.5)]:  # as if swept alone
            alone = {(c.snr_db, c.coverage): c for c in sweep((p,), (cov,)).cells}
            for snr in (math.inf, 20.0):
                assert cells[p, 2, snr, cov] == alone[snr, cov]

    @pytest.mark.parametrize("n_arrangements", [0, -3])
    def test_no_arrangements_rejected(self, laminar_fields, n_arrangements):
        axes = SweepAxes(patch_sizes=(16,), latent_dims=(4,))
        with pytest.raises(ValidationError, match="n_arrangements"):
            run_sweep(laminar_fields, axes, n_arrangements=n_arrangements)

    @pytest.mark.parametrize(
        "axis, values",
        [("patch_sizes", (8, 8)), ("latent_dims", (2, 4, 2)), ("snr_dbs", (20.0, 20.0)),
         ("coverages", (0.1, 0.1))],
    )
    def test_repeated_axis_value_rejected(self, axis, values):
        kwargs = {"patch_sizes": (8,), "latent_dims": (2,), axis: values}
        with pytest.raises(ValidationError, match=f"{axis} axis repeats"):
            SweepAxes(**kwargs)

    @pytest.mark.parametrize("axis", ["patch_sizes", "latent_dims", "snr_dbs", "coverages"])
    def test_empty_axis_rejected(self, axis):
        kwargs = {"patch_sizes": (8,), "latent_dims": (2,), axis: ()}
        with pytest.raises(ValidationError, match=f"{axis} axis is empty"):
            SweepAxes(**kwargs)

    @pytest.mark.parametrize(
        "axis, values",
        [("coverages", (math.nan,)), ("coverages", (0.0,)), ("coverages", (0.1, 1.5)),
         ("coverages", (-0.2,)), ("snr_dbs", (math.nan,)), ("snr_dbs", (20.0, -math.inf)),
         ("patch_sizes", (0,)), ("patch_sizes", (8, -4)), ("patch_sizes", (8.0,)),
         ("latent_dims", (0,)), ("latent_dims", (-2,)), ("latent_dims", (True,))],
    )
    def test_invalid_axis_value_rejected(self, axis, values):
        kwargs = {"patch_sizes": (8,), "latent_dims": (2,), axis: values}
        with pytest.raises(ValidationError, match=f"{axis} must be"):
            SweepAxes(**kwargs)

    def test_normalized_input_rejected(self, laminar_fields):
        from lamp import normalize

        norm = normalize(laminar_fields, range(0, 120))
        axes = SweepAxes(patch_sizes=(16,), latent_dims=(4,))
        with pytest.raises(ValidationError, match="unnormalized"):
            run_sweep(norm, axes)

    def test_median_invariant_to_arrangement_order(self):
        rng = np.random.default_rng(9)
        losses = rng.uniform(0.1, 2.0, size=25)
        shuffled = np.array(losses)
        rng.shuffle(shuffled)
        assert np.median(losses) == np.median(shuffled)


@pytest.fixture(scope="module")
def small_laminar():
    return generate(FlowSpec("laminar-surrogate", 32, 32, 80, seed=1))


class TestSweepEngine:
    """The latent-space sweep against the pixel-space loop it replaced."""

    AXES = SweepAxes(patch_sizes=(8, 16), latent_dims=(2, 4), snr_dbs=(math.inf, 20.0),
                     coverages=(0.5, 0.75))

    @pytest.mark.parametrize("copy_through", [True, False])
    def test_cells_match_pixel_space_oracle(self, small_laminar, copy_through):
        result = run_sweep(small_laminar, self.AXES, n_arrangements=3, seed=5,
                           copy_through=copy_through)
        assert len(result.cells) == 16
        for cell in result.cells:
            want, reason = sweep_cell_oracle(
                small_laminar, cell.patch_size, cell.latent_dim, cell.snr_db, cell.coverage,
                3, 5, copy_through,
            )
            assert reason is None and cell.skip_reason is None
            assert cell.median_pred_loss == pytest.approx(want, rel=1e-9, abs=0), cell

    def test_skip_reasons_match_pixel_space_oracle(self, small_laminar):
        axes = SweepAxes(patch_sizes=(5, 16), latent_dims=(2, 10_000), coverages=(0.5,))
        result = run_sweep(small_laminar, axes, n_arrangements=2, seed=1)
        for cell in result.cells:
            want, reason = sweep_cell_oracle(
                small_laminar, cell.patch_size, cell.latent_dim, cell.snr_db, cell.coverage, 2, 1
            )
            assert cell.skip_reason == reason
            if reason is None:
                assert cell.median_pred_loss == pytest.approx(want, rel=1e-9, abs=0)
            else:
                assert cell.median_pred_loss is None
        assert sum(c.skip_reason is not None for c in result.cells) == 3

    def test_noise_drawn_once_per_patch_size(self, small_laminar, monkeypatch):
        # Every noise field is one stream of draw_noise calls, keyed by its
        # seed or Generator, that draws the test split's T*H*W*C elements.
        streams = defaultdict(int)
        real = synthetic.draw_noise

        def counting(shape, sigma2, seed):
            streams[seed] += math.prod(shape)
            return real(shape, sigma2, seed)

        monkeypatch.setattr(synthetic, "draw_noise", counting)
        axes = SweepAxes(patch_sizes=(8, 16), latent_dims=(2, 4, 6),
                         snr_dbs=(math.inf, 20.0, 10.0), coverages=(0.5, 0.75))
        run_sweep(small_laminar, axes, n_arrangements=3, seed=2)
        _, test_norm, _ = split_standardized(small_laminar, SplitSpec())
        finite_snrs = 2
        assert len(streams) == len(axes.patch_sizes) * finite_snrs * len(axes.coverages) * 3
        assert set(streams.values()) == {test_norm.data.size}

    @pytest.mark.parametrize("snr", [math.inf, 20.0])
    def test_sweep_and_reconstruct_see_identical_observed_latents(self, small_laminar,
                                                                  monkeypatch, snr):
        # The sweep's latent-space call, then the reconstruct call of its
        # first-evaluation check: both must get the same observed rows, with
        # noise or without.
        observed = []
        real = attention.predict_masked

        def recording(model, rows, mask, copy_through=True):
            observed.append(np.array(rows))
            return real(model, rows, mask, copy_through)

        monkeypatch.setattr(metrics, "predict_masked", recording)
        monkeypatch.setattr(attention, "predict_masked", recording)
        axes = SweepAxes(patch_sizes=(8,), latent_dims=(4,), snr_dbs=(snr,), coverages=(0.5,))
        run_sweep(small_laminar, axes, n_arrangements=1, seed=5)
        assert len(observed) == 2
        assert np.array_equal(observed[0], observed[1])

    def test_pixel_path_disagreement_raises(self, small_laminar, monkeypatch):
        original = metrics.pred_loss
        monkeypatch.setattr(metrics, "pred_loss", lambda r, t: original(r, t) * (1 + 1e-4))
        axes = SweepAxes(patch_sizes=(8,), latent_dims=(2,), coverages=(0.5,))
        with pytest.raises(NumericalError, match="pixel-space loss"):
            run_sweep(small_laminar, axes, n_arrangements=2)


_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


class TestSweepThreads:
    """Training and scoring spread over the CPUs by ``errors.each``, one patch size at a time."""

    # P=16 on 32x32 has 4 patches, so coverage 0.25 observes one: a lone
    # coverage without copy-through.  N_e = 10**6 is out of range.
    AXES = SweepAxes(patch_sizes=(8, 16), latent_dims=(2, 10**6), snr_dbs=(math.inf, 20.0),
                     coverages=(0.25, 0.75))

    @staticmethod
    def workers(monkeypatch, count):
        """Make ``count`` CPUs usable, and record the size of every pool made."""
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        monkeypatch.setattr(errors, "ThreadPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("copy_through", [True, False])
    @pytest.mark.parametrize("n_arrangements", [2, 5])  # fewer and more than four workers
    def test_cells_equal_with_one_and_four_workers(self, small_laminar, monkeypatch,
                                                   copy_through, n_arrangements):
        results, interval = {}, sys.getswitchinterval()
        for count in (1, 4):  # four workers on fewer cores, switching threads often
            sizes = self.workers(monkeypatch, count)
            sys.setswitchinterval(1e-5 if count > 1 else interval)
            try:
                results[count] = run_sweep(small_laminar, self.AXES, seed=6,
                                           n_arrangements=n_arrangements, copy_through=copy_through)
            finally:
                sys.setswitchinterval(interval)
            # No pool at one CPU; at four, pools of up to three helper threads.
            assert max(sizes, default=0) == count - 1
        assert results[1] == results[4]
        reasons = [c.skip_reason for c in results[1].cells if c.skip_reason]
        assert sum("10000" in r for r in reasons) == 8
        assert sum("observes 1 of 4" in r for r in reasons) == (0 if copy_through else 2)

    def test_traced_functions_run_on_the_main_thread(self, small_laminar, monkeypatch):
        self.workers(monkeypatch, 4)
        threads = defaultdict(set)
        tracer = tracing.Tracer()
        real_open = tracer.open

        def recording_open(name, bound=None):
            threads[name].add(threading.current_thread())
            return real_open(name, bound)

        tracer.open = recording_open
        tracer.install()
        try:
            metrics.run_sweep(small_laminar, self.AXES, n_arrangements=5, seed=6)
        finally:
            tracer.uninstall()
        assert {"metrics.run_sweep", "attention.train_attention_model", "pod.encode",
                "attention.reconstruct", "synthetic.add_noise_fixed"} <= threads.keys()
        assert all(seen == {threading.main_thread()} for seen in threads.values()), threads

    def test_traced_training_functions_run_on_the_main_thread(self, monkeypatch):
        # Training splits its work inside the traced fits, so at four CPUs a
        # chaotic training of several source and target blocks uses pools,
        # yet every traced call stays on the calling thread.
        sizes = self.workers(monkeypatch, 4)
        t, n, e = 40, 64, 4
        monkeypatch.setattr(attention, "_SOURCE_BLOCK_BYTES", 10 * 8 * n * t)
        monkeypatch.setattr(attention, "_VALUE_BLOCK_BYTES", 10 * 8 * e * t)
        fields = generate(FlowSpec("chaotic-surrogate", 32, 32, t, seed=2))
        norm = normalize(fields, range(0, t))
        threads = defaultdict(set)
        tracer = tracing.Tracer()
        real_open = tracer.open

        def recording_open(name, bound=None):
            threads[name].add(threading.current_thread())
            return real_open(name, bound)

        tracer.open = recording_open
        tracer.install()
        try:
            attention.train_attention_model(norm, 4, e)
        finally:
            tracer.uninstall()
        _, calls = tracer.self_times()
        assert calls["attention.fit_value_tensor"] == calls["attention.fit_attention_tensor"] == 7
        assert {"attention.train_attention_model", "pod.fit_patch_pod", "patches.patchify",
                "pod.encode"} <= threads.keys()
        assert all(seen == {threading.main_thread()} for seen in threads.values()), threads
        assert 3 in sizes  # the helper made pools for the other three shares

    @pytest.mark.parametrize("count", [1, 4])
    def test_first_failure_in_serial_order_wins(self, small_laminar, monkeypatch, count):
        # P=8's 40 jobs split into four shares of ten; arrangement 1 fails on
        # the calling thread, after arrangement 13 (second share) has failed.
        # Arrangement 1 comes first in serial order, so its error is raised,
        # P=16 is never trained, and no pool thread outlives the call.
        self.workers(monkeypatch, count)
        started = threading.active_count()
        failed_later = threading.Event()
        ran, trained = [], set()
        mask_random, train = MaskSpec.random.__func__, metrics.train_attention_model
        jobs = {derive_seed(6, 0, p, round(0.75e9), i): (p, i) for p in (8, 16) for i in range(40)}

        def random(cls, n_patches, coverage, seed):
            mask = mask_random(cls, n_patches, coverage, seed)
            p, arr_idx = jobs[seed]
            ran.append((p, arr_idx))
            if (p, arr_idx) == (8, 1):
                if count > 1:  # let arrangement 13 fail first
                    assert failed_later.wait(timeout=5)
                raise NumericalError("P=8 arrangement 1")
            if (p, arr_idx) == (8, 13):
                failed_later.set()
                raise NumericalError("P=8 arrangement 13")
            return mask

        def recording_train(fields, p, ne, **kwargs):
            trained.add(p)
            return train(fields, p, ne, **kwargs)

        monkeypatch.setattr(MaskSpec, "random", classmethod(random))
        monkeypatch.setattr(metrics, "train_attention_model", recording_train)
        axes = SweepAxes(patch_sizes=(8, 16), latent_dims=(2,), coverages=(0.75,))
        with pytest.raises(NumericalError, match="P=8 arrangement 1$"):
            run_sweep(small_laminar, axes, n_arrangements=40, seed=6)
        assert threading.active_count() == started
        assert trained == {8}
        assert (8, 13) in ran if count > 1 else ran == [(8, 0), (8, 1)]
        assert len(ran) < 40

    def test_one_patch_size_of_models_alive_at_a_time(self, small_laminar, monkeypatch):
        # No model of P=8 is alive, not even awaiting garbage collection, when
        # P=16 starts training: ``lamp sweep --budget-bytes`` counts on it.
        self.workers(monkeypatch, 4)
        alive_at_start, refs = {}, []
        train = metrics.train_attention_model

        def recording_train(fields, p, ne, **kwargs):
            alive_at_start.setdefault(p, {q for q, ref in refs if ref() is not None})
            model = train(fields, p, ne, **kwargs)
            refs.append((p, weakref.ref(model)))
            return model

        monkeypatch.setattr(metrics, "train_attention_model", recording_train)
        run_sweep(small_laminar, self.AXES, n_arrangements=2, seed=6)
        assert alive_at_start == {8: set(), 16: set()}
        assert len(refs) == 2  # N_e = 10**6 is out of range at both patch sizes


class TestSweepPixelCheck:
    """The first job of each patch size is also scored in pixel space."""

    def test_one_check_per_trained_patch_size(self, small_laminar, monkeypatch):
        # TestSweepThreads.AXES: two P, two SNRs, two coverages and an N_e out of
        # range, so each P trains one model.  The check draws one noisy field
        # per P and reconstructs once per trained (P, N_e).
        noisy, recons = [], []
        add_noise, recon = metrics.add_noise_fixed, metrics.reconstruct

        def counting_noise(fields, mask, sigma2, seed, grid):
            noisy.append(grid.patch_size)
            return add_noise(fields, mask, sigma2, seed, grid)

        def counting_reconstruct(model, fields, mask, copy_through=True):
            recons.append((model.grid.patch_size, model.latent_dim))
            return recon(model, fields, mask, copy_through)

        monkeypatch.setattr(metrics, "add_noise_fixed", counting_noise)
        monkeypatch.setattr(metrics, "reconstruct", counting_reconstruct)
        TestSweepThreads.workers(monkeypatch, 4)
        run_sweep(small_laminar, TestSweepThreads.AXES, n_arrangements=5, seed=6)
        assert noisy == [8, 16]
        assert recons == [(8, 2), (16, 2)]

    def test_check_failure_wins_over_a_later_share(self, small_laminar, monkeypatch):
        # At four CPUs, arrangement 13 (second share) fails first; job 0's
        # pixel-space check then fails on the calling thread.  Job 0 comes
        # first in serial order, so its error is raised.
        TestSweepThreads.workers(monkeypatch, 4)
        started = threading.active_count()
        failed_later = threading.Event()
        ran = []
        mask_random, original = MaskSpec.random.__func__, metrics.pred_loss
        jobs = {derive_seed(6, 0, 8, round(0.75e9), i): i for i in range(40)}

        def random(cls, n_patches, coverage, seed):
            ran.append(jobs[seed])
            if jobs[seed] == 13:
                failed_later.set()
                raise NumericalError("P=8 arrangement 13")
            return mask_random(cls, n_patches, coverage, seed)

        def perturbed(recon, truth):
            assert failed_later.wait(timeout=5)
            return original(recon, truth) * (1 + 1e-4)

        monkeypatch.setattr(MaskSpec, "random", classmethod(random))
        monkeypatch.setattr(metrics, "pred_loss", perturbed)
        axes = SweepAxes(patch_sizes=(8, 16), latent_dims=(2,), coverages=(0.75,))
        with pytest.raises(NumericalError, match="pixel-space loss"):
            run_sweep(small_laminar, axes, n_arrangements=40, seed=6)
        assert threading.active_count() == started
        assert 0 in ran and 13 in ran


class TestOnePodPerPatchSize:
    """Each patch size's POD is fitted once and shared by its latent dims."""

    # 6 does not divide 32; 10**6 exceeds min(D, T) at every patch size.
    AXES = SweepAxes(patch_sizes=(4, 6, 8), latent_dims=(1, 2, 3, 10**6), coverages=(0.5,))

    def test_one_gram_eigh_per_patch_size(self, small_laminar, monkeypatch):
        calls, eighs = [], []
        fit, eigh = attention.fit_patch_pod, np.linalg.eigh

        def counting_fit(series, latent_dim):
            calls.append((series.grid.patch_size, latent_dim))
            return fit(series, latent_dim)

        def counting_eigh(a, *args, **kwargs):
            eighs.append((calls[-1][0], a.shape[0]))  # the running fit's P, the stack size
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(attention, "fit_patch_pod", counting_fit)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run_sweep(small_laminar, self.AXES, n_arrangements=1)
        # The out-of-range N_e is tried first and rejected by the range check,
        # before any decomposition; then one fit at N_e=3 serves N_e = 3, 2
        # and 1, with batched Gram eighs whose stacks cover each patch of its P once.
        assert calls == [(4, 10**6), (4, 3), (8, 10**6), (8, 3)]
        stacked = defaultdict(int)
        for p, size in eighs:
            stacked[p] += size
        assert stacked == {4: 64, 8: 16}

    def test_models_equal_standalone_training(self, small_laminar, monkeypatch):
        trained = {}
        train = metrics.train_attention_model

        def recording(fields, p, ne, **kwargs):
            trained[p, ne] = train(fields, p, ne, **kwargs)
            return trained[p, ne]

        monkeypatch.setattr(metrics, "train_attention_model", recording)
        result = run_sweep(small_laminar, self.AXES, n_arrangements=1)
        cells = {(c.patch_size, c.latent_dim, c.snr_db, c.coverage): c for c in result.cells}
        train_norm, _, _ = split_standardized(small_laminar, SplitSpec())
        assert sorted(trained) == [(p, ne) for p in (4, 8) for ne in (1, 2, 3)]
        for (p, ne), model in trained.items():
            want = train(train_norm, p, ne)
            for name in ("bases", "singular_values"):
                np.testing.assert_array_equal(getattr(model.pod, name), getattr(want.pod, name))
            for name in ("value_maps", "attn_vectors", "attn_intercepts", "pair_losses"):
                np.testing.assert_array_equal(getattr(model, name), getattr(want, name))
            assert cells[p, ne, math.inf, 0.5].skip_reason is None

    def test_skip_reasons_equal_standalone_training(self, small_laminar):
        result = run_sweep(small_laminar, self.AXES, n_arrangements=1)
        train_norm, _, _ = split_standardized(small_laminar, SplitSpec())
        skipped = [c for c in result.cells if c.skip_reason is not None]
        assert [(c.patch_size, c.latent_dim) for c in skipped] == (
            [(4, 10**6)] + [(6, ne) for ne in self.AXES.latent_dims] + [(8, 10**6)]
        )
        for cell in skipped:
            with pytest.raises(ValidationError) as exc:
                metrics.train_attention_model(train_norm, cell.patch_size, cell.latent_dim)
            assert cell.skip_reason == str(exc.value)
            assert cell.median_pred_loss is None


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
