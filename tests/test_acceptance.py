"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run pytest with ``-s`` to see them on success).  The
heavier criteria share module-scoped fixtures so the whole suite stays within
its runtime budgets on a single core.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from lamp import (
    FlowSpec,
    LaminarParams,
    MaskSpec,
    SnapshotSet,
    SweepAxes,
    ValidationError,
    ae_loss,
    fit_gappy,
    fit_patch_pod,
    generate,
    normalize,
    patchify,
    place_sensors,
    pred_loss,
    predict_masked,
    predictive_power,
    read_dataset,
    read_model,
    reconstruct,
    reconstruct_gappy,
    run_sweep,
    split,
    train_attention_model,
    write_dataset,
    write_model,
)
from lamp.attention import fit_attention_tensor, fit_value_tensor
from lamp.cli import main as cli_main
from lamp.pod import LatentSeries, decode, encode
from oracles import attention_oracle, attention_weights, value_oracle


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


#: The shared laminar sweep: P x N_e x SNR at 10% coverage.
LAMINAR_AXES = SweepAxes(
    patch_sizes=(8, 16, 32),
    latent_dims=(2, 4, 8),
    snr_dbs=(math.inf, 30.0, 20.0, 10.0),
    coverages=(0.1,),
)


@pytest.fixture(scope="module")
def laminar():
    """The laminar surrogate: H=W=64, C=2, T=160, six harmonics."""
    return generate(FlowSpec("laminar-surrogate", 64, 64, 160, seed=7))


@pytest.fixture(scope="module")
def laminar_sweep(laminar):
    """Shared sweep over P x N_e x SNR at 10% coverage, 25 arrangements."""
    return run_sweep(laminar, LAMINAR_AXES, n_arrangements=25, seed=0)


def test_01_pod_exactness_and_monotonicity(laminar):
    desc = "patch-POD loss saturates monotonically and hits the exact-rank floor"
    with criterion(1, desc):
        norm = normalize(laminar, range(0, 120))
        train, _ = split(norm)
        for p in (8, 16, 32):
            series = patchify(train, p)
            losses = np.array(
                [ae_loss(fit_patch_pod(series, ne), series) for ne in range(1, 17)]
            )
            assert np.all(np.diff(losses) <= 1e-12), f"not monotone at P={p}"
            # six shared-frequency harmonics: per-patch rank is at most 12
            assert losses[11:].max() < 1e-10, f"no exact-rank floor at P={p}"


def test_02_regression_oracle_equivalence():
    desc = "value and attention fits match brute-force solves on 50 random instances"
    with criterion(2, desc):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            e = int(rng.integers(1, 6))
            t = int(rng.integers(e + 1, 41))
            lam = float(10.0 ** rng.uniform(-8, -2))
            latents = rng.standard_normal((t, n, e))
            series = LatentSeries(latents)
            value_maps, pair_errors = fit_value_tensor(series, lam)
            vectors, intercepts = fit_attention_tensor(series, pair_errors, lam)
            targets = -np.log(np.maximum(pair_errors, 1e-12))
            for m in range(n):
                for s in range(n):
                    if m == s:
                        continue
                    ref = value_oracle(latents, m, s, lam)
                    assert np.max(np.abs(value_maps[m, s] - ref)) < 1e-8
                    w, b = attention_oracle(latents, targets, m, s, lam)
                    assert np.max(np.abs(vectors[m, s] - w)) < 1e-8
                    assert abs(intercepts[m, s] - b) < 1e-8


def test_03_masked_reconstruction_floor(laminar_sweep):
    desc = "10%-coverage noise-free median loss sits near the compression floor"
    with criterion(3, desc):
        cells = {(c.patch_size, c.latent_dim, c.snr_db, c.coverage): c for c in laminar_sweep.cells}
        cell = cells[16, 8, math.inf, 0.1]
        assert cell.median_pred_loss <= 10.0 * cell.ae_loss
        assert cell.median_pred_loss <= 1e-4
    print(
        f"    median={cell.median_pred_loss:.3e} ae_floor={cell.ae_loss:.3e} "
        f"ratio={cell.median_pred_loss / cell.ae_loss:.2f}"
    )


def test_04_denoising_below_noise_variance(laminar_sweep):
    desc = "a (P, N_e) setting reconstructs below the injected noise variance"
    with criterion(4, desc):
        for snr in (30.0, 20.0):
            hits = [
                c
                for c in laminar_sweep.cells
                if c.snr_db == snr and c.median_pred_loss < c.noise_variance
            ]
            assert hits, f"no configuration beat the noise floor at {snr} dB"
    hits10 = [
        c
        for c in laminar_sweep.cells
        if c.snr_db == 10.0 and c.median_pred_loss < c.noise_variance
    ]
    status = "passes" if hits10 else "does not pass"
    print(f"    SNR=10 dB also {status} ({len(hits10)}/9 configurations below the floor)")


def test_05_noise_shifts_optimum_toward_lower_latent_dim(laminar_sweep):
    desc = "at 10 dB the best latent dimension is no larger than the noise-free one"
    with criterion(5, desc):
        dims = LAMINAR_AXES.latent_dims
        cells = {
            (c.latent_dim, c.snr_db): c
            for c in laminar_sweep.cells
            if c.patch_size == 16 and c.coverage == 0.1
        }

        def argmin_dim(snr):
            return dims[int(np.argmin([cells[ne, snr].median_pred_loss for ne in dims]))]

        noisy, clean = argmin_dim(10.0), argmin_dim(math.inf)
        assert noisy <= clean
    print(f"    argmin latent dim: noise-free={clean}, 10 dB={noisy}")


def test_06_beats_gappy_pod_on_chaotic_wake():
    desc = "attention reconstruction beats gappy POD on the chaotic surrogate"
    with criterion(6, desc):
        fields = generate(FlowSpec("chaotic-surrogate", 96, 96, 2000, seed=11))
        norm = normalize(fields, range(0, 1500))
        train, test = split(norm)
        model = train_attention_model(train, 16, 24)
        mask = place_sensors(predictive_power(model), round(0.25 * model.n_patches))
        lamp_loss = pred_loss(reconstruct(model, test, mask), test)
        baseline = fit_gappy(train, model.latent_dim)  # matched coefficient budget
        gappy_loss = pred_loss(
            reconstruct_gappy(baseline, test, mask, model.grid), test
        )
        assert lamp_loss < gappy_loss
    print(
        f"    lamp={lamp_loss:.4f} gappy={gappy_loss:.4f} "
        f"ratio={lamp_loss / gappy_loss:.3f}"
    )


def test_07_softmax_and_mask_invariants():
    desc = "softmax rows: unit sum, exact zeros at -inf, shift invariance"
    with criterion(7, desc):
        # predict_masked's weights, read off by the attention_weights probe:
        # row m is target m's softmax over the unmasked sources, its own
        # pair at -inf (no copy-through).
        rng = np.random.default_rng(123)
        for _ in range(1000):
            size = int(rng.integers(3, 12))
            logits = rng.standard_normal((size, size)) * 100.0
            unmasked = rng.choice(size, size=int(rng.integers(2, size + 1)), replace=False)
            masked = np.setdiff1d(np.arange(size), unmasked)
            w = attention_weights(logits, unmasked)
            assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(np.diag(w) == 0.0)
            assert np.all(w[:, masked] == 0.0)
            shifted = attention_weights(logits + 17.5, unmasked)
            assert np.max(np.abs(w - shifted)) < 1e-12


def test_08_determinism_and_formats(tmp_path):
    desc = "bit-exact save/load/predict, file round-trips, manifest replay"
    with criterion(8, desc):
        fields = generate(FlowSpec("laminar-surrogate", 32, 32, 48, seed=3))
        norm = normalize(fields, range(0, 36))
        train, test = split(norm)
        model = train_attention_model(train, 8, 4)

        # train -> save -> load -> predict equals train -> predict, bit for bit
        write_model(model, tmp_path / "model.lampmd")
        loaded = read_model(tmp_path / "model.lampmd")
        mask = MaskSpec.random(model.n_patches, 0.25, seed=5)
        series = patchify(test, 8)
        observed = encode(model.pod, series).values[:1, list(mask.unmasked)].transpose(1, 0, 2)
        direct = predict_masked(model, observed, mask)
        via_file = predict_masked(loaded, observed, mask)
        np.testing.assert_array_equal(direct, via_file)
        recon_direct = reconstruct(model, test, mask)
        recon_file = reconstruct(loaded, test, mask)
        np.testing.assert_array_equal(recon_direct.data, recon_file.data)

        # dataset and model files round-trip byte-identically
        write_dataset(fields, tmp_path / "d.lampds")
        write_dataset(read_dataset(tmp_path / "d.lampds"), tmp_path / "d2.lampds")
        assert (tmp_path / "d.lampds").read_bytes() == (tmp_path / "d2.lampds").read_bytes()
        write_model(loaded, tmp_path / "model2.lampmd")
        assert (
            tmp_path / "model.lampmd"
        ).read_bytes() == (tmp_path / "model2.lampmd").read_bytes()

        # a rerun from the manifest reproduces CSV and PPM outputs byte for byte
        write_dataset(fields, tmp_path / "cli.lampds")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        argv = [
            "sweep", "--dataset", str(tmp_path / "cli.lampds"),
            "--patch-size", "8", "--latent-dim", "2,4", "--snr-db", "inf,20",
            "--coverage", "0.25", "--arrangements", "3", "--seed", "1",
            "--out-dir", str(out1),
        ]
        assert cli_main(argv) == 0
        assert cli_main(["rerun", str(out1 / "manifest.json"), "--out-dir", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        ppms = sorted(out1.glob("*.ppm"))
        assert ppms
        for ppm in ppms:
            assert ppm.read_bytes() == (out2 / ppm.name).read_bytes()


def test_09_predictive_power_ordering():
    desc = "wake-band patches outrank dynamically inert border patches"
    with criterion(9, desc):
        params = LaminarParams(harmonics=2, envelope_width=16.0)
        fields = generate(FlowSpec("laminar-surrogate", 64, 64, 160, seed=3, params=params))
        zero_rows = [
            r for r in range(8) if np.all(fields.data[:, r * 8 : (r + 1) * 8] == 0.0)
        ]
        assert zero_rows == [0, 1, 6, 7]  # construction sanity: inert border bands
        norm = normalize(fields, range(0, 120))
        train, _ = split(norm)
        model = train_attention_model(train, 8, 8, error_floor=1e-8)
        values = predictive_power(model).as_grid()
        inert = np.concatenate([values[r] for r in zero_rows])
        wake = np.concatenate([values[r] for r in range(8) if r not in zero_rows])
        assert wake.min() > inert.max()
    print(f"    wake min={wake.min():.2f} inert max={inert.max():.2f}")


def test_10_gappy_sanity():
    desc = "full-observation gappy equals POD projection; error falls with coverage"
    with criterion(10, desc):
        rng = np.random.default_rng(31)
        train = SnapshotSet(rng.standard_normal((60, 16, 16, 2)))
        test = SnapshotSet(rng.standard_normal((12, 16, 16, 2)))
        model = fit_gappy(train, 8)
        from lamp.patches import PatchGrid

        grid = PatchGrid(16, 16, 2, 4)
        full = MaskSpec(tuple(range(grid.n_patches)), grid.n_patches)
        recon = reconstruct_gappy(model, test, full, grid)
        flat = test.data.reshape(12, -1)
        projection = ((flat @ model.modes) @ model.modes.T).reshape(test.data.shape)
        assert np.max(np.abs(recon.data - projection)) < 1e-10

        means = []
        for cov in (0.25, 0.5, 0.75, 1.0):
            losses = [
                pred_loss(
                    reconstruct_gappy(
                        model, test, MaskSpec.random(grid.n_patches, cov, 7 * d + 1), grid
                    ),
                    test,
                )
                for d in range(10)
            ]
            means.append(float(np.mean(losses)))
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    print(f"    coverage curve: {[round(m, 4) for m in means]}")
