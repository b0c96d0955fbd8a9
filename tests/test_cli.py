import argparse
import csv
import dataclasses
import itertools
import json
import math
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from lamp import (
    FlowSpec, FormatError, NumericalError, SnapshotSet, ValidationError, generate, metrics,
    normalize, read_dataset, read_model, split, synthetic, train_attention_model, write_dataset,
    write_model,
)
from lamp import cli, formats
from lamp.cli import _seed, build_parser, main
from lamp.formats import DATASET_MAGIC, MODEL_MAGIC, model_nbytes
from lamp.synthetic import ChaoticParams, LaminarParams


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def laminar_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "laminar.lampds"
    write_dataset(generate(FlowSpec("laminar-surrogate", 32, 32, 80, seed=1)), path)
    return path


@pytest.fixture(scope="module")
def chaotic_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "chaotic.lampds"
    write_dataset(generate(FlowSpec("chaotic-surrogate", 64, 64, 400, seed=5)), path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, laminar_path):
    out = tmp_path_factory.mktemp("model")
    assert run("train", "--dataset", laminar_path, "--patch-size", 8,
               "--latent-dim", 6, "--out-dir", out) == 0
    return out / "model.lampmd"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def memory_ref(fields):
    """A weak reference to the array that owns ``fields``' memory: any view keeps it alive."""
    owner = fields.data
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    return weakref.ref(owner)


def track_datasets(monkeypatch):
    """Weak references to each set ``formats.read_dataset`` returns and to its memory."""
    refs = []
    read = formats.read_dataset

    def reading(path):
        fields = read(path)
        refs.extend([weakref.ref(fields), memory_ref(fields)])
        return fields

    monkeypatch.setattr(formats, "read_dataset", reading)
    return refs


def alive(refs):
    return [ref for ref in refs if ref() is not None]


def error_line(capsys):
    """All of stderr, which must be one ``error:`` line; returned without its newline."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return err[:-1]


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--height", 16, "--width", 16, "--snapshots", 10,
                   "--seed", 3, "--out-dir", out) == 0
        assert (out / "dataset.lampds").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["results"]["geometry"]["snapshots"] == 10

    def test_deterministic_output(self, tmp_path):
        args = ["generate", "--height", 16, "--width", 16, "--snapshots", 6, "--seed", 9]
        assert run(*args, "--out-dir", tmp_path / "a") == 0
        assert run(*args, "--out-dir", tmp_path / "b") == 0
        assert (tmp_path / "a/dataset.lampds").read_bytes() == (tmp_path / "b/dataset.lampds").read_bytes()

    @pytest.mark.parametrize("kind, decay",
                             [("laminar-surrogate", 3.5), ("chaotic-surrogate", 0.5)])
    def test_decay_defaults_come_from_params(self, tmp_path, kind, decay):
        args = ["generate", "--kind", kind, "--height", 16, "--width", 16, "--snapshots", 4]
        assert run(*args, "--out-dir", tmp_path / "default") == 0
        assert run(*args, "--decay", decay, "--out-dir", tmp_path / "explicit") == 0
        default = (tmp_path / "default/dataset.lampds").read_bytes()
        assert default == (tmp_path / "explicit/dataset.lampds").read_bytes()
        manifest = json.loads((tmp_path / "default/manifest.json").read_text())
        assert manifest["config"]["decay"] is None

    @pytest.mark.parametrize("kind, flag, value", [
        ("laminar-surrogate", "--modes", 0), ("laminar-surrogate", "--packet-radius", -3),
        ("chaotic-surrogate", "--harmonics", 3), ("chaotic-surrogate", "--envelope-width", 4),
    ])
    def test_flag_of_the_other_kind_exits_2(self, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "gen"
        assert run("generate", "--kind", kind, "--height", 16, "--width", 16, "--snapshots", 4,
                   flag, value, "--out-dir", out) == 2
        assert f"{flag} is not a {kind} parameter" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind, flags", [
        ("laminar-surrogate", ["--modes", 40]),
        ("chaotic-surrogate", ["--harmonics", 6, "--speed", 1.0, "--wavelength", 32.0]),
    ])
    def test_flag_of_the_other_kind_at_its_default_is_accepted(self, tmp_path, kind, flags):
        # A manifest records the other kind's flags at their defaults, and its rerun passes them.
        args = ["generate", "--kind", kind, "--height", 16, "--width", 16, "--snapshots", 4]
        assert run(*args, "--out-dir", tmp_path / "plain") == 0
        assert run(*args, *flags, "--out-dir", tmp_path / "flags") == 0
        assert run("rerun", tmp_path / "plain/manifest.json", "--out-dir", tmp_path / "rerun") == 0
        want = (tmp_path / "plain/dataset.lampds").read_bytes()
        for out in ("flags", "rerun"):
            assert (tmp_path / out / "dataset.lampds").read_bytes() == want

    def test_one_flag_per_generator_parameter(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        flags = {}
        for action in subs.choices["generate"]._actions:
            flags.setdefault(action.dest, []).append(action)
        params = {f.name: f.default for kind in (LaminarParams, ChaoticParams)
                  for f in dataclasses.fields(kind)}
        params["decay"] = None  # its default depends on the kind
        for name, default in params.items():
            (action,) = flags[name]
            assert action.option_strings == ["--" + name.replace("_", "-")]
            assert action.default == default and type(action.default) is type(default), name
            assert action.type is (float if default is None else type(default)), name
        others = {"help", "kind", "height", "width", "snapshots", "seed", "budget_bytes", "out_dir"}
        assert flags.keys() - params.keys() == others


class TestTrain:
    def test_model_reloads_and_is_byte_stable(self, tmp_path, laminar_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            assert run("train", "--dataset", laminar_path, "--patch-size", 8,
                       "--latent-dim", 4, "--out-dir", out) == 0
        raw1 = (out1 / "model.lampmd").read_bytes()
        raw2 = (out2 / "model.lampmd").read_bytes()
        assert raw1 == raw2
        model = read_model(out1 / "model.lampmd")
        assert model.latent_dim == 4

    def test_one_patch_grid_trains_with_no_pair_loss(self, tmp_path, laminar_path):
        out = tmp_path / "m"
        assert run("train", "--dataset", laminar_path, "--patch-size", 32,
                   "--latent-dim", 4, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["model.lampmd"]
        assert manifest["results"]["pair_loss"] is None
        assert read_model(out / "model.lampmd").n_patches == 1

    def test_non_divisible_patch_exits_2(self, tmp_path, laminar_path, capsys):
        code = run("train", "--dataset", laminar_path, "--patch-size", 7,
                   "--latent-dim", 4, "--out-dir", tmp_path / "x")
        assert code == 2
        assert "does not divide" in capsys.readouterr().err

    def test_budget_exceeded_exits_2(self, tmp_path, laminar_path, capsys):
        code = run("train", "--dataset", laminar_path, "--patch-size", 8,
                   "--latent-dim", 4, "--budget-bytes", 1000,
                   "--out-dir", tmp_path / "x")
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_missing_dataset_exits_3(self, tmp_path):
        code = run("train", "--dataset", tmp_path / "nope.lampds", "--patch-size", 8,
                   "--latent-dim", 4, "--out-dir", tmp_path / "x")
        assert code == 3

    def test_standardized_dataset_trains_on_its_stored_stats(self, tmp_path, laminar_path):
        path = tmp_path / "standardized.lampds"
        write_dataset(normalize(read_dataset(laminar_path), range(0, 40)), path)
        stored = read_dataset(path)
        out = tmp_path / "m"
        assert run("train", "--dataset", path, "--patch-size", 8, "--latent-dim", 4,
                   "--out-dir", out) == 0
        model = read_model(out / "model.lampmd")
        assert np.array_equal(model.norm_stats.mean, stored.norm_stats.mean)
        assert np.array_equal(model.norm_stats.std, stored.norm_stats.std)
        write_model(train_attention_model(split(stored)[0], 8, 4), tmp_path / "library.lampmd")
        assert (out / "model.lampmd").read_bytes() == (tmp_path / "library.lampmd").read_bytes()

    def test_only_the_train_split_alive_when_the_value_fit_starts(self, tmp_path, laminar_path,
                                                                   monkeypatch):
        # At the value fit the mapped dataset, the standardized test split and
        # every patch series are gone: ``lamp train``'s peak holds only the
        # standardized train split, its latents and the value maps.
        datasets, tests, losses, seen = track_datasets(monkeypatch), [], [], []
        standardize, loss, train = cli.split_standardized, cli.ae_loss, cli.train_attention_model

        def standardizing(raw, spec, stats=None):
            train_norm, test_norm, test_raw = standardize(raw, spec, stats)
            tests.extend([weakref.ref(test_norm), memory_ref(test_norm)])
            return train_norm, test_norm, test_raw

        def recording_loss(pod, series):
            losses.append(loss(pod, series))
            return losses[-1]

        def recording_train(*args, **kwargs):
            seen.append((alive(datasets), alive(tests), len(losses)))
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "split_standardized", standardizing)
        monkeypatch.setattr(cli, "ae_loss", recording_loss)
        monkeypatch.setattr(cli, "train_attention_model", recording_train)
        out = tmp_path / "m"
        assert run("train", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", 4,
                   "--out-dir", out) == 0
        assert len(datasets) == 2 and len(tests) == 2
        assert seen == [([], [], 2)]
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert [results["ae_loss_train"], results["ae_loss_test"]] == losses

    def test_singular_fit_exits_4(self, tmp_path, capsys):
        # one patch identically equal to the component mean: its latents are
        # exactly zero, so the unridged normal matrix is singular
        data = np.zeros((20, 8, 8, 1))
        data[:, :, 4:, :] = 1.0
        data[:, 4:, 4:, :] = -1.0
        assert np.all(data[:, :4, :4] == 0.0)
        assert data.mean() == 0.0
        path = tmp_path / "degenerate.lampds"
        write_dataset(SnapshotSet(data), path)
        code = run("train", "--dataset", path, "--patch-size", 4, "--latent-dim", 2,
                   "--ridge-lambda", 0.0, "--gap-fraction", 0.0,
                   "--test-fraction", 0.25, "--out-dir", tmp_path / "x")
        assert code == 4
        assert "ridge_lambda" in capsys.readouterr().err


class TestReconstruct:
    def test_outputs_and_manifest(self, tmp_path, laminar_path, trained):
        out = tmp_path / "rec"
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--seed", 4, "--out-dir", out) == 0
        assert (out / "recon.lampds").exists()
        rows = read_rows(out / "loss.csv")
        assert len(rows) == 16  # test split of 80 snapshots
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["pred_loss_mean"] > 0
        for name in ("truth_c0.ppm", "input_c0.ppm", "recon_c0.ppm"):
            assert (out / name).exists()

    def test_geometry_mismatch_exits_2(self, tmp_path, chaotic_path, trained):
        code = run("reconstruct", "--dataset", chaotic_path, "--model", trained,
                   "--coverage", 0.25, "--out-dir", tmp_path / "x")
        assert code == 2


class TestSweepAndRerun:
    def test_sweep_and_manifest_rerun_byte_identical(self, tmp_path, laminar_path):
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", "8,16",
                   "--latent-dim", "2,4", "--snr-db", "inf,20", "--coverage", "0.2",
                   "--arrangements", 3, "--seed", 2, "--out-dir", out) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 8
        assert set(rows[0]) == {
            "patch_size", "latent_dim", "snr_db", "coverage", "median_pred_loss",
            "ae_loss", "noise_variance", "n_arrangements", "seed",
        }
        out2 = tmp_path / "rerun"
        assert run("rerun", out / "manifest.json", "--out-dir", out2) == 0
        assert (out / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        for ppm in sorted(out.glob("*.ppm")):
            assert ppm.read_bytes() == (out2 / ppm.name).read_bytes()

    def test_heatmap_planes_are_the_cells_of_each_snr_and_coverage(self, tmp_path, laminar_path,
                                                                   monkeypatch):
        def fake_sweep(raw, axes, **kwargs):  # distinct losses and one skipped cell
            coords = itertools.product(axes.patch_sizes, axes.latent_dims, axes.snr_dbs,
                                       axes.coverages)
            return metrics.SweepResult(tuple(
                metrics.SweepCell(*c, None if i == 5 else 10.0 ** (i % 7 - 3), 0.0, 0.0, 2, 0)
                for i, c in enumerate(coords)
            ))

        monkeypatch.setattr(metrics, "run_sweep", fake_sweep)
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", "16,8",
                   "--latent-dim", "4,2,3", "--snr-db", "inf,20", "--coverage", "0.5,0.25",
                   "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == [
            "sweep.csv", "sweep_snr20_cov0.25.ppm", "sweep_snr20_cov0.5.ppm",
            "sweep_snrinf_cov0.25.ppm", "sweep_snrinf_cov0.5.ppm",
        ]
        axes = metrics.SweepAxes((16, 8), (4, 2, 3), (math.inf, 20.0), (0.5, 0.25))
        cells = {(c.patch_size, c.latent_dim, c.snr_db, c.coverage): c
                 for c in fake_sweep(None, axes).cells}
        for snr in axes.snr_dbs:
            for cov in axes.coverages:
                plane = np.full((2, 3), np.nan)
                for i, p in enumerate(axes.patch_sizes):
                    for j, ne in enumerate(axes.latent_dims):
                        loss = cells[p, ne, snr, cov].median_pred_loss
                        plane[i, j] = np.nan if loss is None else math.log10(loss)
                want = tmp_path / "want.ppm"
                formats.write_heatmap(plane, want, 16)
                got = out / f"sweep_snr{snr:g}_cov{cov:g}.ppm"
                assert got.read_bytes() == want.read_bytes(), got.name

    def test_skipped_cells_recorded(self, tmp_path, laminar_path):
        out = tmp_path / "skip"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", "5,8",
                   "--latent-dim", "2", "--arrangements", 2, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["results"]["skipped"]) == 1
        rows = read_rows(out / "sweep.csv")
        skipped = [r for r in rows if r["patch_size"] == "5"]
        assert skipped[0]["median_pred_loss"] == ""


class TestPowerAndSensors:
    def test_power_map_outputs(self, tmp_path, trained):
        out = tmp_path / "pm"
        assert run("power-map", "--model", trained, "--out-dir", out) == 0
        rows = read_rows(out / "power.csv")
        assert len(rows) == 16
        assert (out / "power.ppm").exists()

    def test_place_sensors_and_reuse(self, tmp_path, laminar_path, trained):
        pm = tmp_path / "pm"
        assert run("power-map", "--model", trained, "--out-dir", pm) == 0
        out = tmp_path / "sensors"
        assert run("place-sensors", "--model", trained, "--coverage", 0.25,
                   "--out-dir", out) == 0
        sensors = json.loads((out / "sensors.json").read_text())
        assert len(sensors["unmasked"]) == 4
        rec = tmp_path / "rec"
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--sensors-from", pm / "power.csv",
                   "--out-dir", rec) == 0
        manifest = json.loads((rec / "manifest.json").read_text())
        assert manifest["results"]["unmasked"] == sensors["unmasked"]

    @pytest.mark.parametrize("command", ["reconstruct", "compare"])
    def test_power_map_over_another_grid_exits_2(self, tmp_path, laminar_path, trained, capsys,
                                                 command):
        # A 2x8 grid has the 16 patches of the trained 4x4 grid, at other places.
        wide = tmp_path / "wide.lampds"
        write_dataset(generate(FlowSpec("chaotic-surrogate", 16, 64, 80, seed=2)), wide)
        assert run("train", "--dataset", wide, "--patch-size", 8, "--latent-dim", 4,
                   "--out-dir", tmp_path / "model") == 0
        assert run("power-map", "--model", tmp_path / "model" / "model.lampmd",
                   "--out-dir", tmp_path / "pm") == 0
        path, out = tmp_path / "pm" / "power.csv", tmp_path / "x"
        capsys.readouterr()
        assert run(command, "--dataset", laminar_path, "--model", trained, "--coverage", 0.25,
                   "--sensors-from", path, "--out-dir", out) == 2
        assert error_line(capsys) == f"error: power map {path} is over another grid than 4x4"
        assert not out.exists() or not any(out.iterdir())

    def test_place_sensors_checks_coverage_beside_count(self, tmp_path, trained, capsys):
        out = tmp_path / "sensors"
        assert run("place-sensors", "--model", trained, "--count", 3, "--coverage", 7,
                   "--out-dir", out) == 2
        assert error_line(capsys) == "error: coverage must be in (0, 1], got 7.0"
        assert list(out.iterdir()) == []

    def test_power_map_of_one_patch_model_exits_2(self, tmp_path, laminar_path, capsys):
        assert run("train", "--dataset", laminar_path, "--patch-size", 32, "--latent-dim", 4,
                   "--out-dir", tmp_path / "m") == 0
        out = tmp_path / "pm"
        assert run("power-map", "--model", tmp_path / "m" / "model.lampmd", "--out-dir", out) == 2
        assert error_line(capsys) == "error: predictive power needs at least two patches"
        assert list(out.iterdir()) == []


class TestGappyCommand:
    def test_outputs(self, tmp_path, laminar_path):
        out = tmp_path / "gp"
        assert run("gappy", "--dataset", laminar_path, "--patch-size", 8,
                   "--rank", 4, "--coverage", 0.5, "--seed", 1, "--out-dir", out) == 0
        rows = read_rows(out / "loss.csv")
        assert float(rows[0]["pred_loss"]) > 0

    def test_singular_observed_normal_matrix_exits_4(self, tmp_path, laminar_path, capsys):
        # Seed 0 observes only patch 13, outside the wake: its values are
        # constant in time, every mode vanishes there to rounding, and the
        # unridged normal matrix of those pixels fails its Cholesky.
        out = tmp_path / "gp"
        assert run("gappy", "--dataset", laminar_path, "--patch-size", 8, "--rank", 4,
                   "--coverage", 0.07, "--seed", 0, "--ridge-lambda", 0, "--out-dir", out) == 4
        assert error_line(capsys) == (
            "error: observed-pixel normal matrix is singular; pass a positive ridge_lambda"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("generator_seed", [1, 7])
    def test_singular_verdict_does_not_hang_on_rounding(self, tmp_path, capsys, generator_seed):
        # Both datasets give the observed patch a 4x4 normal matrix with
        # eigenvalues from -1e-69 to 3e-37.  Whether LAPACK's Cholesky fails
        # on it is rounding (with OpenBLAS seed 7's passed, and its solve read
        # pred_loss ~1e29); a squared pivot at most eps * trace fails both.
        data = tmp_path / "laminar.lampds"
        write_dataset(generate(FlowSpec("laminar-surrogate", 32, 32, 80, seed=generator_seed)),
                      data)
        out = tmp_path / "gp"
        assert run("gappy", "--dataset", data, "--patch-size", 8, "--rank", 4,
                   "--coverage", 0.07, "--seed", 0, "--ridge-lambda", 0, "--out-dir", out) == 4
        assert error_line(capsys) == (
            "error: observed-pixel normal matrix is singular; pass a positive ridge_lambda"
        )


class TestCompare:
    def test_chaotic_desk_scale_ordering(self, tmp_path, chaotic_path):
        mdir = tmp_path / "model"
        assert run("train", "--dataset", chaotic_path, "--patch-size", 16,
                   "--latent-dim", 12, "--out-dir", mdir) == 0
        out = tmp_path / "cmp"
        assert run("compare", "--dataset", chaotic_path, "--model", mdir / "model.lampmd",
                   "--coverage", 0.25, "--place-sensors", "--out-dir", out) == 0
        rows = read_rows(out / "compare.csv")
        assert float(rows[0]["ratio"]) < 1.0
        assert float(rows[0]["lamp_pred_loss"]) < float(rows[0]["gappy_pred_loss"])
        for name in ("truth_c0.ppm", "lamp_c0.ppm", "gappy_c0.ppm"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["rank"] == 12

    def test_dataset_released_after_the_noise_draw(self, tmp_path, laminar_path, trained,
                                                   monkeypatch):
        datasets, seen = track_datasets(monkeypatch), []
        fit = cli.fit_gappy

        def recording_fit(train_norm, rank):
            seen.append(alive(datasets))
            return fit(train_norm, rank)

        monkeypatch.setattr(cli, "fit_gappy", recording_fit)
        assert run("compare", "--dataset", laminar_path, "--model", trained, "--coverage", 0.25,
                   "--snr-db", 20, "--out-dir", tmp_path / "cmp") == 0
        assert len(datasets) == 2
        assert seen == [[]]

    def test_rerun_reproduces_compare(self, tmp_path, laminar_path, trained):
        out = tmp_path / "cmp"
        assert run("compare", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--seed", 8, "--out-dir", out) == 0
        out2 = tmp_path / "cmp2"
        assert run("rerun", out / "manifest.json", "--out-dir", out2) == 0
        assert (out / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()
        for ppm in sorted(out.glob("*.ppm")):
            assert ppm.read_bytes() == (out2 / ppm.name).read_bytes()


class TestRunSkeleton:
    """Every command lists exactly what it wrote, and rerun reproduces it."""

    @pytest.mark.parametrize(
        "command",
        ["generate", "train", "reconstruct", "sweep", "power-map", "place-sensors",
         "gappy", "compare"],
    )
    def test_outputs_listed_and_rerun_byte_identical(self, tmp_path, laminar_path, trained,
                                                     command):
        argv = {
            "generate": ["--height", 16, "--width", 16, "--snapshots", 12],
            "train": ["--dataset", laminar_path, "--patch-size", 8, "--latent-dim", 4],
            "reconstruct": ["--dataset", laminar_path, "--model", trained, "--coverage", 0.25,
                            "--snr-db", 20],
            "sweep": ["--dataset", laminar_path, "--patch-size", "5,16", "--latent-dim", 2,
                      "--snr-db", "inf,20", "--arrangements", 2],
            "power-map": ["--model", trained],
            "place-sensors": ["--model", trained, "--coverage", 0.25],
            "gappy": ["--dataset", laminar_path, "--patch-size", 8, "--rank", 4,
                      "--coverage", 0.5, "--snr-db", 30],
            "compare": ["--dataset", laminar_path, "--model", trained, "--coverage", 0.25,
                        "--place-sensors"],
        }[command]
        out, again = tmp_path / "run", tmp_path / "rerun"
        assert run(command, *argv, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written
        assert run("rerun", out / "manifest.json", "--out-dir", again) == 0
        assert sorted(p.name for p in again.iterdir()) == sorted([*written, "manifest.json"])
        for name in written:
            assert (out / name).read_bytes() == (again / name).read_bytes(), name
        replay = json.loads((again / "manifest.json").read_text())
        assert replay["results"] == manifest["results"]


class TestMalformedInputs:
    def test_model_header_larger_than_file_exits_3(self, tmp_path, laminar_path, capsys):
        model = tmp_path / "huge.lampmd"
        trailer = struct.pack("<5IB2d", 2**20, 2**20, 1, 1, 1, 1, -1e-8, 1e-12)
        model.write_bytes(MODEL_MAGIC + bytes(48) + trailer)
        assert run("reconstruct", "--dataset", laminar_path, "--model", model,
                   "--coverage", 0.25, "--out-dir", tmp_path / "x") == 3
        assert "truncated" in capsys.readouterr().err

    def test_dataset_declaring_fewer_snapshots_exits_3(self, tmp_path, laminar_path, capsys):
        raw = bytearray(Path(laminar_path).read_bytes())
        struct.pack_into("<I", raw, len(raw) - 5, 79)  # T, the trailer's fourth u32, was 80
        path = tmp_path / "short.lampds"
        path.write_bytes(bytes(raw))
        assert run("train", "--dataset", path, "--patch-size", 8, "--latent-dim", 4,
                   "--out-dir", tmp_path / "x") == 3
        assert error_line(capsys).endswith(f": {32 * 32 * 2 * 8} trailing bytes")

    @pytest.mark.parametrize("at, value", [(1, -1.0), (0, 1.0)],
                             ids=["negative", "nonzero-diagonal"])
    def test_bad_pair_losses_exit_3(self, tmp_path, trained, capsys, at, value):
        # The pair losses are the N^2 f64 before the 37-byte trailer, row-major.
        raw = bytearray(Path(trained).read_bytes())
        n = read_model(trained).n_patches
        struct.pack_into("<d", raw, len(raw) - 37 - 8 * n * n + 8 * at, value)
        model = tmp_path / "bad.lampmd"
        model.write_bytes(bytes(raw))
        assert run("power-map", "--model", model, "--out-dir", tmp_path / "x") == 3
        assert "pair losses must be nonnegative with a zero diagonal" in error_line(capsys)

    @pytest.mark.parametrize("content", ["empty", "v1"])
    @pytest.mark.parametrize("which", ["dataset", "model"])
    def test_empty_or_v1_file_exits_3(self, tmp_path, laminar_path, trained, capsys, which,
                                      content):
        files = {"dataset": laminar_path, "model": trained}
        magic, trailer = {"dataset": (DATASET_MAGIC, 17), "model": (MODEL_MAGIC, 37)}[which]
        raw = Path(files[which]).read_bytes()
        v1 = magic[:-1] + b"1" + raw[-trailer:] + raw[8:-trailer]  # v1: the fields lead
        files[which] = tmp_path / f"bad.{which}"
        files[which].write_bytes(b"" if content == "empty" else v1)
        assert run("reconstruct", "--dataset", files["dataset"], "--model", files["model"],
                   "--coverage", 0.25, "--out-dir", tmp_path / "x") == 3
        assert f"expected {magic!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "indices",
        [[99, *range(1, 16)], [1, *range(1, 16)], [*range(15), -1]],
        ids=["out-of-range", "repeated", "negative"],
    )
    def test_bad_power_map_index_exits_3(self, tmp_path, laminar_path, trained, indices):
        assert run("power-map", "--model", trained, "--out-dir", tmp_path / "pm") == 0
        rows = read_rows(tmp_path / "pm" / "power.csv")  # 16 patches
        path = tmp_path / "edited.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "patch_index": i} for row, i in zip(rows, indices))
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--sensors-from", path, "--out-dir", tmp_path / "x") == 3

    @pytest.mark.parametrize("extra_rows", [0, 1], ids=["n-rows", "n-plus-1-rows"])
    def test_power_map_without_header_exits_3(self, tmp_path, laminar_path, trained, capsys,
                                              extra_rows):
        # csv.DictReader would take the first data row as the header
        assert run("power-map", "--model", trained, "--out-dir", tmp_path / "pm") == 0
        rows = (tmp_path / "pm" / "power.csv").read_text().splitlines()[1:]  # 16 patches
        path = tmp_path / "headerless.csv"
        path.write_text("\n".join(rows[:extra_rows] + rows) + "\n")
        capsys.readouterr()
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--sensors-from", path, "--out-dir", tmp_path / "x") == 3
        assert f"{path}: not a power-map CSV: header" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "compare"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_power_map_value_exits_3(self, tmp_path, laminar_path, trained, capsys,
                                                command, bad):
        assert run("power-map", "--model", trained, "--out-dir", tmp_path / "pm") == 0
        rows = read_rows(tmp_path / "pm" / "power.csv")
        rows[5]["value"] = bad
        path = tmp_path / "edited.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        out = tmp_path / "x"
        assert run(command, "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--sensors-from", path, "--out-dir", out) == 3
        assert str(path) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "edit, code, line",
        [
            (lambda rows: rows[:4], 2, "error: power map {path} has 4 patches, expected 16"),
            (lambda rows: [{**rows[0], "patch_index": "x"}, *rows[1:]], 3,
             "error: {path}: not a power-map CSV: invalid literal for int() with base 10: 'x'"),
        ],
        ids=["four-rows", "index-not-int"],
    )
    def test_short_or_unparsable_power_map(self, tmp_path, laminar_path, trained, capsys,
                                           edit, code, line):
        assert run("power-map", "--model", trained, "--out-dir", tmp_path / "pm") == 0
        rows = edit(read_rows(tmp_path / "pm" / "power.csv"))
        path = tmp_path / "edited.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        out = tmp_path / "x"
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--sensors-from", path, "--out-dir", out) == code
        assert error_line(capsys) == line.format(path=path)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, extra, line",
        [
            ("reconstruct", ["--coverage", 0.25, "--snr-db", "abc"],
             "error: invalid --snr-db value: 'abc'"),
            ("sweep", ["--patch-size", 8, "--latent-dim", 2, "--coverage", "abc"],
             "error: expected comma-separated numbers, got 'abc'"),
        ],
        ids=["reconstruct-snr", "sweep-coverage"],
    )
    def test_unparsable_number_exits_2(self, tmp_path, laminar_path, trained, capsys, command,
                                       extra, line):
        model = ["--model", trained] if command == "reconstruct" else []
        out = tmp_path / "x"
        assert run(command, "--dataset", laminar_path, *model, *extra, "--out-dir", out) == 2
        assert error_line(capsys) == line
        assert list(out.iterdir()) == []

    def test_non_utf8_power_map_exits_3(self, tmp_path, laminar_path, trained):
        path = tmp_path / "latin1.csv"
        path.write_bytes("patch_index,value\n0,caf\xe9\n".encode("latin-1"))
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--sensors-from", path, "--out-dir", tmp_path / "x") == 3

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("reconstruct", ["--snr-db=-inf"]),
            ("reconstruct", ["--snr-db=-4000"]),
            ("reconstruct", ["--sensors-from", "power.csv", "--coverage", "nan"]),
            ("reconstruct", ["--sensors-from", "power.csv", "--coverage", -1]),
            ("place-sensors", ["--coverage", "nan"]),
            ("place-sensors", ["--count", 0]),
        ],
        ids=["snr-neg-inf", "snr-overflow", "sensors-coverage-nan",
             "sensors-coverage-negative", "place-coverage-nan", "place-count-zero"],
    )
    def test_bad_evaluation_value_exits_2(self, tmp_path, laminar_path, trained, command, extra):
        assert run("power-map", "--model", trained, "--out-dir", tmp_path) == 0
        extra = [tmp_path / a if a == "power.csv" else a for a in extra]
        data = ["--dataset", laminar_path, "--coverage", 0.25] if command == "reconstruct" else []
        assert run(command, "--model", trained, *data, *extra, "--out-dir", tmp_path / "x") == 2

    def test_reconstruct_snr_that_underflows_exits_2(self, tmp_path, laminar_path, trained,
                                                     capsys):
        # 10**-400 underflows: the run must not go ahead noise-free.
        out = tmp_path / "x"
        assert run("reconstruct", "--dataset", laminar_path, "--model", trained,
                   "--coverage", 0.25, "--snr-db", 4000, "--out-dir", out) == 2
        assert "positive noise variance" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sweep_snr_that_underflows_exits_2_before_training(self, tmp_path, laminar_path,
                                                               monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(metrics, "train_attention_model", never)
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", 2,
                   "--snr-db", "inf,4000", "--arrangements", 1, "--out-dir", out) == 2
        assert list(out.iterdir()) == []

    def test_compare_place_sensors_with_sensors_from_exits_2(self, tmp_path, laminar_path,
                                                             trained, capsys):
        assert run("power-map", "--model", trained, "--out-dir", tmp_path / "pm") == 0
        capsys.readouterr()
        out = tmp_path / "x"
        assert run("compare", "--dataset", laminar_path, "--model", trained, "--coverage", 0.25,
                   "--place-sensors", "--sensors-from", tmp_path / "pm" / "power.csv",
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "--place-sensors" in err and "--sensors-from" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("train", ["--ridge-lambda", "nan"]),
            ("train", ["--ridge-lambda", "inf"]),
            ("train", ["--error-floor", "nan"]),
            ("train", ["--error-floor", "inf"]),
            ("train", ["--train-fraction", "nan"]),
            ("gappy", ["--ridge-lambda", "nan"]),
            ("gappy", ["--ridge-lambda", "inf"]),
            ("gappy", ["--test-fraction", "nan"]),
            ("compare", ["--ridge-lambda", "nan"]),
            ("compare", ["--train-fraction", "nan"]),
            ("sweep", ["--ridge-lambda", "nan"]),
            ("sweep", ["--ridge-lambda", -1]),
            ("sweep", ["--error-floor", "nan"]),
            ("sweep", ["--error-floor", 0]),
        ],
        ids=["train-ridge-nan", "train-ridge-inf", "train-floor-nan", "train-floor-inf",
             "train-fraction-nan", "gappy-ridge-nan", "gappy-ridge-inf", "gappy-fraction-nan",
             "compare-ridge-nan", "compare-fraction-nan", "sweep-ridge-nan",
             "sweep-ridge-negative", "sweep-floor-nan", "sweep-floor-0"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, laminar_path, trained, command, extra):
        base = {
            "train": ["--patch-size", 8, "--latent-dim", 4],
            "gappy": ["--patch-size", 8, "--rank", 4, "--coverage", 0.5],
            "compare": ["--model", trained, "--coverage", 0.5],
            "sweep": ["--patch-size", 8, "--latent-dim", 2, "--arrangements", 1],
        }[command]
        out = tmp_path / "x"
        assert run(command, "--dataset", laminar_path, *base, *extra, "--out-dir", out) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("arrangements", [0, -3])
    def test_no_arrangements_exits_2(self, tmp_path, laminar_path, arrangements):
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", 2,
                   "--arrangements", arrangements, "--out-dir", out) == 2
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "axis",
        [["--patch-size", "8,8"], ["--snr-db", "20,20.0"], ["--snr-db", "20,20.0000001"],
         ["--coverage", "0.1,0.1000000001"]],
        ids=["repeated-patch-size", "repeated-snr", "snr-alike-in-names", "coverage-alike-in-names"],
    )
    def test_repeated_or_alike_sweep_axis_exits_2(self, tmp_path, laminar_path, axis):
        # Alike values would write the same heatmap twice and list it twice
        # in the manifest's outputs, so they are rejected before any output.
        base = {"--patch-size": 8, "--latent-dim": 2, "--snr-db": "inf", "--coverage": 0.2}
        base[axis[0]] = axis[1]
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, *[a for kv in base.items() for a in kv],
                   "--arrangements", 1, "--out-dir", out) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "axis",
        ["--coverage=nan", "--coverage=0", "--coverage=1.5", "--snr-db=nan", "--snr-db=-inf",
         "--patch-size=0", "--latent-dim=-2"],
    )
    def test_invalid_sweep_axis_exits_2_before_training(self, tmp_path, laminar_path, axis):
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", 2,
                   "--arrangements", 1, axis, "--out-dir", out) == 2
        assert list(out.iterdir()) == []

    def test_sweep_budget_counts_the_models_of_one_patch_size(self, tmp_path, laminar_path,
                                                              capsys):
        # run_sweep holds every N_e model of a patch size at once, so the
        # budget applies to their sum, not to each model alone.
        sizes = [model_nbytes(32, 32, 2, 8, ne) for ne in (2, 4)]
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", "2,4",
                   "--arrangements", 1, "--budget-bytes", sum(sizes) - 1,
                   "--out-dir", out) == 2
        assert "budget" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", "2,4",
                   "--arrangements", 1, "--budget-bytes", sum(sizes), "--out-dir", out) == 0

    def test_sweep_budget_counts_only_the_models_it_trains(self, tmp_path, laminar_path, capsys):
        # N_e=100000 is over min(D, T_train) at P=8, so run_sweep skips it and
        # holds only the N_e=2 model: exactly that model's bytes fit.
        out = tmp_path / "sweep"
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8,
                   "--latent-dim", "2,100000", "--arrangements", 1,
                   "--budget-bytes", model_nbytes(32, 32, 2, 8, 2), "--out-dir", out) == 0
        skipped = json.loads((out / "manifest.json").read_text())["results"]["skipped"]
        assert {row["latent_dim"] for row in skipped} == {100000}
        assert "latent_dim must be in" in skipped[0]["reason"]
        assert run("sweep", "--dataset", laminar_path, "--patch-size", 8,
                   "--latent-dim", "2,100000", "--arrangements", 1,
                   "--budget-bytes", model_nbytes(32, 32, 2, 8, 2) - 1,
                   "--out-dir", tmp_path / "tight") == 2
        assert "models (P=8, N_e=2) would take" in capsys.readouterr().err

    @pytest.mark.parametrize("patch_sizes", ["8,16", "8,5,16"])
    def test_sweep_budget_checks_each_patch_size_alone(self, tmp_path, laminar_path, capsys,
                                                       patch_sizes):
        # run_sweep holds one patch size's models at a time, so the budget
        # applies to each patch size's models alone, never to a sum over patch
        # sizes; P=5 does not divide the field and holds nothing.
        larger = model_nbytes(32, 32, 2, 8, 2)  # P=8's model is the larger
        assert larger > model_nbytes(32, 32, 2, 16, 2)
        argv = ["sweep", "--dataset", laminar_path, "--patch-size", patch_sizes,
                "--latent-dim", 2, "--arrangements", 1]
        assert run(*argv, "--budget-bytes", larger, "--out-dir", tmp_path / "ok") == 0
        assert run(*argv, "--budget-bytes", larger - 1, "--out-dir", tmp_path / "tight") == 2
        err = capsys.readouterr().err
        assert "models (P=8, N_e=2) would take" in err and "P=16" not in err
        assert list((tmp_path / "tight").iterdir()) == []

    def test_sweep_budget_counts_the_arrangements_before_training(self, tmp_path, laminar_path,
                                                                  monkeypatch, capsys):
        # The scoring's job list and loss slots grow with --arrangements: a
        # huge count exits 2 before run_sweep trains or allocates anything,
        # also when a manifest replays it.
        argv = ["sweep", "--dataset", laminar_path, "--patch-size", 8, "--latent-dim", 2]
        assert run(*argv, "--arrangements", 1, "--out-dir", tmp_path / "one") == 0
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("run_sweep was called")

        monkeypatch.setattr(metrics, "run_sweep", never)
        huge = tmp_path / "huge"
        assert run(*argv, "--arrangements", 10**15, "--out-dir", huge) == 2
        err = error_line(capsys)
        assert "scoring 1000000000000000 arrangements would take" in err
        assert "reduce --arrangements" in err
        assert list(huge.iterdir()) == []
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        manifest["config"]["arrangements"] = 10**15
        (tmp_path / "huge.json").write_text(json.dumps(manifest))
        assert run("rerun", tmp_path / "huge.json", "--out-dir", tmp_path / "rerun") == 2
        assert error_line(capsys) == err.replace(str(huge), str(tmp_path / "rerun"))

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("generate", []),
            ("reconstruct", ["--model", "MODEL", "--coverage", 0.25]),
            ("gappy", ["--patch-size", 8, "--rank", 4, "--coverage", 0.5]),
            ("compare", ["--model", "MODEL", "--coverage", 0.25]),
            ("sweep", ["--patch-size", 8, "--latent-dim", 2, "--arrangements", 1]),
        ],
    )
    def test_negative_seed_exits_2_without_output(self, tmp_path, laminar_path, trained, command,
                                                  extra, capsys):
        extra = [trained if a == "MODEL" else a for a in extra]
        data = [] if command == "generate" else ["--dataset", laminar_path]
        out = tmp_path / "x"
        assert run(command, *data, *extra, "--seed", -1, "--out-dir", out) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [["--kind", "chaotic-surrogate", "--packet-radius", 0],
         ["--kind", "chaotic-surrogate", "--packet-radius", -1],
         ["--envelope-width=-2"], ["--speed", "nan"], ["--wavelength", "inf"]],
        ids=["radius-0", "radius-negative", "width-negative", "speed-nan", "wavelength-inf"],
    )
    def test_bad_generator_length_exits_2(self, tmp_path, extra, capsys):
        out = tmp_path / "gen"
        assert run("generate", "--height", 16, "--width", 16, "--snapshots", 4, *extra,
                   "--out-dir", out) == 2
        assert "finite and positive" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_zero_amplitude_exits_2(self, tmp_path, capsys):
        # An all-zero dataset would only fail later, at training ("zero variance").
        out = tmp_path / "gen"
        assert run("generate", "--height", 16, "--width", 16, "--snapshots", 4,
                   "--amplitude", 0, "--out-dir", out) == 2
        assert "amplitude must be finite and nonzero" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "extra, code",
        [(["--kind", "chaotic-surrogate", "--packet-radius", "1e300"], 2),
         (["--kind", "chaotic-surrogate", "--packet-radius", "1e-300"], 2),
         (["--amplitude", "1e300"], 4),
         (["--amplitude=-1e300"], 4),
         (["--kind", "chaotic-surrogate", "--decay=-100"], 4)],
        ids=["radius-1e300", "radius-1e-300", "amplitude-1e300", "amplitude--1e300",
             "decay--100"],
    )
    def test_overflowing_generator_value_writes_nothing(self, tmp_path, extra, code, capsys):
        # The radius is rejected with the params; an infinite signal power
        # only shows once the field exists, before anything is written.
        out = tmp_path / "gen"
        assert run("generate", "--height", 16, "--width", 16, "--snapshots", 4, *extra,
                   "--out-dir", out) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["laminar-surrogate", "chaotic-surrogate"])
    @pytest.mark.parametrize("decay", ["nan", "inf", "-inf", "-1000", "1e6"])
    def test_non_finite_decay_exits_2(self, tmp_path, kind, decay, capsys):
        out = tmp_path / "gen"
        assert run("generate", "--kind", kind, "--height", 16, "--width", 16, "--snapshots", 4,
                   f"--decay={decay}", "--out-dir", out) == 2
        assert "decay must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["laminar-surrogate", "chaotic-surrogate"])
    def test_out_of_memory_exits_2(self, tmp_path, kind, capsys):
        # 8.5 PiB for the laminar field, over any 64-bit address space, so the
        # allocation fails at once without touching memory.  The budget is
        # raised past the request so that the allocation is reached.
        out = tmp_path / "gen"
        assert run("generate", "--kind", kind, "--height", 10**7, "--width", 10**7,
                   "--snapshots", 2, "--budget-bytes", 10**18, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["laminar-surrogate", "chaotic-surrogate"])
    def test_generate_over_budget_exits_2_before_allocating(self, tmp_path, kind, monkeypatch,
                                                            capsys):
        def never(spec):
            raise AssertionError("generate was called")

        monkeypatch.setattr(synthetic, "generate", never)
        out = tmp_path / "gen"
        assert run("generate", "--kind", kind, "--height", 10**9, "--width", 10**9,
                   "--snapshots", 2, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "budget" in err and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_generate_budget_counts_field_and_mode_matrix(self, tmp_path, capsys):
        # 16x16, T=4, 6 harmonics: 8 * 256 * (4*4 + 2*6) = 57344 bytes.
        base = ["generate", "--height", 16, "--width", 16, "--snapshots", 4]
        assert run(*base, "--budget-bytes", 57343, "--out-dir", tmp_path / "a") == 2
        assert "57344 bytes" in capsys.readouterr().err
        assert run(*base, "--budget-bytes", 57344, "--out-dir", tmp_path / "b") == 0

    def test_corrupt_norm_stats_exit_3(self, tmp_path, laminar_path, trained, capsys):
        write_dataset(normalize(read_dataset(laminar_path), range(0, 40)), tmp_path / "n.lampds")
        raw = bytearray((tmp_path / "n.lampds").read_bytes())
        raw[33:41] = struct.pack("<d", -1.0)  # std of component 0
        path = tmp_path / "stats.lampds"
        path.write_bytes(bytes(raw))
        assert run("reconstruct", "--dataset", path, "--model", trained, "--coverage", 0.25,
                   "--out-dir", tmp_path / "x") == 3
        assert str(path) in capsys.readouterr().err

    def test_nan_in_train_rows_only_exit_3(self, tmp_path, laminar_path, trained, capsys):
        # reconstruct serves the test rows only; the whole file must still be checked.
        data = np.array(read_dataset(laminar_path).data)
        data[3, 5, 7, 1] = np.nan  # snapshot 3 of 80: a train row
        path = tmp_path / "nan.lampds"
        path.write_bytes(DATASET_MAGIC + data.tobytes() + struct.pack("<4IB", 32, 32, 2, 80, 0))
        out = tmp_path / "x"
        assert run("reconstruct", "--dataset", path, "--model", trained, "--coverage", 0.25,
                   "--out-dir", out) == 3
        assert "NaN" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("index", [["--snapshot", 999], ["--snapshot", -1], ["--component", 5]],
                             ids=["snapshot-999", "snapshot-negative", "component-5"])
    @pytest.mark.parametrize("command", ["reconstruct", "gappy", "compare"])
    def test_bad_image_index_leaves_no_outputs(self, tmp_path, laminar_path, trained, command,
                                               index):
        model = ["--patch-size", 8, "--rank", 4] if command == "gappy" else ["--model", trained]
        out = tmp_path / "x"
        assert run(command, "--dataset", laminar_path, *model, "--coverage", 0.25, *index,
                   "--out-dir", out) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "manifest, key",
        [
            ([], None),
            ({"command": "power-map", "config": ["--model", "m"]}, None),
            ({"command": "power-map", "config": {"model": "m"}}, None),
            ('{"command": "caf\xe9"}'.encode("latin-1"), None),
            ({"command": "--help", "config": {"out_dir": "o"}}, None),
            ({"command": "rerun", "config": {"manifest": "m", "out_dir": "o"}}, None),
            ({"command": "train", "config": {"dataset": "d", "patch_size": 8, "latent_dim": 4,
                                             "use_intercept": "false", "out_dir": "o"}}, None),
            ({"command": "power-map", "config": {"model": "m", "bogus": 1, "out_dir": "o"}}, None),
            ({"command": "power-map", "config": {"model": "m", "help": True, "out_dir": "o"}},
             None),
            ({"command": "train", "config": {"dataset": "d", "patch_size": "abc", "latent_dim": 4,
                                             "out_dir": "o"}}, "patch_size"),
            ({"command": "train", "config": {"dataset": "d", "patch_size": [1, 2],
                                             "latent_dim": 4, "out_dir": "o"}}, "patch_size"),
            ({"command": "generate", "config": {"seed": -1, "out_dir": "o"}}, "seed"),
            ({"command": "generate", "config": {"kind": "bogus", "out_dir": "o"}}, "kind"),
            ({"command": "train", "config": {"dataset": "d", "patch_size": None, "latent_dim": 4,
                                             "out_dir": "o"}}, "patch_size"),
            ({"command": "power-map", "config": {"out_dir": "o"}}, "model"),
        ],
        ids=["list", "config-list", "no-out-dir", "not-utf8", "help", "rerun",
             "switch-string", "unknown-key", "help-key", "int-string", "int-list",
             "negative-seed", "bad-choice", "required-null", "required-absent"],
    )
    def test_malformed_rerun_manifest_exits_3(self, tmp_path, manifest, key, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
        assert run("rerun", path, "--out-dir", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert str(path) in err and (key is None or repr(key) in err)
        assert not (tmp_path / "x").exists()

    def test_rerun_manifest_without_config_exits_3(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "power-map"}))
        assert run("rerun", path, "--out-dir", tmp_path / "x") == 3
        assert error_line(capsys) == f"error: {path}: manifest missing 'config'"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ((32, 32, 2, 5, 4, 1), "patch size 5 does not divide field 32x32"),
            ((32, 32, 2, 8, 0, 1), "latent dimension 0 out of range for D=128"),
            ((32, 32, 2, 8, 129, 1), "latent dimension 129 out of range for D=128"),
            ((32, 32, 2, 8, 4, 2), "invalid intercept flag 2"),
        ],
        ids=["patch-not-dividing", "latent-zero", "latent-above-D", "intercept-flag-2"],
    )
    def test_invalid_model_header_exits_3(self, tmp_path, capsys, geometry, message):
        # The header alone: each check comes before the file size is compared.
        path = tmp_path / "crafted.lampmd"
        path.write_bytes(MODEL_MAGIC + struct.pack("<5IB2d", *geometry, 1e-8, 1e-12))
        assert run("power-map", "--model", path, "--out-dir", tmp_path / "pm") == 3
        assert error_line(capsys) == f"error: {path}: {message}"
        assert list((tmp_path / "pm").iterdir()) == []

    def test_rerun_rejects_string_switch_before_training(self, tmp_path, laminar_path):
        # bool("false") is True: read loosely, this replay would train with the intercept.
        config = {"dataset": str(laminar_path), "patch_size": 8, "latent_dim": 4,
                  "use_intercept": "false", "out_dir": str(tmp_path / "x")}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "train", "config": config}))
        assert run("rerun", path) == 3
        assert not (tmp_path / "x").exists()

    def test_rerun_value_beginning_with_dash_is_a_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {"height": 8, "width": 8, "snapshots": 4, "out_dir": "-gen"}
        (tmp_path / "manifest.json").write_text(json.dumps({"command": "generate", "config": config}))
        assert run("rerun", "manifest.json") == 0
        assert (tmp_path / "-gen" / "dataset.lampds").exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code, line",
        [
            (ValidationError("bad value"), 2, "error: bad value"),
            (MemoryError("no room"), 2, "error: out of memory: no room"),
            (FormatError("bad file"), 3, "error: bad file"),
            (OSError("no disk"), 3, "error: no disk"),
            (NumericalError("no convergence"), 4, "error: no convergence"),
        ],
        ids=["validation", "memory", "format", "os", "numerical"],
    )
    def test_each_failure_kind_exits_with_its_code(self, tmp_path, monkeypatch, capsys, exc,
                                                   code, line):
        def failing(args, out):
            raise exc

        monkeypatch.setattr(cli, "cmd_power_map", failing)
        out = tmp_path / "x"
        assert run("power-map", "--model", "model.lampmd", "--out-dir", out) == code
        assert error_line(capsys) == line
        assert list(out.iterdir()) == []


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["train", "--patch-size", "8"]) == 2
        capsys.readouterr()


# Every numeric flag of every command, given each edge value --------------------

# -1000 and 1e6 overflow and underflow exponents such as --decay.
EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "-1000", "1e6"]

# Flags typed as text that the command reads as numbers.
TEXT_NUMBERS = {
    "reconstruct": {"snr_db"},
    "gappy": {"snr_db"},
    "compare": {"snr_db"},
    "sweep": {"patch_size", "latent_dim", "snr_db", "coverage"},
}


def numeric_flags():
    """(command, flag) for every option the parser reads as a number."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, sub in subs.choices.items()
        for action in sub._actions
        if action.option_strings
        and (action.type in (int, float, _seed) or action.dest in TEXT_NUMBERS.get(command, ()))
    ]


def assert_outputs_finite(out):
    """Manifest results, datasets, models and CSVs of a finished run hold no NaN or Inf."""
    manifest = json.loads((out / "manifest.json").read_text())

    def walk(value):
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)
        elif isinstance(value, float):
            assert math.isfinite(value)
        else:  # the manifest spells non-finite floats as their repr
            assert value not in ("nan", "inf", "-inf")

    walk(manifest["results"])
    for name in manifest["outputs"]:
        path = out / name
        if path.suffix == ".lampds":
            assert np.isfinite(read_dataset(path).data).all()
        elif path.suffix == ".lampmd":
            read_model(path)  # rejects non-finite arrays
        elif path.suffix == ".csv":
            for row in read_rows(path):
                for column, cell in row.items():
                    if column != "snr_db" and cell:  # inf is a valid SNR coordinate
                        assert math.isfinite(float(cell)), (name, column, cell)


@pytest.fixture(scope="module")
def small_chaotic(tmp_path_factory):
    """A 16x16 chaotic dataset and a P=4, N_e=4 model trained on it."""
    root = tmp_path_factory.mktemp("small")
    data = root / "chaotic.lampds"
    write_dataset(generate(FlowSpec("chaotic-surrogate", 16, 16, 60, seed=2)), data)
    assert run("train", "--dataset", data, "--patch-size", 4, "--latent-dim", 4,
               "--out-dir", root / "model") == 0
    return data, root / "model" / "model.lampmd"


class TestNumericFlags:
    def test_every_command_with_numbers_is_covered(self):
        assert {c for c, _ in numeric_flags()} == {
            "generate", "train", "reconstruct", "sweep", "place-sensors", "gappy", "compare"}

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("command, flag", numeric_flags())
    def test_edge_value_exits_0_2_or_3(self, tmp_path, small_chaotic, command, flag, value,
                                       capsys):
        data, model = small_chaotic
        base = {
            "generate": ["--height", 16, "--width", 16, "--snapshots", 8],
            "train": ["--dataset", data, "--patch-size", 4, "--latent-dim", 4],
            "reconstruct": ["--dataset", data, "--model", model, "--coverage", 0.25],
            "sweep": ["--dataset", data, "--patch-size", 4, "--latent-dim", 2,
                      "--arrangements", 1],
            "place-sensors": ["--model", model],
            "gappy": ["--dataset", data, "--patch-size", 4, "--rank", 4, "--coverage", 0.25],
            "compare": ["--dataset", data, "--model", model, "--coverage", 0.25],
        }[command]
        kinds = ["laminar-surrogate", "chaotic-surrogate"] if command == "generate" else [None]
        for kind in kinds:
            out = tmp_path / str(kind)
            argv = [command, *(["--kind", kind] if kind else []), *base]
            code = run(*argv, f"{flag}={value}", "--out-dir", out)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (kind, code, err)
            assert "Traceback" not in err
            if code == 0:
                assert_outputs_finite(out)
            else:
                assert not (out / "manifest.json").exists()
