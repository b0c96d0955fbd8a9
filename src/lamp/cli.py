"""Command-line interface: datasets, training, inference, baselines, sweeps.

Every command but ``rerun`` writes its outputs into ``--out-dir`` and returns
their names and its results; :func:`main` then writes ``manifest.json`` there,
recording the fully resolved configuration and the file-format versions, so a
failed run leaves no manifest.  ``lamp rerun <manifest>`` replays a manifest
and reproduces all outputs byte-identically.

Exit codes: 0 success, 2 usage, and for a failure its code in
:data:`lamp.errors.EXIT_CODES` (2 validation, 3 I/O or format, 4 numerical).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import formats, metrics, synthetic
from .attention import DEFAULT_ERROR_FLOOR, reconstruct, train_attention_model
from .errors import EXIT_CODES, FormatError, ValidationError
from .gappy import fit_gappy, reconstruct_gappy
from .metrics import PowerMap, place_sensors, pred_loss, predictive_power
from .patches import (
    MaskSpec,
    PatchGrid,
    SnapshotSet,
    SplitSpec,
    apply_stats,
    check_seed,
    denormalize,
    patchify,
    sensor_count,
    split,
    split_standardized,
)
from .pod import ae_loss, fit_patch_pod, max_latent_dim
from .synthetic import CHAOTIC, LAMINAR, ChaoticParams, FlowSpec, LaminarParams

DEFAULT_BUDGET_BYTES = 2 * 1024**3


# Helpers ----------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _numbers(text: str, kind: type) -> tuple:
    """A comma-separated list of ``kind`` (int or float) values."""
    try:
        return tuple(kind(tok) for tok in str(text).split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"expected comma-separated {noun}, got {text!r}")


def _parse_snr(text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"invalid --snr-db value: {text!r}")


def _seed(text: str) -> int:
    """``--seed`` value, under the library's :func:`check_seed` rule."""
    try:
        return check_seed(int(text))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _split_spec(args) -> SplitSpec:
    return SplitSpec(args.train_fraction, args.test_fraction, args.gap_fraction)


def _config(args) -> dict:
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k != "command"}


def _load_raw(path: str) -> SnapshotSet:
    """Dataset in raw units: standardized files are inverted with their stats."""
    fields = formats.read_dataset(path)
    return denormalize(fields) if fields.norm_stats is not None else fields


def _within_budget(args, need: int, what: str, remedy: str) -> int:
    """``need`` bytes for ``what``; more than ``--budget-bytes`` is rejected."""
    if need > args.budget_bytes:
        raise ValidationError(
            f"{what} would take {need} bytes, over the budget of {args.budget_bytes}; "
            f"{remedy}, or raise --budget-bytes"
        )
    return need


def _check_budget(args, train: SnapshotSet, p: int, latent_dims: tuple[int, ...]) -> int:
    """Total file size of the models of patch size ``p``, held in memory together.
    An N_e over the POD's :func:`max_latent_dim` on ``train`` is never trained."""
    h, w, c = train.height, train.width, train.components
    dims = [ne for ne in latent_dims if ne <= max_latent_dim(p * p * c, train.snapshots)]
    need = sum(formats.model_nbytes(h, w, c, p, ne) for ne in dims)
    return _within_budget(args, need, f"models (P={p}, N_e={','.join(map(str, dims))})",
                          "reduce patch count or latent dimension")


def _eval_input(args, test_raw: SnapshotSet, test_norm: SnapshotSet, grid: PatchGrid, power=None):
    """Mask (placed by power map if given, else random), raw noise variance, noisy input.

    The image indices are checked here too, so a bad one fails before any
    output is written.
    """
    formats.check_image_index(test_norm, args.snapshot, args.component)
    if args.sensors_from:
        power = PowerMap(grid, formats.read_patch_map(args.sensors_from, grid))
    if power is None:
        mask = MaskSpec.random(grid.n_patches, args.coverage, args.seed)
    else:
        mask = place_sensors(power, sensor_count(grid.n_patches, args.coverage))
    sigma2 = synthetic.noise_sigma2(test_raw, _parse_snr(args.snr_db))
    test_in = synthetic.add_noise_fixed(test_norm, mask, sigma2, args.seed + 1, grid)
    return mask, sigma2, test_in


def _eval_results(mask: MaskSpec, sigma2: float, stats, image_ranges: dict) -> dict:
    """Manifest results shared by the evaluation commands."""
    return {
        "noise_variance": metrics.noise_variance_normalized(sigma2, stats),
        "unmasked": list(mask.unmasked),
        "image_ranges": image_ranges,
    }


def _emit_field_images(out: Path, args, named_fields: dict, mask, grid) -> tuple[list[str], dict]:
    outline = formats.masked_outline(grid, mask)
    files, ranges = [], {}
    for name, fields in named_fields.items():
        fname = f"{name}_c{args.component}.ppm"
        plane = fields.data[args.snapshot, :, :, args.component]
        vmin, vmax = formats.write_heatmap(plane, out / fname, outline=outline)
        files.append(fname)
        ranges[fname] = {"vmin": vmin, "vmax": vmax}
    return files, ranges


# Commands ---------------------------------------------------------------------
# Each writes its outputs into ``out`` and returns (output names, results).

def cmd_generate(args, out: Path) -> tuple[list[str], dict]:
    kind = LaminarParams if args.kind == LAMINAR else ChaoticParams
    own = {f.name for f in dataclasses.fields(kind)}
    for f in dataclasses.fields(LaminarParams) + dataclasses.fields(ChaoticParams):
        if f.name not in own and getattr(args, f.name) != f.default:  # the other kind's flag
            raise ValidationError(f"--{f.name.replace('_', '-')} is not a {args.kind} parameter")
    # A flag left at None takes the kind's own default; --decay's differs by kind.
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(kind)}
    params = kind(**{name: value for name, value in values.items() if value is not None})
    spec = FlowSpec(args.kind, args.height, args.width, args.snapshots, args.seed, params)
    _within_budget(args, synthetic.generate_nbytes(spec), "generating the dataset",
                   "reduce height, width or snapshots")
    fields = synthetic.generate(spec)
    power = synthetic.signal_power(fields)  # before any output: it can overflow
    formats.write_dataset(fields, out / "dataset.lampds")
    return ["dataset.lampds"], {
        "geometry": {
            "height": fields.height,
            "width": fields.width,
            "components": fields.components,
            "snapshots": fields.snapshots,
        },
        "signal_power": power,
    }


def cmd_train(args, out: Path) -> tuple[list[str], dict]:
    fields, spec = formats.read_dataset(args.dataset), _split_spec(args)
    # A file stored standardized keeps its stats; a raw one takes its train split's.
    train_set, test_set = (split(fields, spec) if fields.norm_stats is not None
                           else split_standardized(fields, spec)[:2])
    del fields  # the mapped dataset; only a stored-standardized file's split views keep it
    need = _check_budget(args, train_set, args.patch_size, (args.latent_dim,))
    # Both autoencoding losses are taken before the value maps exist.
    series = patchify(train_set, args.patch_size)
    pod = fit_patch_pod(series, args.latent_dim)
    ae_loss_train = ae_loss(pod, series)
    del series  # the train split's patch vectors
    ae_loss_test = ae_loss(pod, patchify(test_set, args.patch_size))
    del test_set  # the standardized test split
    model = train_attention_model(
        train_set,
        args.patch_size,
        args.latent_dim,
        ridge_lambda=args.ridge_lambda,
        error_floor=args.error_floor,
        use_intercept=args.use_intercept,
        pod=pod,
    )
    formats.write_model(model, out / "model.lampmd")
    off_diag = model.pair_losses[~np.eye(model.n_patches, dtype=bool)]
    return ["model.lampmd"], {
        "ae_loss_train": ae_loss_train,
        "ae_loss_test": ae_loss_test,
        "pair_loss": {  # a one-patch grid has no pair
            "min": float(off_diag.min()),
            "median": float(np.median(off_diag)),
            "max": float(off_diag.max()),
        } if off_diag.size else None,
        "model_bytes": need,
    }


def cmd_reconstruct(args, out: Path) -> tuple[list[str], dict]:
    model = formats.read_model(args.model)
    raw = _load_raw(args.dataset)
    model.grid.check_fields(raw)
    _, test_raw = split(raw, _split_spec(args))
    test_norm = apply_stats(test_raw, model.norm_stats)
    mask, sigma2, test_in = _eval_input(args, test_raw, test_norm, model.grid)
    recon = reconstruct(model, test_in, mask, args.copy_through)
    sq = recon.data - test_norm.data
    sq *= sq
    losses = [float(v) for v in sq.mean(axis=(1, 2, 3))]
    formats.write_dataset(denormalize(recon), out / "recon.lampds")
    formats.write_csv(
        ["snapshot", "pred_loss"],
        [[i, v] for i, v in enumerate(losses)],
        out / "loss.csv",
    )
    images, ranges = _emit_field_images(
        out, args, {"truth": test_norm, "input": test_in, "recon": recon}, mask, model.grid
    )
    return ["recon.lampds", "loss.csv", *images], {
        "pred_loss_mean": float(np.mean(losses)),
        "pred_loss_median": float(np.median(losses)),
        **_eval_results(mask, sigma2, model.norm_stats, ranges),
    }


def cmd_sweep(args, out: Path) -> tuple[list[str], dict]:
    raw = _load_raw(args.dataset)
    axes = metrics.SweepAxes(
        patch_sizes=_numbers(args.patch_size, int),
        latent_dims=_numbers(args.latent_dim, int),
        snr_dbs=_numbers(args.snr_db, float),
        coverages=_numbers(args.coverage, float),
    )
    names = [f"sweep_snr{snr:g}_cov{cov:g}.ppm" for snr in axes.snr_dbs for cov in axes.coverages]
    if len(set(names)) < len(names):
        raise ValidationError(
            "--snr-db or --coverage values equal to 6 significant digits would "
            f"share heatmap file names: {names}"
        )
    # run_sweep's scoring holds per (coverage, arrangement) a job of 104 bytes (its
    # tuple, its int and two list slots) and one float64 loss per (N_e, SNR).
    per_arrangement = len(axes.coverages) * (104 + 8 * len(axes.latent_dims) * len(axes.snr_dbs))
    _within_budget(args, args.arrangements * per_arrangement,
                   f"scoring {args.arrangements} arrangements", "reduce --arrangements")
    train_raw = split(raw, _split_spec(args))[0]
    for p in axes.patch_sizes:  # run_sweep holds one patch size's models at a time
        try:
            PatchGrid(raw.height, raw.width, raw.components, p)
        except ValidationError:
            continue  # run_sweep records its cells as skipped
        _check_budget(args, train_raw, p, axes.latent_dims)
    result = metrics.run_sweep(
        raw,
        axes,
        n_arrangements=args.arrangements,
        seed=args.seed,
        split_spec=_split_spec(args),
        ridge_lambda=args.ridge_lambda,
        error_floor=args.error_floor,
        use_intercept=args.use_intercept,
        copy_through=args.copy_through,
    )
    # SweepCell's first four fields are its coordinates, its last the skip reason.
    columns = [f.name for f in dataclasses.fields(metrics.SweepCell)][:-1]
    formats.write_csv(
        columns, [[getattr(c, k) for k in columns] for c in result.cells], out / "sweep.csv"
    )
    skipped = [
        {**{k: getattr(c, k) for k in columns[:4]}, "reason": c.skip_reason}
        for c in result.cells
        if c.skip_reason
    ]
    # One PPM per (SNR, coverage): log10 median loss over the (P, N_e) grid,
    # a plane of the cells taken in their (P, N_e, SNR, coverage) order.
    loss = np.array([np.nan if c.median_pred_loss is None else
                     math.log10(max(c.median_pred_loss, 1e-300)) for c in result.cells])
    loss = loss.reshape(len(axes.patch_sizes), len(axes.latent_dims), len(names))
    for plane, name in enumerate(names):
        formats.write_heatmap(loss[:, :, plane], out / name, 16)
    return ["sweep.csv", *names], {"cells": len(result.cells), "skipped": skipped}


def cmd_power_map(args, out: Path) -> tuple[list[str], dict]:
    model = formats.read_model(args.model)
    power = predictive_power(model)
    formats.write_patch_map(power.values, model.grid, out / "power.csv")
    vmin, vmax = formats.write_heatmap(power.as_grid(), out / "power.ppm", model.grid.patch_size)
    return ["power.csv", "power.ppm"], {"vmin": vmin, "vmax": vmax}


def cmd_place_sensors(args, out: Path) -> tuple[list[str], dict]:
    model = formats.read_model(args.model)
    power = predictive_power(model)
    count = sensor_count(model.n_patches, args.coverage)  # checks --coverage beside --count too
    mask = place_sensors(power, count if args.count is None else args.count)
    formats.write_manifest(
        {
            "n_patches": mask.n_patches,
            "coverage": mask.coverage,
            "unmasked": list(mask.unmasked),
        },
        out / "sensors.json",
    )
    return ["sensors.json"], {"unmasked": list(mask.unmasked)}


def cmd_gappy(args, out: Path) -> tuple[list[str], dict]:
    raw = _load_raw(args.dataset)
    grid = PatchGrid(raw.height, raw.width, raw.components, args.patch_size)
    train_norm, test_norm, test_raw = split_standardized(raw, _split_spec(args))
    stats = train_norm.norm_stats
    mask, sigma2, test_in = _eval_input(args, test_raw, test_norm, grid)
    model = fit_gappy(train_norm, args.rank)
    recon = reconstruct_gappy(model, test_in, mask, grid, args.ridge_lambda)
    loss = pred_loss(recon, test_norm)
    formats.write_csv(["rank", "coverage", "snr_db", "pred_loss"],
                      [[args.rank, args.coverage, float(args.snr_db), loss]], out / "loss.csv")
    images, ranges = _emit_field_images(
        out, args, {"truth": test_norm, "input": test_in, "gappy": recon}, mask, grid
    )
    return ["loss.csv", *images], {
        "pred_loss": loss,
        **_eval_results(mask, sigma2, stats, ranges),
    }


def cmd_compare(args, out: Path) -> tuple[list[str], dict]:
    if args.place_sensors and args.sensors_from:
        raise ValidationError("give --place-sensors or --sensors-from, not both")
    model = formats.read_model(args.model)
    raw = _load_raw(args.dataset)
    model.grid.check_fields(raw)
    grid, stats = model.grid, model.norm_stats
    train_norm, test_norm, test_raw = split_standardized(raw, _split_spec(args), stats)
    power = predictive_power(model) if args.place_sensors else None
    mask, sigma2, test_in = _eval_input(args, test_raw, test_norm, grid, power)
    del raw, test_raw  # the dataset in raw units and its test view
    rank = args.rank if args.rank is not None else model.latent_dim
    # ``train_norm`` lives to the return: freed here, it raised glibc's mmap
    # threshold and a long-lived caller kept ~50 MB more heap resident.
    baseline = fit_gappy(train_norm, rank)
    lamp_recon = reconstruct(model, test_in, mask, args.copy_through)
    gappy_recon = reconstruct_gappy(baseline, test_in, mask, grid, args.ridge_lambda)
    lamp_loss = pred_loss(lamp_recon, test_norm)
    gappy_loss = pred_loss(gappy_recon, test_norm)
    ratio = lamp_loss / gappy_loss if gappy_loss > 0 else math.inf
    formats.write_csv(
        ["lamp_pred_loss", "gappy_pred_loss", "ratio"],
        [[lamp_loss, gappy_loss, ratio]],
        out / "compare.csv",
    )
    images, ranges = _emit_field_images(
        out,
        args,
        {"truth": test_norm, "input": test_in, "lamp": lamp_recon, "gappy": gappy_recon},
        mask,
        grid,
    )
    return ["compare.csv", *images], {
        "lamp_pred_loss": lamp_loss,
        "gappy_pred_loss": gappy_loss,
        "ratio": ratio,
        "rank": rank,
        **_eval_results(mask, sigma2, stats, ranges),
    }


def cmd_rerun(args) -> int:
    manifest = formats.read_manifest(args.manifest)
    if not isinstance(manifest, dict):
        raise FormatError(f"{args.manifest}: manifest is not a JSON object")
    try:
        command = manifest["command"]
        config = manifest["config"]
    except KeyError as exc:
        raise FormatError(f"{args.manifest}: manifest missing {exc}") from exc
    if not isinstance(command, str) or not isinstance(config, dict):
        raise FormatError(f"{args.manifest}: manifest command or config is malformed")
    if "out_dir" not in config:
        raise FormatError(f"{args.manifest}: manifest config has no out_dir")
    if args.out_dir is not None:
        config = {**config, "out_dir": args.out_dir}
    return main(_argv_from_config(command, config, args.manifest))


def _argv_from_config(command: str, config: dict, manifest: str) -> list[str]:
    """The command line a manifest records; each key is read off the subcommand's
    own option of that dest, and switches off its ``store_true`` / ``store_false`` flags.
    Every value must pass that option's own type and choices checks, and every
    required option must have one."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    if command == "rerun" or command not in commands.choices:
        raise FormatError(f"{manifest}: {command!r} is not an output-writing command")
    sub = commands.choices[command]
    options = {
        a.dest: a
        for a in sub._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    }
    missing = [key for key, a in options.items() if a.required and config.get(key) is None]
    if missing:
        raise FormatError(f"{manifest}: {command} config lacks required key {missing[0]!r}")
    argv = [command]
    for key, value in sorted(config.items()):
        if key not in options:
            raise FormatError(f"{manifest}: {command} has no option for config key {key!r}")
        option = options[key]
        if isinstance(option, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            if not isinstance(value, bool):
                raise FormatError(f"{manifest}: switch {key} must be true or false, got {value!r}")
            if value is option.const:
                argv.append(option.option_strings[0])
        elif value is not None:
            try:
                sub._get_values(option, [str(value)])
            except argparse.ArgumentError as exc:
                raise FormatError(f"{manifest}: config key {key!r}: {exc}") from exc
            # One token, so a value that begins with '-' is not read as an option.
            argv.append(f"{option.option_strings[0]}={value}")
    return argv


# Parser -----------------------------------------------------------------------

def _add_split_flags(sub):
    sub.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction)
    sub.add_argument("--test-fraction", type=float, default=SplitSpec.test_fraction)
    sub.add_argument("--gap-fraction", type=float, default=SplitSpec.gap_fraction)


def _add_fit_flags(sub):
    sub.add_argument("--ridge-lambda", type=float, default=None)
    sub.add_argument("--error-floor", type=float, default=DEFAULT_ERROR_FLOOR)
    sub.add_argument("--no-intercept", dest="use_intercept", action="store_false")
    sub.add_argument("--budget-bytes", type=int, default=DEFAULT_BUDGET_BYTES)


def _add_eval_flags(sub):
    sub.add_argument("--coverage", type=float, required=True,
                     help="fraction of patches left unmasked")
    sub.add_argument("--snr-db", default="inf",
                     help="signal-to-noise ratio in dB (inf = noise-free)")
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--sensors-from", default=None, metavar="POWERMAP",
                     help="place unmasked patches at the top values of this power-map CSV")
    sub.add_argument("--snapshot", type=int, default=0,
                     help="test-split snapshot index for emitted images")
    sub.add_argument("--component", type=int, default=0,
                     help="field component for emitted images")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamp",
        description="Masked flow reconstruction with patch-wise POD and "
        "closed-form latent attention.",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = subs.add_parser("generate", help="emit a synthetic dataset")
    gen.add_argument("--kind", choices=[LAMINAR, CHAOTIC], default=LAMINAR)
    gen.add_argument("--height", type=int, default=64)
    gen.add_argument("--width", type=int, default=64)
    gen.add_argument("--snapshots", type=int, default=160)
    gen.add_argument("--seed", type=_seed, default=0)
    # One flag per generator parameter, typed by its default (float if None).
    params = {f.name: f.default for kind in (LaminarParams, ChaoticParams)
              for f in dataclasses.fields(kind)}
    for name, default in params.items():
        if name == "decay":  # its default depends on the kind
            gen.add_argument("--decay", type=float, default=None,
                             help="amplitude decay exponent (defaults per kind)")
        else:
            gen.add_argument("--" + name.replace("_", "-"), default=default,
                             type=float if default is None else type(default))
    gen.add_argument("--budget-bytes", type=int, default=DEFAULT_BUDGET_BYTES)

    train = subs.add_parser("train", help="fit compression and attention tensors")
    train.add_argument("--dataset", required=True)
    train.add_argument("--patch-size", type=int, required=True)
    train.add_argument("--latent-dim", type=int, required=True)
    _add_fit_flags(train)
    _add_split_flags(train)

    rec = subs.add_parser("reconstruct", help="masked reconstruction of the test split")
    rec.add_argument("--dataset", required=True)
    rec.add_argument("--model", required=True)
    rec.add_argument("--no-copy-through", dest="copy_through", action="store_false")
    _add_eval_flags(rec)
    _add_split_flags(rec)

    sweep = subs.add_parser("sweep", help="median loss over (P, N_e, SNR, coverage)")
    sweep.add_argument("--dataset", required=True)
    sweep.add_argument("--patch-size", required=True, help="comma-separated list")
    sweep.add_argument("--latent-dim", required=True, help="comma-separated list")
    sweep.add_argument("--snr-db", default="inf", help="comma-separated list")
    sweep.add_argument("--coverage", default="0.1", help="comma-separated list")
    sweep.add_argument("--arrangements", type=int, default=25)
    sweep.add_argument("--seed", type=_seed, default=0)
    sweep.add_argument("--no-copy-through", dest="copy_through", action="store_false")
    _add_fit_flags(sweep)
    _add_split_flags(sweep)

    power = subs.add_parser("power-map", help="predictive power per source patch")
    power.add_argument("--model", required=True)

    place = subs.add_parser("place-sensors", help="unmask the highest-power patches")
    place.add_argument("--model", required=True)
    place.add_argument("--coverage", type=float, default=0.1)
    place.add_argument("--count", type=int, default=None,
                       help="explicit sensor count (overrides --coverage)")

    gappy = subs.add_parser("gappy", help="gappy-POD baseline reconstruction")
    gappy.add_argument("--dataset", required=True)
    gappy.add_argument("--patch-size", type=int, required=True,
                       help="patch size defining the pixel-level mask")
    gappy.add_argument("--rank", type=int, required=True)
    gappy.add_argument("--ridge-lambda", type=float, default=None)
    _add_eval_flags(gappy)
    _add_split_flags(gappy)

    comp = subs.add_parser("compare", help="attention model vs gappy POD on identical inputs")
    comp.add_argument("--dataset", required=True)
    comp.add_argument("--model", required=True)
    comp.add_argument("--rank", type=int, default=None,
                      help="gappy mode count (default: the model's latent dimension)")
    comp.add_argument("--ridge-lambda", type=float, default=None)
    comp.add_argument("--no-copy-through", dest="copy_through", action="store_false")
    comp.add_argument("--place-sensors", action="store_true",
                      help="unmask the model's highest-power patches instead of random ones")
    _add_eval_flags(comp)
    _add_split_flags(comp)

    rerun = subs.add_parser("rerun", help="replay a run from its manifest")
    rerun.add_argument("manifest")

    for name, sub in subs.choices.items():  # rerun defaults to the manifest's
        sub.add_argument("--out-dir", required=name != "rerun")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "rerun":
            return cmd_rerun(args)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # Looked up at call time, so a wrapper installed over a cmd_* function
        # after the parser was built is the one that runs.
        command = globals()["cmd_" + args.command.replace("-", "_")]
        outputs, results = command(args, out)
        payload = {
            "command": args.command,
            "config": _config(args),
            "format_versions": {
                "dataset": formats.DATASET_FORMAT,
                "model": formats.MODEL_FORMAT,
            },
            "outputs": sorted(outputs),
            "results": _jsonable(results),
        }
        formats.write_manifest(payload, out / "manifest.json")
        return 0
    except tuple(EXIT_CODES) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
