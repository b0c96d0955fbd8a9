"""Check that every CLI output of the working tree is byte-identical to a git revision's.

    python3 scripts/cli_identity.py --rev HEAD~

The revision is exported with ``git archive`` into a temporary directory
(the same export as ``scripts/bench_pairs.py``).  The fixed script in
``STEPS`` then runs in each tree, through ``python -m lamp.cli`` with that
tree's ``src`` on ``PYTHONPATH``, in a fresh run directory and with paths
relative to it: generate (laminar and chaotic, 32x32), train, reconstruct
(SNR inf and 20, with and without copy-through, with ``--sensors-from``),
a chaotic 64x64 training whose fits split into several target and source
blocks and a reconstruction with it, a small sweep and one whose cells are
skipped for each of the three reasons, power-map, place-sensors, gappy, compare (with
``--place-sensors`` and with ``--rank``), and then a rerun of every
manifest.  Then ``SWEEPS`` runs the ``sweep-laminar`` benchmark's sweep
(64x64, T=160, 36 cells, 25 arrangements) on its input sets 0, 3, 7 and 11,
with the benchmark's seeds, once with copy-through and once without.  Every
output file is compared byte for byte; a ``manifest.json`` is compared after
the run directory's path is replaced by a placeholder, and each differing
cell of a ``sweep.csv`` is printed with its coordinates, both
``median_pred_loss`` values and their relative change.
Then each step of ``FAILING`` runs, steps that must fail: malformed numbers
and power maps, a power map over another grid, singular fits, a one-patch
power map, a missing dataset and a malformed rerun manifest.  Of each, the
exit code and the last ``error:`` line of stderr (the run directory masked
the same way) are compared; the lines before it can be warnings, which carry
source paths.  Of a differing CSV or manifest it prints the largest relative
difference of its numbers (CSV cells, numeric manifest leaves), or why they
cannot be paired, and of a manifest also the keys whose values differ.
With ``--cpus N`` every ``lamp`` process of the working tree is pinned to N
of the usable CPUs (``os.sched_setaffinity`` in the child), so its outputs
are compared at another CPU count than the revision's.  Each
side reads its ``.lampds`` datasets and ``.lampmd`` models with its own
``lamp.formats``, in a subprocess with its tree's ``src`` on ``PYTHONPATH``,
so a change of binary layout still compares the numbers: of a differing
binary file it prints whether its arrays and header fields are identical
and, if not, which differ and by how much.  Each tree's parser is read too
(see ``OPTION_TABLES``): of every subcommand, each option's option strings,
dest, type, default, required flag, choices and help are compared, and each
differing option is printed.  Each tree's per-module ``src/`` line counts
are printed side by side.  It exits 1 and lists the differences when any
file differs or is missing on one side, a step of ``STEPS`` fails, a step of
``FAILING`` exits 0, a failing step differs, or an option differs.  Run it
from the repository root; nothing in the working tree is modified.  It takes about 75 s on a
2-vCPU VM with OpenBLAS at 1 thread, most of it in the sixteen benchmark
sweeps, and a few seconds more for each differing binary file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from bench_pairs import ROOT, _export

LAMINAR = ["--dataset", "laminar/dataset.lampds"]
CHAOTIC = ["--dataset", "chaotic/dataset.lampds"]
CHAOTIC64 = ["--dataset", "chaotic64/dataset.lampds"]
EVAL = ["--coverage", "0.25", "--seed", "3"]
COORDINATES = ["patch_size", "latent_dim", "snr_db", "coverage"]  # the key of a sweep.csv row
BINARY = (".lampds", ".lampmd")

#: Run with a tree's ``src`` on ``PYTHONPATH``: read the dataset or model
#: ``argv[1]`` with that tree's ``lamp.formats`` and save its header fields and
#: arrays, in file order, to the ``.npz`` file ``argv[2]``.  An automatic ridge
#: is saved as NaN.
READ_FIELDS = """
import sys
import numpy as np
from lamp.formats import read_dataset, read_model
path, out = sys.argv[1:]
if path.endswith(".lampds"):
    d = read_dataset(path)
    t, h, w, c = d.data.shape
    stats = {} if d.norm_stats is None else {"mean": d.norm_stats.mean, "std": d.norm_stats.std}
    fields = {"H, W, C, T": (h, w, c, t), "normalized": bool(stats), **stats, "values": d.data}
else:
    m = read_model(path)
    g = m.grid
    fields = {"H, W, C, P, N_e": (g.height, g.width, g.components, g.patch_size, m.latent_dim),
              "intercept": m.use_intercept,
              "ridge_lambda": np.nan if m.ridge_lambda is None else m.ridge_lambda,
              "error_floor": m.error_floor, "mean": m.norm_stats.mean, "std": m.norm_stats.std,
              "bases": m.pod.bases, "singular_values": m.pod.singular_values,
              "value_maps": m.value_maps, "attn_vectors": m.attn_vectors,
              "attn_intercepts": m.attn_intercepts, "pair_losses": m.pair_losses}
np.savez(out, **fields)
"""

#: Run with a tree's ``src`` on ``PYTHONPATH``: print as JSON each subcommand's
#: options, keyed by their option strings (a positional by its dest), each as
#: [dest, type, default, required, choices, help] with type, default and
#: choices as text.  Option order is not compared.
OPTION_TABLES = """
import argparse, json
from lamp.cli import build_parser
subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(json.dumps({command: {" ".join(a.option_strings) or a.dest: [
    a.dest, getattr(a.type, "__name__", repr(a.type)), repr(a.default), a.required,
    repr(a.choices), a.help] for a in sub._actions} for command, sub in subs.choices.items()}))
"""

#: (output directory, lamp arguments); each step writes into its own directory.
STEPS = [
    ("laminar", ["generate", "--kind", "laminar-surrogate", "--height", "32", "--width", "32",
                 "--snapshots", "80", "--seed", "7"]),
    ("chaotic", ["generate", "--kind", "chaotic-surrogate", "--height", "32", "--width", "32",
                 "--snapshots", "120", "--seed", "7"]),
    ("model-laminar", ["train", *LAMINAR, "--patch-size", "8", "--latent-dim", "4"]),
    ("model-chaotic", ["train", *CHAOTIC, "--patch-size", "4", "--latent-dim", "8"]),
    ("recon-inf", ["reconstruct", *LAMINAR, "--model", "model-laminar/model.lampmd", *EVAL]),
    ("recon-20", ["reconstruct", *LAMINAR, "--model", "model-laminar/model.lampmd", *EVAL,
                  "--snr-db", "20"]),
    ("recon-inf-nocopy", ["reconstruct", *LAMINAR, "--model", "model-laminar/model.lampmd",
                          *EVAL, "--no-copy-through"]),
    ("recon-20-nocopy", ["reconstruct", *CHAOTIC, "--model", "model-chaotic/model.lampmd",
                         *EVAL, "--snr-db", "20", "--no-copy-through"]),
    ("sweep", ["sweep", *LAMINAR, "--patch-size", "8,16", "--latent-dim", "2,4",
               "--snr-db", "inf,20", "--coverage", "0.25,0.5", "--arrangements", "3",
               "--seed", "5"]),
    # Skips of every kind: P=12 does not divide 32, N_e=70 is over T_train,
    # and without copy-through coverage 0.25 observes one of P=16's 4 patches.
    ("sweep-skips", ["sweep", *LAMINAR, "--patch-size", "8,12,16", "--latent-dim", "2,70",
                     "--snr-db", "inf,20", "--coverage", "0.25,0.5", "--arrangements", "3",
                     "--seed", "5", "--no-copy-through"]),
    ("power", ["power-map", "--model", "model-chaotic/model.lampmd"]),
    ("sensors", ["place-sensors", "--model", "model-chaotic/model.lampmd", "--coverage", "0.1"]),
    ("recon-placed", ["reconstruct", *CHAOTIC, "--model", "model-chaotic/model.lampmd", *EVAL,
                      "--snr-db", "20", "--sensors-from", "power/power.csv"]),
    ("gappy", ["gappy", *CHAOTIC, "--patch-size", "4", "--rank", "6", *EVAL,
               "--snr-db", "20"]),
    ("compare-placed", ["compare", *CHAOTIC, "--model", "model-chaotic/model.lampmd", *EVAL,
                        "--place-sensors"]),
    ("compare-rank", ["compare", *CHAOTIC, "--model", "model-chaotic/model.lampmd", *EVAL,
                      "--snr-db", "20", "--rank", "5"]),
    # 64x64 at P=4: 256 patches, so the fits split into 8 target blocks and
    # 20 source blocks, which run on every usable CPU.
    ("chaotic64", ["generate", "--kind", "chaotic-surrogate", "--height", "64", "--width", "64",
                   "--snapshots", "400", "--seed", "7"]),
    ("model-chaotic64", ["train", *CHAOTIC64, "--patch-size", "4", "--latent-dim", "8"]),
    ("recon-chaotic64", ["reconstruct", *CHAOTIC64, "--model", "model-chaotic64/model.lampmd",
                         *EVAL, "--snr-db", "20"]),
    ("laminar-1", ["generate", "--kind", "laminar-surrogate", "--height", "32", "--width", "32",
                   "--snapshots", "80", "--seed", "1"]),
    ("model-one-patch", ["train", *LAMINAR, "--patch-size", "32", "--latent-dim", "4"]),
]


def derive(k: int, j: int) -> int:
    """Seed ``j`` of input set ``k``, derived as the benchmark derives its inputs."""
    return int(np.random.SeedSequence([k, j]).generate_state(1)[0])


def sweep_steps() -> list[tuple[str, list[str]]]:
    """The ``sweep-laminar`` benchmark's sweep on its input sets 0, 3, 7 and 11,
    each with copy-through on and off."""
    axes = ["--patch-size", "8,16,32", "--latent-dim", "2,4,8", "--snr-db", "inf,30,20,10",
            "--coverage", "0.1", "--arrangements", "25"]
    steps = []
    for k in (0, 3, 7, 11):
        steps.append((f"laminar64-{k}", ["generate", "--kind", "laminar-surrogate", "--height",
                                         "64", "--width", "64", "--snapshots", "160",
                                         "--seed", str(derive(k, 0))]))
        for suffix, flags in (("", []), ("-nocopy", ["--no-copy-through"])):
            steps.append((f"sweep64-{k}{suffix}", ["sweep", "--dataset",
                                                   f"laminar64-{k}/dataset.lampds", *axes,
                                                   "--seed", str(derive(k, 1)), *flags]))
    return steps


#: (output directory, lamp arguments) of the benchmark sweeps, run after
#: ``STEPS`` and their reruns and not rerun themselves.
SWEEPS = sweep_steps()

#: (output directory, lamp arguments) of steps that must fail, run after
#: ``STEPS`` and after :func:`write_malformed_inputs`.
FAILING = [
    ("fail-snr", ["reconstruct", *LAMINAR, "--model", "model-laminar/model.lampmd", *EVAL,
                  "--snr-db", "abc"]),
    ("fail-sweep-coverage", ["sweep", *LAMINAR, "--patch-size", "8", "--latent-dim", "2",
                             "--coverage", "abc"]),
    ("fail-power-rows", ["reconstruct", *CHAOTIC, "--model", "model-chaotic/model.lampmd", *EVAL,
                         "--sensors-from", "power-4-rows.csv"]),
    ("fail-power-index", ["reconstruct", *CHAOTIC, "--model", "model-chaotic/model.lampmd",
                          *EVAL, "--sensors-from", "power-bad-index.csv"]),
    ("fail-power-grid", ["reconstruct", *CHAOTIC, "--model", "model-chaotic/model.lampmd",
                         *EVAL, "--sensors-from", "power-4x16-grid.csv"]),
    # Seed 0 observes one patch outside the wake, whose modes vanish to rounding.
    ("fail-gappy-singular", ["gappy", "--dataset", "laminar-1/dataset.lampds", "--patch-size",
                             "8", "--rank", "4", "--coverage", "0.07", "--seed", "0",
                             "--ridge-lambda", "0"]),
    # The same mask on the seed-7 dataset: LAPACK may pass its Cholesky, the pivot rule does not.
    ("fail-gappy-singular-7", ["gappy", *LAMINAR, "--patch-size", "8", "--rank", "4",
                               "--coverage", "0.07", "--seed", "0", "--ridge-lambda", "0"]),
    ("fail-power-one-patch", ["power-map", "--model", "model-one-patch/model.lampmd"]),
    ("fail-missing-dataset", ["train", "--dataset", "missing.lampds", "--patch-size", "8",
                              "--latent-dim", "4"]),
    ("fail-train-singular", ["train", *LAMINAR, "--patch-size", "8", "--latent-dim", "4",
                             "--ridge-lambda", "0"]),
    ("fail-rerun-manifest", ["rerun", "malformed-manifest.json"]),
]


def write_malformed_inputs(run_dir: Path) -> None:
    """The power maps and the manifest that steps of ``FAILING`` read."""
    with open(run_dir / "power" / "power.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    edits = {"power-4-rows.csv": rows[:4],
             "power-bad-index.csv": [{**rows[0], "patch_index": "x"}, *rows[1:]],
             # The 64 patches of the 8x8 model grid, placed as on a 4x16 grid.
             "power-4x16-grid.csv": [{**row, "row": i // 16, "col": i % 16}
                                     for i, row in enumerate(rows)]}
    for name, edited in edits.items():
        with open(run_dir / name, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(edited)
    manifest = {"command": "power-map", "config": {"model": "m", "bogus": 1, "out_dir": "o"}}
    (run_dir / "malformed-manifest.json").write_text(json.dumps(manifest))


def run_script(tree: Path, run_dir: Path, cpus: set[int] | None = None
               ) -> tuple[list[str], dict[str, tuple[int, str]]]:
    """Run every step, then a rerun of each step's manifest, then the benchmark
    sweeps, then the failing steps; each ``lamp`` process pinned to ``cpus``
    if given.

    Returns the failures of all but the failing steps and, for each failing
    step, its exit code and its last ``error:`` line.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))

    def lamp(argv):
        return subprocess.run([sys.executable, "-m", "lamp.cli", *argv], cwd=run_dir, env=env,
                              capture_output=True, text=True, preexec_fn=pin)

    steps = [(out, [*argv, "--out-dir", out]) for out, argv in STEPS]
    steps += [(f"rerun-{out}", ["rerun", f"{out}/manifest.json", "--out-dir", f"rerun-{out}"])
              for out, _ in STEPS]
    steps += [(out, [*argv, "--out-dir", out]) for out, argv in SWEEPS]
    failures = []
    for out, argv in steps:
        proc = lamp(argv)
        if proc.returncode != 0:
            failures.append(f"{tree}: step {out} exited {proc.returncode}: {proc.stderr.strip()}")
    write_malformed_inputs(run_dir)
    failed = {}
    for out, argv in FAILING:
        proc = lamp([*argv, "--out-dir", out])
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        failed[out] = (proc.returncode, errors[-1].replace(str(run_dir), "<run>") if errors else "")
        if proc.returncode == 0:
            failures.append(f"{tree}: failing step {out} exited 0")
    return failures, failed


def outputs(run_dir: Path) -> dict[str, bytes]:
    """Every file under ``run_dir`` by relative path; manifests with the run path masked."""
    files = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = data.replace(str(run_dir).encode(), b"<run>")
            files[path.relative_to(run_dir).as_posix()] = data
    return files


def numbers(path: Path) -> list[float] | None:
    """The numbers of a CSV or manifest file, in file order; None for other files."""
    if path.suffix == ".csv":
        found = []
        with open(path, newline="") as handle:
            for cell in (cell for row in csv.reader(handle) for cell in row):
                try:
                    found.append(float(cell))
                except ValueError:  # a header or a skip reason
                    pass
        return found
    if path.name == "manifest.json":
        found, stack = [], [json.loads(path.read_text())]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                stack.extend(node[key] for key in sorted(node, reverse=True))
            elif isinstance(node, list):
                stack.extend(reversed(node))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found.append(float(node))
        return found
    return None


def largest_relative_difference(base: Path, head: Path) -> str:
    """How far the numbers of two versions of a file are apart, as one phrase."""
    try:
        a, b = numbers(base), numbers(head)
    except (ValueError, OSError) as exc:  # bad JSON or UTF-8 on one side
        return f"numbers unreadable ({exc})"
    if a is None:
        return "no numbers compared"
    return relative_difference(np.array(a, dtype=float), np.array(b, dtype=float))


def relative_difference(a: np.ndarray, b: np.ndarray) -> str:
    """The largest relative difference of two equally long number vectors, as one phrase."""
    if len(a) != len(b):
        return f"{len(a)} numbers in base, {len(b)} in head"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):  # Inf against a finite number reads NaN, then Inf
        rel = np.where(same, 0.0, np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))
    worst = float(np.nan_to_num(rel, nan=np.inf).max(initial=0.0))
    return f"largest relative difference {worst:.2g} over {len(a)} numbers"


def binary_fields(tree: Path, path: Path, scratch: Path) -> dict[str, np.ndarray]:
    """The header fields and arrays of a dataset or model, read by ``tree``'s own
    ``lamp.formats`` (see ``READ_FIELDS``); ValueError with its last error line."""
    out = scratch / "fields.npz"
    proc = subprocess.run([sys.executable, "-c", READ_FIELDS, str(path), str(out)],
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError((proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1])
    with np.load(out) as saved:
        return {name: saved[name] for name in saved.files}


def binary_difference(base: tuple[Path, Path], head: tuple[Path, Path], scratch: Path) -> str:
    """Whether the fields of a dataset or model, each a (tree, path) read by its
    tree, are identical, as one phrase; if not, which differ and by how much."""
    try:
        a, b = binary_fields(*base, scratch), binary_fields(*head, scratch)
    except ValueError as exc:
        return f"fields unreadable ({exc})"
    if a.keys() != b.keys():
        return f"fields {', '.join(a)} in base, {', '.join(b)} in head"
    differ = [name for name in a if not np.array_equal(a[name], b[name], equal_nan=True)]
    if not differ:
        return "arrays and header fields identical"
    flat = [np.concatenate([np.ravel(side[name]).astype(float) for name in side]) for side in (a, b)]
    return f"fields {', '.join(differ)} differ, {relative_difference(*flat)}"


def manifest_key_differences(base: bytes, head: bytes) -> list[str]:
    """The dotted keys of the leaves in which two manifests, as compared, differ."""

    def leaves(node, key=""):
        if isinstance(node, dict):
            return {k: v for name in node for k, v in leaves(node[name], f"{key}.{name}").items()}
        return {key.lstrip("."): node}

    a, b = (leaves(json.loads(text)) for text in (base, head))
    return sorted(key for key in a.keys() | b.keys()
                  if key not in a or key not in b or a[key] != b[key])


def sweep_cell_differences(base: Path, head: Path) -> list[str]:
    """One line per differing cell of two ``sweep.csv`` files: its coordinates,
    both ``median_pred_loss`` values and their relative change."""

    def cells(path):
        with open(path, newline="") as handle:
            return {tuple(row[k] for k in COORDINATES): row for row in csv.DictReader(handle)}

    a, b = cells(base), cells(head)
    lines = []
    for key in [*a, *(key for key in b if key not in a)]:
        if a.get(key) == b.get(key):
            continue
        where = ", ".join(f"{name}={value}" for name, value in zip(COORDINATES, key))
        if key not in a or key not in b:
            lines.append(f"  cell {where}: only in {'base' if key in a else 'head'}")
            continue
        old, new = a[key]["median_pred_loss"], b[key]["median_pred_loss"]
        change = (f"{(float(new) - float(old)) / abs(float(old)):+.2g}"
                  if old and new and float(old) else "n/a")
        lines.append(f"  cell {where}: median_pred_loss {old or 'none'} (base) "
                     f"{new or 'none'} (head), relative change {change}")
    return lines


def option_tables(tree: Path) -> dict[str, dict[str, list]]:
    """Each subcommand's options as ``tree``'s own parser declares them (see ``OPTION_TABLES``)."""
    proc = subprocess.run([sys.executable, "-c", OPTION_TABLES],
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def option_differences(base: dict, head: dict) -> list[str]:
    """One line per option that differs between two trees' option tables, or is in one only."""
    lines = []
    for command in sorted(base.keys() | head.keys()):
        a, b = base.get(command, {}), head.get(command, {})
        for option in sorted(a.keys() | b.keys()):
            if a.get(option) != b.get(option):
                lines.append(f"option {command} {option}: base {a.get(option)} != "
                             f"head {b.get(option)}")
    return lines


def line_counts(tree: Path) -> dict[str, int]:
    """Lines of each module under ``tree``'s ``src/``, by path relative to it."""
    return {path.relative_to(tree / "src").as_posix(): len(path.read_bytes().splitlines())
            for path in sorted((tree / "src").rglob("*.py"))}


def print_line_counts(base: dict[str, int], head: dict[str, int]) -> None:
    """The two trees' ``src/`` line counts side by side, with their change and total."""
    print(f"{'src/ lines':32} {'base':>6} {'head':>6} {'change':>7}")
    rows = [(name, base.get(name, 0), head.get(name, 0))
            for name in sorted(base.keys() | head.keys())]
    rows.append(("total", sum(base.values()), sum(head.values())))
    for name, a, b in rows:
        print(f"  {name:30} {a:6} {b:6} {b - a:+7}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--cpus", type=int, metavar="N",
                        help="pin the working tree's lamp processes to N of the usable CPUs")
    args = parser.parse_args(argv)
    usable = sorted(os.sched_getaffinity(0))
    if args.cpus is not None and not 1 <= args.cpus <= len(usable):
        parser.error(f"--cpus must be in [1, {len(usable)}]")
    head_cpus = None if args.cpus is None else set(usable[:args.cpus])

    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        base_tree, base_run, head_run = (Path(tmp) / name for name in ("tree", "base", "head"))
        _export(args.rev, base_tree)
        tables = [option_tables(tree) for tree in (base_tree, ROOT)]
        counts = [line_counts(tree) for tree in (base_tree, ROOT)]
        failures, failed = [], []
        for tree, run_dir, cpus in ((base_tree, base_run, None), (ROOT, head_run, head_cpus)):
            run_dir.mkdir()
            tree_failures, tree_failed = run_script(tree, run_dir, cpus)
            failures += tree_failures
            failed.append(tree_failed)
        base, head = outputs(base_run), outputs(head_run)
        both = base.keys() & head.keys()
        differing = sorted(name for name in base.keys() | head.keys()
                           if base.get(name) != head.get(name))
        for name in differing:
            if name not in both:
                print(f"{name}: only in {'base' if name in base else 'head'}")
            elif Path(name).suffix in BINARY:
                print(f"{name}: differs, " + binary_difference(
                    (base_tree, base_run / name), (ROOT, head_run / name), Path(tmp)))
            else:
                print(f"{name}: differs, "
                      f"{largest_relative_difference(base_run / name, head_run / name)}")
            if name in both and Path(name).name == "sweep.csv":
                for line in sweep_cell_differences(base_run / name, head_run / name):
                    print(line)
            if name in both and Path(name).name == "manifest.json":
                keys = manifest_key_differences(base[name], head[name])
                print(f"  keys differing: {', '.join(keys) or 'none'}")
    failing_differ = [out for out, _ in FAILING if failed[0][out] != failed[1][out]]
    for out in failing_differ:
        print(f"failing step {out}: base {failed[0][out]} != head {failed[1][out]}")
    for failure in failures:
        print(failure)
    options_differ = option_differences(*tables)
    for line in options_differ:
        print(line)
    print_line_counts(*counts)
    pinned = "" if head_cpus is None else f" on {args.cpus} CPU{'s' * (args.cpus > 1)}"
    print(f"{args.rev} (base) vs working tree (head{pinned}): {len(both)} files in both, "
          f"{len(differing)} differing, {len(failures)} failed steps, "
          f"{len(failing_differ)} of {len(FAILING)} failing steps differing, "
          f"{len(options_differ)} option-table differences across "
          f"{len(tables[0].keys() | tables[1].keys())} subcommands")
    return 1 if differing or failures or failing_differ or options_differ else 0


if __name__ == "__main__":
    sys.exit(main())
