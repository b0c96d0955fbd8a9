"""Check that every CLI output of the working tree is byte-identical to a git revision's.

    python3 scripts/cli_identity.py --rev HEAD~

The revision is exported with ``git archive`` into a temporary directory
(the same export as ``scripts/bench_pairs.py``).  The fixed script in
``STEPS`` then runs in each tree, through ``python -m lamp.cli`` with that
tree's ``src`` on ``PYTHONPATH``, in a fresh run directory and with paths
relative to it: generate (laminar and chaotic, 32x32), train, reconstruct
(SNR inf and 20, with and without copy-through, with ``--sensors-from``),
a small sweep, power-map, place-sensors, gappy, compare (with
``--place-sensors`` and with ``--rank``), and then a rerun of every
manifest.  Every output file is compared byte for byte; a ``manifest.json``
is compared after the run directory's path is replaced by a placeholder.
It exits 1 and lists the differing files when any file differs, is missing
on one side, or a step fails.  Run it from the repository root; nothing in
the working tree is modified.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _export

LAMINAR = ["--dataset", "laminar/dataset.lampds"]
CHAOTIC = ["--dataset", "chaotic/dataset.lampds"]
EVAL = ["--coverage", "0.25", "--seed", "3"]

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
]


def run_script(tree: Path, run_dir: Path) -> list[str]:
    """Run every step, then a rerun of each step's manifest; return the failures."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    steps = [(out, [*argv, "--out-dir", out]) for out, argv in STEPS]
    steps += [(f"rerun-{out}", ["rerun", f"{out}/manifest.json", "--out-dir", f"rerun-{out}"])
              for out, _ in STEPS]
    failures = []
    for out, argv in steps:
        proc = subprocess.run([sys.executable, "-m", "lamp.cli", *argv], cwd=run_dir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"{tree}: step {out} exited {proc.returncode}: {proc.stderr.strip()}")
    return failures


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        base_tree, base_run, head_run = (Path(tmp) / name for name in ("tree", "base", "head"))
        _export(args.rev, base_tree)
        failures = []
        for tree, run_dir in ((base_tree, base_run), (ROOT, head_run)):
            run_dir.mkdir()
            failures += run_script(tree, run_dir)
        base, head = outputs(base_run), outputs(head_run)

    both = base.keys() & head.keys()
    differing = sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))
    for name in differing:
        print(f"{name}: " + ("differs" if name in both else
                             "only in base" if name in base else "only in head"))
    for failure in failures:
        print(failure)
    print(f"{args.rev} (base) vs working tree (head): {len(both)} files in both, "
          f"{len(differing)} differing, {len(failures)} failed steps")
    return 1 if differing or failures else 0


if __name__ == "__main__":
    sys.exit(main())
