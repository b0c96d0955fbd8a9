"""Peak resident memory of one ``lamp`` command, a git revision against the working tree.

    python3 scripts/peak_rss.py --rev HEAD~ -- train --dataset data/dataset.lampds \\
        --patch-size 8 --latent-dim 16

The arguments after ``--`` are one ``lamp`` command without ``--out-dir``.  The
revision is exported with ``git archive`` and the working tree copied, as in
``scripts/bench_pairs.py``.  Each run is a fresh ``python -m lamp.cli`` process
with its side's ``src`` on ``PYTHONPATH``, started in the current directory (so a
relative path in the command names the same file for both sides), with
``--out-dir`` set to a new temporary directory and with the OpenBLAS, OpenMP and
MKL thread counts pinned to 1, as ``perfbench/run.py`` pins them.  A small
parent process starts it, waits for it and reports its
``getrusage(RUSAGE_CHILDREN).ru_maxrss``: the peak resident set of that one
command.  The sides alternate, ``RUNS`` runs each; each side's runs and median
are printed in MB (KiB / 1024, the unit of perfbench's ``peak_rss_mb``).  It
exits 1 when a run fails, with that run's stderr.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _export, _export_worktree

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUNS = 3  # fresh processes per side

#: Run ``argv[1:]`` as a child, then print its peak resident set in KiB and
#: exit with its code.  A spawned process's ``ru_maxrss`` starts at the
#: resident peak of the process that spawned it, so the command is started
#: from this bare interpreter, not from the caller (a test run can be 1 GB).
MEASURE = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def _measure(tree: Path, command: list[str], out_dir: Path) -> float:
    """Peak RSS in MB of ``lamp <command> --out-dir <out_dir>`` run from ``tree``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE, sys.executable, "-m", "lamp.cli", *command,
         "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"lamp {' '.join(command)} failed in {tree} "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return int(proc.stdout.split()[-1]) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("command", nargs="+", help="the lamp command, after --")
    args = parser.parse_args(argv)

    peaks: dict[str, list[float]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        _export(args.rev, trees["base"])
        _export_worktree(trees["head"])
        for i in range(RUNS):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                out_dir = Path(tmp) / f"out-{side}-{i}"
                peaks[side].append(_measure(trees[side], args.command, out_dir))
            print(f"run {i + 1}/{RUNS}: " + "  ".join(
                f"{side} {peaks[side][-1]:.1f} MB" for side in peaks), flush=True)

    print(f"\nlamp {' '.join(args.command)}: peak RSS, median of {RUNS} fresh processes")
    for side, label in (("base", f"{args.rev} (base)"), ("head", "working tree (head)")):
        print(f"{label}: {statistics.median(peaks[side]):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
