"""Compare a git revision with the working tree on one benchmark workload.

    python3 scripts/bench_pairs.py --workload serve-cli --pairs 10 --seed 100 --rev HEAD

The revision is exported with ``git archive`` into a temporary directory, and
the working tree is copied into another one: its tracked files as they are on
disk, and its untracked files that are not ignored.  So both sides run from
fresh directories, with no caches or build leftovers of their own.  Each pair
runs ``perfbench/run.py`` once on the revision and once on the working tree
with the same seed (seeds ``--seed`` .. ``--seed + pairs - 1``);
the order inside a pair alternates, so slow drift of the machine does not
favour either side.  For every end-to-end metric of ``BENCHMARK.json`` it
prints the medians and quartiles of both sides, the parent's interquartile
range, the relative change of the medians, in how many pairs the working
tree was better, and a verdict against the metric's ``bound`` (see
:func:`verdict`): ``worse``, ``unresolved`` or ``ok``, then ``, gain`` when
the working tree wins at least 9 of every 10 pairs by more than the parent's
interquartile range.  It exits 1 when any run of either side is not correct or
has failed operations, and names those runs' seeds.  It also prints each
side's CPU count and BLAS thread variables, read from the runs' ``# env``
records, and warns when the runs differ in them: a time measured with another
CPU count or BLAS thread count does not compare.  Run it from the
repository root; nothing under ``perfbench/`` is modified.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored untracked files into ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        if name and (ROOT / name).is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {tree} (seed {seed}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")),
               None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env,
            **{k: v["value"] for k, v in result["metrics"].items()}}


def _machine(run: dict) -> str:
    """A run's CPU count and BLAS thread variables, from its ``# env`` record."""
    env = run.get("env") or {}
    threads = " ".join(f"{var}={'unset' if value is None else value}"
                       for var, value in sorted(env.get("blas_threads", {}).items()))
    return f"nproc {env.get('nproc', 'unknown')}, BLAS threads {threads or 'unknown'}"


def verdict(better: str, bound: float, base: list[float], head: list[float]) -> str:
    """The label a metric earns against its relative ``bound``.

    ``worse``: the head's median is worse than the base's by more than the
    bound.  ``unresolved``: not worse, but the base's IQR exceeds bound times
    its median and not every head run beats every base run.  ``ok``: neither.
    ``, gain`` follows when the head wins at least 9 of every 10 pairs (ties
    count for neither side) and its median is better by more than the base's
    IQR.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value is lower when better
    b, h = sign * np.array(base), sign * np.array(head)
    bq1, bmed, bq3 = np.percentile(b, [25, 50, 75])
    hmed = np.median(h)
    if hmed - bmed > bound * abs(bmed):
        label = "worse"
    elif bq3 - bq1 > bound * abs(bmed) and not h.max() < b.min():
        label = "unresolved"
    else:
        label = "ok"
    if 10 * np.sum(h < b) >= 9 * len(b) and bmed - hmed > bq3 - bq1:
        label += ", gain"
    return label


def _summary(name: str, better: str, bound: float, base: list[float], head: list[float]) -> str:
    b, h = np.array(base), np.array(head)
    bq1, bmed, bq3 = np.percentile(b, [25, 50, 75])
    hq1, hmed, hq3 = np.percentile(h, [25, 50, 75])
    wins = int(np.sum(h < b) if better == "lower" else np.sum(h > b))
    change = (hmed - bmed) / bmed * 100 if bmed else float("nan")
    return (f"{name:<16} base {bmed:11.4g} [{bq1:.4g}, {bq3:.4g}] IQR {bq3 - bq1:.4g}   "
            f"head {hmed:11.4g} [{hq1:.4g}, {hq3:.4g}]   {change:+6.1f} %   "
            f"wins {wins}/{len(b)} ({better} is better)   "
            f"{verdict(better, bound, base, head)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", type=Path,
                        help="also write every run's metrics, op counts and # env record here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree, head_tree = Path(tmp) / "base", Path(tmp) / "head"
        _export(args.rev, base_tree)
        _export_worktree(head_tree)
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                tree = base_tree if side == "base" else head_tree
                runs[side].append({"seed": seed, **_run(tree, args.workload, seed, args.seconds)})
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
                f"{side} op_p50 {runs[side][-1]['op_p50_ms']:.1f} ms "
                f"setup {runs[side][-1]['setup_s']:.3f} s" for side in ("base", "head")),
                flush=True)

    print(f"\n{args.workload}: {args.rev} (base) vs working tree (head), {args.pairs} pairs, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}; medians [quartiles]")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(_summary(name, metric["better"], metric["bound"], [r[name] for r in runs["base"]],
                       [r[name] for r in runs["head"]]))
    bad_runs = 0
    for side in ("base", "head"):
        incorrect = sum(not r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        bad_seeds = [r["seed"] for r in runs[side] if not r["correct"] or r["failed"]]
        print(f"{side}: {incorrect} incorrect runs, {failed} failed ops"
              + (f"; bad runs at seeds {bad_seeds}" if bad_seeds else ""))
        bad_runs += len(bad_seeds)
    machines = {side: sorted({_machine(r) for r in runs[side]}) for side in runs}
    for side, seen in machines.items():
        print(f"{side} env: " + " | ".join(seen))
    if len(set(machines["base"] + machines["head"])) > 1:
        print("warning: the runs differ in CPU count or BLAS threads, so their times do not compare")
    if args.json:
        args.json.write_text(json.dumps({"args": {**vars(args), "json": str(args.json)}, **runs},
                                        indent=1) + "\n", encoding="utf-8")
    return 1 if bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
