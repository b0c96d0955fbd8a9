"""Run one lamp benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload train-chaotic --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports ``lamp`` from ``src/``.  The
BLAS thread count is pinned before numpy is loaded.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it traces one pass of
the workload and reports the per-layer metrics instead.  Lines before
the last describe the run for a reader; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(workload, run: dict, checks, metrics: dict) -> None:
    """Readable lines: each metric under its per-workload name, with its unit
    and sample count."""
    import numpy as np  # loaded by now, after the thread variables were set

    lat = run["latencies"]
    m = {key: value for key, (value, _) in metrics.items()}
    print(f"setup_s          {m['setup_s']:.4f} s   (median of {len(run['setup'])} setups)")
    if run["requests"]:
        req = np.array(run["requests"]) * 1e3
        p50, p75 = np.median(req), np.percentile(req, 75)
        n, beyond = len(req), int(np.sum(req > p75))
        print(f"request_p50_ms   {p50:.2f} ms  (n={n} requests)")
        print(f"request_p75_ms   {p75:.2f} ms  (n={n}, {beyond} beyond)")
        print(f"requests_per_s   {n / req.sum() * 1e3:.3f} 1/s (n={n}, closed loop, 1 client)")
        label = workload.op_label
        print(f"{label}_p50_ms   {m['op_p50_ms']:.2f} ms  (n={len(lat)} {label}s of {workload.SESSION} requests)")
        print(f"{label}_p75_ms   {m['op_p75_ms']:.2f} ms  (n={len(lat)})")
    else:
        print(f"{workload.op_label:<16} {m['op_p50_ms'] / 1e3:.4f} s   (median of n={len(lat)} ops)")
    print(f"peak_rss_mb      {m['peak_rss_mb']:.1f} MB")
    if checks.losses:
        print(f"pred_loss        {checks.pred_loss():.6g} mse (geometric mean of {len(checks.losses)} losses)")
    print(f"pred_loss_ratio  {m['pred_loss_ratio']:.12g} (over the references, same inputs)")
    print(f"failed_frac      {checks.failed / checks.attempted:.4g}     ({checks.failed}/{checks.attempted} ops)")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "lamp" / "__init__.py").is_file():
        print(f"error: no lamp package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import environment
    import runner
    from workloads import WORKLOADS, Checks, input_set

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    refs_path = HERE / "references.json"
    references = json.loads(refs_path.read_text(encoding="utf-8"))["workloads"]
    workload = WORKLOADS[args.workload]()
    k = input_set(args.seed)
    checks = Checks(references[workload.name][str(k)])

    scratch_root = HERE / "_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        if args.trace:
            metrics = runner.traced_run(workload, k, checks, workdir)
            run = None
        else:
            run = runner.timed_run(workload, k, args.seconds, checks, workdir)
            metrics = runner.end_to_end(run, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"# perfbench {workload.name} seed={args.seed} input_set={k} trace={args.trace} "
          f"blas_threads={BLAS_THREADS}")
    print("# env " + json.dumps(environment.record(THREAD_VARS), sort_keys=True))
    if run is not None:
        _report(workload, run, checks, metrics)
    else:
        for key, (value, unit) in metrics.items():
            print(f"{key:<44} {value:.6g} {unit}")
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
