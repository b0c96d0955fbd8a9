"""Record the reference outputs that benchmark runs are checked against.

    python3 perfbench/record.py [--workload NAME ...]

Runs one pass (one setup, one round of ops, the untimed finish) of each named
workload for every input set and merges the outputs into references.json.
Run it only on a commit whose outputs are known to be right: every later run
is judged against what it writes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, HERE, SRC, THREAD_VARS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from runner import one_pass
    from workloads import ATOL, POOL, RTOL, WORKLOADS, Checks

    path = HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    refs.update({"pool": POOL, "rtol": RTOL, "atol": ATOL})
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        recorded = {}
        for k in range(POOL):
            checks = Checks(None)
            (HERE / "_work").mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=HERE / "_work"))
            try:
                one_pass(workload, k, checks, workdir, workload.round_ops)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if checks.failed:
                raise SystemExit(f"{name} input set {k}: {checks.problems}")
            recorded[str(k)] = checks.recorded
            print(f"{name} input set {k}: {len(checks.recorded)} outputs", flush=True)
        refs["workloads"][name] = recorded
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
