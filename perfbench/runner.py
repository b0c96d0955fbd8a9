"""Timed and traced runs of one workload, and the metrics they produce."""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

import numpy as np

from tracing import ROOT, Tracer, unwrapped_import_sites
from workloads import Checks


def timed_run(workload, k: int, seconds: float, checks: Checks, workdir: Path) -> dict:
    """Set up ``setup_repeats`` times, then run ops in a closed loop.

    One client sends the next op when the previous one has finished.  Ops
    run in whole rounds of ``round_ops``, so every run has the same mix;
    rounds run until one more would not fit in ``seconds`` of op time.
    """
    setup_times = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        state = workload.setup(k, workdir, checks)
        setup_times.append(time.perf_counter() - start)
    latencies: list[float] = []
    rounds: list[float] = []
    while not rounds or sum(rounds) + statistics.median(rounds) <= seconds:
        done = len(latencies)
        latencies.extend(workload.op(state, done + i, checks) for i in range(workload.round_ops))
        rounds.append(sum(latencies[done:]))
    workload.finish(state, checks)
    return {"setup": setup_times, "latencies": latencies, "requests": state.get("requests", [])}


def end_to_end(run: dict, checks: Checks) -> dict[str, tuple[float, str]]:
    lat = np.array(run["latencies"])
    return {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "op_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "op_p75_ms": (float(np.percentile(lat, 75)) * 1e3, "ms"),
        "ops_per_s": (len(lat) / float(lat.sum()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pred_loss_ratio": (checks.pred_loss_ratio(), "ratio"),
    }


def one_pass(workload, k: int, checks: Checks, workdir: Path, ops: int) -> None:
    """One setup, ``ops`` ops and the untimed finish, none of it timed."""
    state = workload.setup(k, workdir, checks)
    for i in range(ops):
        workload.op(state, i, checks)
    workload.finish(state, checks)


def traced_run(workload, k: int, checks: Checks, workdir: Path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced pass between two untraced ones.

    A pass is one setup, one round of ops and the untimed finish.  The first
    pass, cut to one op, warms the process (allocator, lazy imports); the
    overhead is the traced pass's wall time minus that of the untraced pass
    after it.
    """
    one_pass(workload, k, checks, workdir, 1)

    tracer = Tracer()
    tracer.install()
    try:
        missing = unwrapped_import_sites()
        if missing:
            raise RuntimeError(f"traced functions left unwrapped: {missing}")
        start = time.perf_counter()
        root = tracer.open(ROOT)
        one_pass(workload, k, checks, workdir, workload.round_ops)
        tracer.close(root)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()

    start = time.perf_counter()
    one_pass(workload, k, checks, workdir, workload.round_ops)
    untraced = time.perf_counter() - start

    out = tracer.layer_metrics()
    out["trace.wall_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out
