"""The verdict ``scripts/bench_pairs.py`` prints for each end-to-end metric.

``main`` runs in-process with the exports and the benchmark runs faked, so
each case fixes the metric values of every pair and reads back the label.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def verdicts(monkeypatch, capsys, values: dict[str, tuple[list[float], list[float]]]) -> dict:
    """Run ``main`` over 10 pairs whose metrics take ``values[name] = (base, head)``
    (one value per pair; 1.0 on both sides for a metric not given), and return
    each metric's printed verdict."""
    pairs = 10
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "_export_worktree", lambda dest: None)

    def fake_run(tree, workload, seed, seconds):
        side = 0 if tree.name == "base" else 1
        return {"correct": True, "failed": 0,
                **{m["name"]: values.get(m["name"], ([1.0] * pairs,) * 2)[side][seed]
                   for m in METRICS}}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    assert bench_pairs.main(["--workload", "w", "--pairs", str(pairs), "--rev", "r"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return {m["name"]: next(line for line in lines if line.startswith(m["name"] + " "))
            .rsplit("better)", 1)[1].strip() for m in METRICS}


BASE = [100.0] * 10


@pytest.mark.parametrize(
    "base, head, label",
    [
        (BASE, [110.0] * 10, "ok"),                           # worse, but within the 25 % bound
        (BASE, [126.0] * 10, "worse"),                        # beyond it
        ([60.0, 80.0, 100.0, 120.0, 140.0] * 2, [100.0] * 10, "unresolved"),  # IQR 40 > 25
        ([60.0, 80.0, 100.0, 120.0, 140.0] * 2, [50.0] * 10, "ok, gain"),     # every head run wins
        (BASE, [90.0] * 9 + [110.0], "ok, gain"),             # 9 wins of 10
        (BASE, [90.0] * 8 + [110.0] * 2, "ok"),               # 8 wins of 10
        (BASE, [90.0] * 8 + [100.0] * 2, "ok"),               # ties count for neither side
        (BASE, [99.9] * 10, "ok, gain"),                      # any margin beyond an IQR of 0
        ([98.0, 102.0] * 5, [97.0] * 10, "ok"),               # 10 wins, not beyond the IQR of 4
    ],
    ids=["ok", "worse", "unresolved", "unresolved-beaten", "gain-9-of-10", "no-gain-8-of-10",
         "ties", "gain-small", "no-gain-within-iqr"],
)
def test_lower_is_better(monkeypatch, capsys, base, head, label):
    assert verdicts(monkeypatch, capsys, {"op_p50_ms": (base, head)})["op_p50_ms"] == label


@pytest.mark.parametrize(
    "head, label",
    [([0.74] * 10, "worse"), ([0.8] * 10, "ok"), ([1.1] * 9 + [0.9], "ok, gain")],
    ids=["worse", "ok", "gain"],
)
def test_higher_is_better(monkeypatch, capsys, head, label):
    assert verdicts(monkeypatch, capsys, {"ops_per_s": ([1.0] * 10, head)})["ops_per_s"] == label


def test_every_metric_gets_a_verdict(monkeypatch, capsys):
    assert set(verdicts(monkeypatch, capsys, {}).values()) == {"ok"}


@pytest.mark.parametrize("head_nproc, warned", [(2, False), (1, True)])
def test_env_of_each_side_printed_and_a_difference_warned(monkeypatch, capsys, head_nproc,
                                                          warned):
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "_export_worktree", lambda dest: None)

    def fake_run(tree, workload, seed, seconds):
        nproc = 2 if tree.name == "base" else head_nproc
        env = {"nproc": nproc, "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}}
        return {"correct": True, "failed": 0, "env": env, **{m["name"]: 1.0 for m in METRICS}}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    assert bench_pairs.main(["--workload", "w", "--pairs", "2", "--rev", "r"]) == 0
    out = capsys.readouterr().out
    threads = "BLAS threads OMP_NUM_THREADS=unset OPENBLAS_NUM_THREADS=1"
    assert f"base env: nproc 2, {threads}" in out
    assert f"head env: nproc {head_nproc}, {threads}" in out
    assert ("warning: the runs differ in CPU count or BLAS threads" in out) is warned
