"""Tests of the benchmark itself, on workloads shrunk to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lamp import metrics  # noqa: E402

TINY = {
    "train-chaotic": lambda: workloads.TrainChaotic(configs=((16, 4, 2), (16, 2, 3)), snapshots=40),
    "sweep-laminar": lambda: workloads.SweepLaminar(
        side=16, snapshots=40, patch_sizes=(4, 8), latent_dims=(2,), snr_dbs=(math.inf, 20.0), arrangements=3
    ),
    "serve-cli": lambda: workloads.ServeCli(side=16, snapshots=40, patch_size=4, latent_dim=2, schedule=10),
}

# The layers each workload is expected to call.  Together they cover every
# traced function.
EXPECTED = {
    "train-chaotic": {
        "patches.normalize", "patches.patchify", "patches.unpatchify", "pod.fit_patch_pod",
        "pod.encode", "pod.decode", "attention.train_attention_model", "attention.fit_value_tensor",
        "attention.fit_attention_tensor", "attention.reconstruct", "synthetic.generate",
        "metrics.pred_loss",
    },
    "sweep-laminar": {
        "patches.normalize", "patches.apply_stats", "patches.patchify", "patches.unpatchify",
        "pod.fit_patch_pod", "pod.encode", "pod.decode", "pod.ae_loss",
        "attention.train_attention_model", "attention.fit_value_tensor",
        "attention.fit_attention_tensor", "attention.reconstruct", "synthetic.generate",
        "synthetic.add_noise_fixed", "metrics.run_sweep", "metrics.pred_loss",
    },
    "serve-cli": set(tracing.TRACED) - {"metrics.run_sweep"},
}


def _pass(workload, checks, tmp_path):
    runner.one_pass(workload, 3, checks, tmp_path, workload.round_ops)


def _reference(workload, tmp_path):
    checks = workloads.Checks(None)
    _pass(workload, checks, tmp_path)
    assert checks.failed == 0, checks.problems
    return checks.recorded


@pytest.mark.parametrize("name", sorted(TINY))
def test_rerun_matches_reference(name, tmp_path):
    workload = TINY[name]()
    reference = _reference(workload, tmp_path)
    checks = workloads.Checks(reference)
    _pass(workload, checks, tmp_path)
    assert checks.attempted >= 1
    assert checks.failed == 0, checks.problems


def test_perturbed_result_is_caught(tmp_path, monkeypatch):
    """A loss off by 1e-4 fails the check; one off by 1e-12 (reordered sums) does not."""
    workload = TINY["sweep-laminar"]()
    reference = _reference(workload, tmp_path)
    original = metrics.pred_loss
    for scale, expect_failures in ((1.0 + 1e-12, False), (1.0 + 1e-4, True)):
        monkeypatch.setattr(metrics, "pred_loss", lambda r, t, s=scale: original(r, t) * s)
        checks = workloads.Checks(reference)
        _pass(workload, checks, tmp_path)
        assert (checks.failed > 0) == expect_failures, (scale, checks.problems)


def test_exception_and_exit_code_count_as_failures(tmp_path, monkeypatch):
    workload = TINY["serve-cli"]()
    reference = _reference(workload, tmp_path)
    state = workload.setup(3, tmp_path, workloads.Checks(reference))
    checks = workloads.Checks(reference)
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "noise_variance_normalized", lambda *a: 1 / 0)
        workload.serve(state, 1, checks)  # raises out of cli.main
    assert (checks.attempted, checks.failed) == (1, 1)
    state["data"] = tmp_path / "missing"
    workload.serve(state, 1, checks)  # exit code 3: no dataset
    assert (checks.attempted, checks.failed) == (2, 2)
    workload.op(state, 0, checks)  # a session: every one of its requests fails
    assert (checks.attempted, checks.failed) == (2 + workload.SESSION, 2 + workload.SESSION)
    assert len(state["requests"]) == 2 + workload.SESSION


def test_close_tolerance():
    assert workloads.close({"a": [1.0, 2]}, {"a": [1.0 + 1e-9, 2]})
    assert not workloads.close({"a": [1.0, 2]}, {"a": [1.0 + 1e-5, 2]})
    assert not workloads.close({"a": [1.0]}, {"a": [1.0, 2.0]})
    assert not workloads.close(None, 0.5)
    assert not workloads.close(0.5, None)


def test_every_import_site_is_wrapped():
    from lamp import attention, pod

    tracer = tracing.Tracer()
    assert tracing.unwrapped_import_sites()  # nothing is wrapped yet
    tracer.install()
    try:
        assert tracing.unwrapped_import_sites() == []
        # attention binds encode by name; that binding must be a wrapper too.
        assert attention.encode.__lamp_traced__ is pod.encode.__lamp_traced__
    finally:
        tracer.uninstall()
    assert not hasattr(pod.encode, "__lamp_traced__")
    assert not hasattr(attention.encode, "__lamp_traced__")


def test_traced_runs_cover_every_layer(tmp_path):
    called = set()
    for name, make in TINY.items():
        checks = workloads.Checks(_reference(make(), tmp_path))
        layer = runner.traced_run(make(), 3, checks, tmp_path)
        assert checks.failed == 0, checks.problems
        calls = {q for q in tracing.TRACED if layer[f"{q}.calls"][0] > 0}
        assert EXPECTED[name] <= calls, EXPECTED[name] - calls
        called |= calls

        # Self times add up to the traced wall time: nothing is counted twice.
        self_total = sum(v for key, (v, _) in layer.items() if key.endswith(".self_s"))
        wall = layer["trace.wall_s"][0]
        assert self_total == pytest.approx(wall, rel=0.01)
        assert all(v >= 0 for key, (v, _) in layer.items() if key.endswith(".self_s"))

        formats_calls = sum(layer[f"formats.{f}.calls"][0] for f in tracing.LAYERS["formats"])
        assert (formats_calls > 0) == (name == "serve-cli")
        assert all(layer[f"{m}.errors"][0] == 0 for m in tracing.LAYERS)
        assert 0.0 < layer["pod.encode.useful_frac"][0] <= 1.0
        assert layer["attention.fit_value_tensor.gflop"][0] > 0
    assert called == set(tracing.TRACED)


def test_metrics_match_benchmark_json(tmp_path):
    """A timed run prints the end-to-end metrics and a traced run the
    per-layer ones, with the names and units BENCHMARK.json declares."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = TINY["train-chaotic"]()
    checks = workloads.Checks(_reference(workload, tmp_path))
    run = runner.timed_run(workload, 3, 0.0, checks, tmp_path)
    e2e = runner.end_to_end(run, checks)
    layer = runner.traced_run(workload, 3, checks, tmp_path)
    assert checks.failed == 0, checks.problems
    for declared, got in ((spec["end_to_end"], e2e), (spec["per_layer"], layer)):
        assert {m["name"]: m["unit"] for m in declared} == {k: unit for k, (_, unit) in got.items()}
    assert all(value > 0 for value, _ in e2e.values())
    assert e2e["pred_loss_ratio"][0] == pytest.approx(1.0, rel=1e-9)


def test_errors_are_counted_once_in_the_innermost_layer():
    from lamp import attention, errors

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(errors.ValidationError):  # raised by fit_patch_pod
            attention.train_attention_model(_tiny_train_set(), 4, 10**6)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    assert layer["attention.errors"][0] == 0
    assert layer["pod.errors"][0] == 1


def _tiny_train_set():
    from lamp import patches, synthetic

    raw = synthetic.generate(synthetic.FlowSpec(synthetic.CHAOTIC, 16, 16, 20, 1))
    return patches.normalize(raw, range(0, 15))
