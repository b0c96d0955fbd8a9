"""The benchmark's workloads: inputs made from the seed, timed operations, checks.

Every workload object has the same shape:

* ``setup(k, workdir, checks)`` builds the inputs of input set ``k`` and
  returns them; the runner times it as ``setup_s``.
* ``op(state, i, checks)`` runs operation ``i``, checks its outputs and returns
  the seconds the program spent on it (the checks are not timed).
* ``finish(state, checks)`` runs untimed quality work after the timed loop.

The library is always called through its module attributes
(``attention.train_attention_model``), so a tracer that rebinds those
attributes sees the benchmark's calls as well as the package's own.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from lamp import attention, cli, metrics, patches, synthetic

# Distinct input sets.  Workload seed n uses input set n % POOL, for which
# references.json holds the outputs recorded from the seed commit.
POOL = 16

# Outputs must match the recorded ones to this relative tolerance: a
# reordered sum moves them by ~1e-15 to 1e-9 (after ridge solves with
# condition numbers up to ~1e8), a wrong answer by far more.
RTOL = 1e-6
ATOL = 1e-12


def input_set(seed: int) -> int:
    return seed % POOL


def derive(k: int, *keys: int) -> int:
    """A child seed for one input of input set ``k``."""
    return int(np.random.SeedSequence([k, *keys]).generate_state(1)[0])


def close(got, want) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close(got[key], want[key]) for key in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            close(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float) or isinstance(got, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (got, want))
        return numbers and math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    return got == want


class Checks:
    """Counts operations and compares their outputs with recorded references.

    With ``reference=None`` nothing is compared: the outputs are recorded, so
    the same workload code produces references.json.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.recorded: dict = {}
        self.losses: dict[str, tuple[float, float | None]] = {}  # (loss, reference)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def output(self, key: str, got) -> None:
        """One operation finished; ``got`` is its JSON-like output."""
        self.attempted += 1
        if self.reference is None:
            self.recorded[key] = got
            return
        want = self.reference.get(key)
        if want is None or not close(got, want):
            self.failed += 1
            self.problems.append(f"{key}: got {got!r}, expected {want!r}")

    def error(self, key: str, what: str, count: int = 1) -> None:
        """``count`` operations failed with an exception or a nonzero exit."""
        self.attempted += count
        self.failed += count
        self.problems.append(f"{key}: {what}")

    def loss(self, key: str, value: float, field: str | None = None) -> None:
        """A reconstruction loss: output ``key``, or its ``field`` if given."""
        want = None if self.reference is None else self.reference.get(key)
        if field is not None:
            want = want.get(field) if isinstance(want, dict) else None
            key = f"{key}/{field}"
        self.losses[key] = (float(value), want)

    def pred_loss(self) -> float:
        """Geometric mean of the distinct losses the workload produced."""
        return _geomean([value for value, _ in self.losses.values()])

    def pred_loss_ratio(self) -> float:
        """Geometric mean of each loss over its reference on the same input.

        A loss without a reference belongs to an output that already failed
        its check, so with none at all the run is not correct; 1 is reported.
        """
        ratios = [v / w for v, w in self.losses.values() if isinstance(w, float) and w > 0]
        return _geomean(ratios) if ratios else 1.0


def _geomean(values: list[float]) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _digest_indices(results: dict) -> dict:
    """Manifest results with the observed-patch list replaced by its digest.

    The list is compared exactly either way; the digest keeps
    references.json small.
    """
    out = dict(results)
    if "unmasked" in out:
        out["unmasked"] = hashlib.sha256(json.dumps(out["unmasked"]).encode()).hexdigest()[:16]
    return out


def _pair_loss_summary(model) -> dict:
    off = model.pair_losses[~np.eye(model.n_patches, dtype=bool)]
    return {
        "min": float(off.min()),
        "median": float(np.median(off)),
        "max": float(off.max()),
    }


class TrainChaotic:
    """Closed-form training at N=256 patches, where the value fit dominates."""

    name = "train-chaotic"
    op_label = "train_s"  # what the report calls one op
    setup_repeats = 3
    round_ops = 1

    def __init__(self, configs=((64, 4, 8), (128, 8, 16)), snapshots=400, coverage=0.1):
        self.configs = configs  # (side, P, N_e)
        self.snapshots = snapshots
        self.coverage = coverage

    def setup(self, k: int, workdir: Path, checks: Checks):
        sets = []
        for j, (side, _, _) in enumerate(self.configs):
            spec = synthetic.FlowSpec(synthetic.CHAOTIC, side, side, self.snapshots, derive(k, 0, j))
            raw = synthetic.generate(spec)
            norm = patches.normalize(raw, patches.SplitSpec().train_range(raw.snapshots))
            sets.append(patches.split(norm))
        return {"k": k, "sets": sets, "models": [None] * len(self.configs)}

    def op(self, state, i: int, checks: Checks) -> float:
        """Train every configured model; one op is the whole set of trainings."""
        elapsed = 0.0
        for j, ((side, p, ne), (train, _)) in enumerate(zip(self.configs, state["sets"])):
            key = f"train/{side}/P{p}/E{ne}"
            start = time.perf_counter()
            try:
                model = attention.train_attention_model(train, p, ne)
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed += time.perf_counter() - start
                checks.error(key, repr(exc))
                continue
            elapsed += time.perf_counter() - start
            state["models"][j] = model
            checks.output(key, _pair_loss_summary(model))
        return elapsed

    def finish(self, state, checks: Checks) -> None:
        """Untimed quality guard: reconstruct each test split at a fixed mask."""
        for j, ((side, p, ne), (_, test)) in enumerate(zip(self.configs, state["sets"])):
            model = state["models"][j]
            key = f"recon/{side}/P{p}/E{ne}"
            if model is None:
                checks.error(key, "no trained model")
                continue
            mask = attention.MaskSpec.random(model.n_patches, self.coverage, derive(state["k"], 1, j))
            try:
                loss = metrics.pred_loss(attention.reconstruct(model, test, mask), test)
            except Exception as exc:
                checks.error(key, repr(exc))
                continue
            checks.output(key, loss)
            checks.loss(key, loss)


class SweepLaminar:
    """The acceptance sweep: 9 trainings and a long masked-inference loop."""

    name = "sweep-laminar"
    op_label = "sweep_s"
    setup_repeats = 25  # generation takes ~6 ms, so take many
    round_ops = 1

    def __init__(
        self,
        side=64,
        snapshots=160,
        patch_sizes=(8, 16, 32),
        latent_dims=(2, 4, 8),
        snr_dbs=(math.inf, 30.0, 20.0, 10.0),
        coverage=0.1,
        arrangements=25,
    ):
        self.side = side
        self.snapshots = snapshots
        self.axes = metrics.SweepAxes(patch_sizes, latent_dims, snr_dbs, (coverage,))
        self.arrangements = arrangements

    @property
    def cells(self) -> int:
        a = self.axes
        return len(a.patch_sizes) * len(a.latent_dims) * len(a.snr_dbs) * len(a.coverages)

    def setup(self, k: int, workdir: Path, checks: Checks):
        spec = synthetic.FlowSpec(synthetic.LAMINAR, self.side, self.side, self.snapshots, derive(k, 0))
        return {"k": k, "raw": synthetic.generate(spec)}

    def op(self, state, i: int, checks: Checks) -> float:
        """One full sweep; every cell counts as one checked operation."""
        start = time.perf_counter()
        try:
            result = metrics.run_sweep(
                state["raw"], self.axes, n_arrangements=self.arrangements, seed=derive(state["k"], 1)
            )
        except Exception as exc:
            elapsed = time.perf_counter() - start
            checks.error("sweep", repr(exc), count=self.cells)
            return elapsed
        elapsed = time.perf_counter() - start
        for cell in result.cells:
            key = f"cell/P{cell.patch_size}/E{cell.latent_dim}/S{cell.snr_db}/C{cell.coverage}"
            checks.output(
                key,
                {
                    "median_pred_loss": cell.median_pred_loss,
                    "ae_loss": cell.ae_loss,
                    "noise_variance": cell.noise_variance,
                    "skip_reason": cell.skip_reason,
                },
            )
            if cell.median_pred_loss is not None:
                checks.loss(key, cell.median_pred_loss, "median_pred_loss")
        return elapsed

    def finish(self, state, checks: Checks) -> None:
        pass


class ServeCli:
    """Closed-loop CLI requests against a model and dataset on disk.

    One op is a session of ``SESSION`` consecutive requests: one compare and
    three reconstructs at each coverage.  Single requests fall into clusters
    by coverage, and their median lies on the edge of one, where it jumps
    between runs; every session has the same mix, so session times do not.
    The per-request latencies are kept in ``state["requests"]``.
    """

    name = "serve-cli"
    op_label = "session"
    setup_repeats = 3
    coverages = (0.05, 0.1, 0.25)
    snr_dbs = ("inf", "30", "20", "10")
    SESSION = 10

    def __init__(self, side=64, snapshots=400, patch_size=4, latent_dim=8, schedule=80):
        if schedule % self.SESSION:
            raise ValueError(f"schedule {schedule} is not a whole number of {self.SESSION}-request sessions")
        self.side = side
        self.snapshots = snapshots
        self.patch_size = patch_size
        self.latent_dim = latent_dim
        self.schedule = schedule  # one full cycle of distinct requests
        self.round_ops = schedule // self.SESSION

    def _cli(self, key: str, argv: list[str], checks: Checks, out: Path) -> tuple[float, dict | None]:
        """Run one CLI command in-process; check exit code and manifest results."""
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            checks.error(key, repr(exc))
            return elapsed, None
        elapsed = time.perf_counter() - start
        if code != 0:
            checks.error(key, f"exit code {code}")
            return elapsed, None
        try:
            results = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["results"]
        except (OSError, ValueError, KeyError) as exc:
            checks.error(key, f"unreadable manifest: {exc!r}")
            return elapsed, None
        checks.output(key, _digest_indices(results))
        return elapsed, results

    def setup(self, k: int, workdir: Path, checks: Checks):
        data, model, req = workdir / "data", workdir / "model", workdir / "request"
        self._cli(
            "generate",
            ["generate", "--kind", synthetic.CHAOTIC, "--height", str(self.side), "--width", str(self.side),
             "--snapshots", str(self.snapshots), "--seed", str(derive(k, 0)), "--out-dir", str(data)],
            checks, data,
        )
        self._cli(
            "train",
            ["train", "--dataset", str(data / "dataset.lampds"), "--patch-size", str(self.patch_size),
             "--latent-dim", str(self.latent_dim), "--out-dir", str(model)],
            checks, model,
        )
        return {"k": k, "data": data, "model": model, "out": req, "requests": []}

    def request(self, k: int, i: int) -> tuple[str, list[str]]:
        """The i-th request of the schedule (it repeats every ``schedule``)."""
        i %= self.schedule
        command = "compare" if i % 10 == 9 else "reconstruct"
        cov, snr = self.coverages[i % 3], self.snr_dbs[i % 4]
        key = f"{i:02d}/{command}/C{cov}/S{snr}"
        return key, [command, "--coverage", str(cov), "--snr-db", snr, "--seed", str(derive(k, 1, i))]

    def op(self, state, i: int, checks: Checks) -> float:
        """Session ``i``: requests ``SESSION * i`` to ``SESSION * (i + 1) - 1``."""
        return sum(self.serve(state, self.SESSION * i + j, checks) for j in range(self.SESSION))

    def serve(self, state, i: int, checks: Checks) -> float:
        """Request ``i``; its latency is also appended to ``state["requests"]``."""
        key, argv = self.request(state["k"], i)
        argv = [*argv, "--dataset", str(state["data"] / "dataset.lampds"),
                "--model", str(state["model"] / "model.lampmd"), "--out-dir", str(state["out"])]
        elapsed, results = self._cli(key, argv, checks, state["out"])
        if results is not None:
            for name in ("pred_loss_mean", "lamp_pred_loss", "gappy_pred_loss"):
                if name in results:
                    checks.loss(key, results[name], name)
        state["requests"].append(elapsed)
        return elapsed

    def finish(self, state, checks: Checks) -> None:
        pass


WORKLOADS = {w.name: w for w in (TrainChaotic, SweepLaminar, ServeCli)}
