"""Spans around the calls into each lamp layer, recorded from outside the package.

The layers are the package's modules.  Installing a ``Tracer`` rebinds every
module-level name in ``lamp`` that refers to a traced function, because the
modules import each other's functions by name (``attention`` does
``from .pod import encode``): wrapping only the defining module would miss
those calls.  ``unwrapped_import_sites`` checks that claim against the
source.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children nest
inside their parent and the self times of all spans under a root add up to
the root's duration.

Besides timings, the wrappers derive counts from argument shapes and masks:
floating-point work, bytes read and written, and the share of work that was
useful.  These are computed, not measured, and are labelled so.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "patches": ("normalize", "apply_stats", "patchify", "unpatchify"),
    "pod": ("fit_patch_pod", "encode", "decode", "ae_loss"),
    "attention": ("train_attention_model", "fit_value_tensor", "fit_attention_tensor", "reconstruct"),
    "synthetic": ("generate", "add_noise_fixed"),
    "metrics": ("run_sweep", "pred_loss"),
    "gappy": ("fit_gappy", "reconstruct_gappy"),
    "formats": ("read_dataset", "write_dataset", "read_model", "write_model", "write_ppm",
                "write_manifest", "write_csv"),
    "cli": ("cmd_generate", "cmd_train", "cmd_reconstruct", "cmd_compare"),
}
TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
ROOT = "bench"
# Spans whose arguments the counts of their children read.
_CALLER_ARGS = {"attention.reconstruct"}

# Counts derived from shapes, masks and file sizes (name -> unit).
COMPUTED = {
    "pod.encode.gflop": "GFLOP_computed",
    "pod.decode.gflop": "GFLOP_computed",
    "attention.fit_value_tensor.gflop": "GFLOP_computed",
    "formats.read_dataset.mb": "MB_computed",
    "formats.write_dataset.mb": "MB_computed",
    "formats.read_model.mb": "MB_computed",
    "formats.write_model.mb": "MB_computed",
    "pod.encode.useful_frac": "frac_computed",
    "synthetic.add_noise_fixed.useful_frac": "frac_computed",
}


def _value_fit_flop(t: int, n: int, e: int) -> float:
    """Flops of ``fit_value_tensor`` as written: cross Grams, N Cholesky
    factorizations and solves against N*e right-hand sides, N^2 pair
    predictions over T snapshots, and their squared errors."""
    grams = 2.0 * t * (n * e) ** 2
    solves = n * (e**3 / 3.0 + 2.0 * e * e * n * e)
    preds = n * (2.0 * n * t * e * e)
    errors = n * (3.0 * n * t * e)
    return grams + solves + preds + errors


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[tuple[int, dict | None]] = []  # (span index, bound args)
        self.sums: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # Spans -------------------------------------------------------------------

    def open(self, name: str, bound: dict | None = None) -> int:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append((len(self.spans) - 1, bound))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _caller(self) -> tuple[str | None, dict | None]:
        """Name and arguments of the innermost open span."""
        if not self._open:
            return None, None
        index, bound = self._open[-1]
        return self.spans[index][0], bound

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        durations = [end - start for _, start, end, _ in self.spans]
        own = list(durations)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= durations[i]
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, *_), value in zip(self.spans, own):
            totals[name] += value
            calls[name] += 1
        return totals, calls

    # Wrapping ----------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        module = qualname.split(".")[0]
        count = getattr(self, "_count_" + qualname.replace(".", "_"), None)
        needs_args = count is not None or qualname in _CALLER_ARGS
        signature = inspect.signature(fn) if needs_args else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if needs_args else None
            caller = self._caller() if count is not None else None
            index = self.open(qualname, bound)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, in the innermost layer it escaped from.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[module] += 1
                raise
            finally:
                self.close(index)
            if count is not None:
                count(bound, caller)
            return result

        traced.__lamp_traced__ = fn
        return traced

    def install(self) -> None:
        """Rebind every module-level reference to a traced function in lamp."""
        wrappers = {}
        for qualname in TRACED:
            module, name = qualname.split(".")
            fn = getattr(importlib.import_module(f"lamp.{module}"), name)
            wrappers[id(fn)] = (fn, self._wrap(qualname, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "lamp" and not modname.startswith("lamp."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # Computed counts ---------------------------------------------------------

    def _count_pod_encode(self, a, caller):
        n, d, e = a["model"].bases.shape
        t = a["series"].values.shape[0]
        self.sums["pod.encode.gflop"] += 2.0 * t * n * d * e / 1e9
        self.sums["pod.encode.total"] += t * n
        name, args = caller
        # reconstruct zeroes the masked rows and encodes them anyway.
        observed = len(args["mask"].unmasked) if name == "attention.reconstruct" else n
        self.sums["pod.encode.useful"] += t * observed

    def _count_pod_decode(self, a, caller):
        _, d, _ = a["model"].bases.shape
        t, n, e = a["latent"].values.shape
        self.sums["pod.decode.gflop"] += 2.0 * t * n * d * e / 1e9

    def _count_attention_fit_value_tensor(self, a, caller):
        t, n, e = a["latent"].values.shape
        self.sums["attention.fit_value_tensor.gflop"] += _value_fit_flop(t, n, e) / 1e9

    def _count_synthetic_add_noise_fixed(self, a, caller):
        if a["sigma2"] <= 0.0:
            return  # nothing drawn
        fields, grid = a["fields"], a["grid"]
        self.sums["synthetic.add_noise_fixed.total"] += fields.data.size
        per_patch = grid.patch_size**2 * grid.components
        observed = fields.snapshots * len(a["mask"].unmasked) * per_patch
        self.sums["synthetic.add_noise_fixed.useful"] += observed

    def _file_mb(self, key, path):
        self.sums[key] += os.path.getsize(path) / 1e6

    def _count_formats_read_dataset(self, a, caller):
        self._file_mb("formats.read_dataset.mb", a["path"])

    def _count_formats_write_dataset(self, a, caller):
        self._file_mb("formats.write_dataset.mb", a["path"])

    def _count_formats_read_model(self, a, caller):
        self._file_mb("formats.read_model.mb", a["path"])

    def _count_formats_write_model(self, a, caller):
        self._file_mb("formats.write_model.mb", a["path"])

    # Report ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit)."""
        totals, calls = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for qualname in TRACED:
            out[f"{qualname}.self_s"] = (totals.get(qualname, 0.0), "s")
            out[f"{qualname}.calls"] = (calls.get(qualname, 0), "count")
        s = self.sums
        for key, unit in COMPUTED.items():
            if key.endswith(".useful_frac"):
                base = key[: -len(".useful_frac")]
                total = s[base + ".total"]
                out[key] = (s[base + ".useful"] / total if total else 1.0, unit)  # nothing done, nothing wasted
            else:
                out[key] = (s[key], unit)
        for module in LAYERS:
            out[f"{module}.errors"] = (self.errors.get(module, 0), "count")
        out[f"{ROOT}.self_s"] = (totals.get(ROOT, 0.0), "s")
        return out


def unwrapped_import_sites() -> list[str]:
    """Names in lamp's source bound to a traced function but not to a wrapper.

    Reads every ``from .module import name`` in the package source, plus each
    defining module, and looks each binding up in the live modules.  Call it
    while a tracer is installed; an empty list means every site is wrapped.
    """
    import lamp

    traced = {tuple(q.split(".")) for q in TRACED}
    sites = [(module, name, name) for module, name in traced]
    for path in sorted(Path(lamp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        here = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if (node.module, alias.name) in traced:
                        sites.append((here, alias.asname or alias.name, f"{node.module}.{alias.name}"))
    missing = []
    for here, attr, what in sites:
        modname = "lamp" if here == "__init__" else f"lamp.{here}"
        value = getattr(importlib.import_module(modname), attr)
        if not hasattr(value, "__lamp_traced__"):
            missing.append(f"{modname}.{attr} ({what})")
    return missing
