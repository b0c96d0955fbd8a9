"""The machine and libraries a result was measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy
import scipy


def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the layout of show_config varies between releases
        return {"name": "unknown", "version": "unknown", "error": repr(exc)}
    return {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def record(thread_vars: tuple[str, ...]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
    }
