"""The package's failure contract: its exception types, the CLI exit code of
each failure (:data:`EXIT_CODES`), the only handler of LAPACK's error
(:func:`lapack`, which runs one routine on one matrix), the one ridge solve
(:func:`solve`, which factors each system under one singular rule) and
:func:`each`, which spreads work over the CPUs and fails in serial order.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cho_solve


class ValidationError(ValueError):
    """Invalid argument, geometry mismatch, or violated precondition."""


class FormatError(ValueError):
    """Malformed or unrecognized on-disk file content."""


class NumericalError(RuntimeError):
    """A linear-algebra routine failed (singular system, no convergence)."""


#: The CLI exit code of each failure: 2 validation (out of memory exits like a
#: request over ``--budget-bytes``), 3 I/O or file format, 4 numerical.
EXIT_CODES = {ValidationError: 2, MemoryError: 2, FormatError: 3, OSError: 3, NumericalError: 4}


def lapack(op, a, failure: str):
    """``op(a)`` for a LAPACK routine ``op`` on one matrix; its failure raises
    ``NumericalError(failure)``."""
    try:
        return op(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(failure) from exc


def solve(mats, rhs, failure: str, labels=None):
    """The solutions of the ridge systems ``mats[i] x = rhs[i]``, one system at
    a time.  A system is singular if its Cholesky factorization fails or a
    squared pivot is at most eps * its trace (eps the float64 machine epsilon:
    rounding); the first raises ``NumericalError(failure.format(label))``, with
    ``label`` its entry of ``labels`` (default: its index).
    """
    labels = range(len(mats)) if labels is None else labels
    out = np.empty(np.shape(rhs))
    for i, (a, label) in enumerate(zip(mats, labels)):
        message = failure.format(label)
        lower = lapack(np.linalg.cholesky, a, message)
        if np.diagonal(lower).min() ** 2 <= np.finfo(float).eps * np.trace(a):
            raise NumericalError(message)
        out[i] = cho_solve((lower, True), rhs[i])
    return out


def each(fn, items) -> None:
    """``fn(item)`` for every item, in one contiguous share of ``items`` per
    usable CPU: the first share on the calling thread, the others on a pool
    made for this call.  Once a share raises, the shares after it start no
    further item; the failure raised is the one the serial loop would meet
    first, and no thread outlives the call.  With one CPU or one item no pool
    is made.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares = max(1, min(cpus or 1, len(items)))
    failed = [False] * shares  # the shares that have raised

    def run(i):
        try:
            for item in items[len(items) * i // shares : len(items) * (i + 1) // shares]:
                if any(failed[:i]):
                    return
                fn(item)
        except BaseException:
            failed[i] = True
            raise

    if shares == 1:
        return run(0)
    with ThreadPoolExecutor(shares - 1) as pool:
        futures = [pool.submit(run, i) for i in range(1, shares)]
        run(0)
        for future in futures:
            future.result()
