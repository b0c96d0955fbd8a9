"""The package's failure contract: its exception types, the CLI exit code of
each failure (:data:`EXIT_CODES`), the only handlers of LAPACK's error
(:func:`batched`, which names the matrix a LAPACK call over a stack failed on,
and :func:`cholesky`, which factors every ridge system under one singular rule)
and :func:`each`, which spreads work over the CPUs and fails in serial order.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class ValidationError(ValueError):
    """Invalid argument, geometry mismatch, or violated precondition."""


class FormatError(ValueError):
    """Malformed or unrecognized on-disk file content."""


class NumericalError(RuntimeError):
    """A linear-algebra routine failed (singular system, no convergence)."""


#: The CLI exit code of each failure: 2 validation (out of memory exits like a
#: request over ``--budget-bytes``), 3 I/O or file format, 4 numerical.
EXIT_CODES = {ValidationError: 2, MemoryError: 2, FormatError: 3, OSError: 3, NumericalError: 4}


def batched(op, mats, failure: str, labels=None):
    """``op(mats)`` for a LAPACK routine ``op`` over a stack of matrices.

    If the stack fails, the first matrix that fails alone raises
    ``NumericalError(failure.format(label))``, with ``label`` its entry of
    ``labels`` (default: its index); if none does, LAPACK's message is kept.
    """
    try:
        return op(mats)
    except np.linalg.LinAlgError as stacked:
        for label, mat in zip(range(len(mats)) if labels is None else labels, mats):
            try:
                op(mat)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(failure.format(label)) from exc
        raise NumericalError(f"{stacked}, though each matrix passes alone") from stacked


def cholesky(mats, failure: str, labels=None):
    """Lower Cholesky factors of a stack of ridge systems.  A matrix is singular
    if its factorization fails or a squared pivot is at most eps * its trace
    (eps the float64 machine epsilon: rounding); :func:`batched` names the first."""

    def factor(a):
        lower = np.linalg.cholesky(a)
        pivot2 = np.diagonal(lower, axis1=-2, axis2=-1).min(axis=-1) ** 2
        if np.any(pivot2 <= np.finfo(float).eps * np.trace(a, axis1=-2, axis2=-1)):
            raise np.linalg.LinAlgError("Cholesky pivot at rounding level")
        return lower

    return batched(factor, mats, failure, labels)


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
