"""The package's failure contract: its exception types, the CLI exit code of
each failure (:data:`EXIT_CODES`), and :func:`batched`, which names the
matrix that a LAPACK call over a stack of matrices failed on.
"""

import numpy as np


class ValidationError(ValueError):
    """Invalid argument, geometry mismatch, or violated precondition."""


class FormatError(ValueError):
    """Malformed or unrecognized on-disk file content."""


class NumericalError(RuntimeError):
    """A linear-algebra routine failed (singular system, no convergence)."""


#: The CLI exit code of each failure: 2 validation (out of memory exits like a
#: request over ``--budget-bytes``), 3 I/O or file format, 4 numerical.
EXIT_CODES = {ValidationError: 2, MemoryError: 2, FormatError: 3, OSError: 3,
              NumericalError: 4, np.linalg.LinAlgError: 4}


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
