"""The one factorization of every ridge system: ``errors.cholesky``."""

import numpy as np
import pytest

from lamp.errors import NumericalError, cholesky

EPS = np.finfo(np.float64).eps


def spd_stack(rng, n, e):
    a = rng.standard_normal((n, e, 2 * e))
    return a @ a.transpose(0, 2, 1) + np.eye(e)


def test_factors_are_numpys_lower_factors_bit_for_bit():
    mats = spd_stack(np.random.default_rng(1), 5, 4)
    np.testing.assert_array_equal(cholesky(mats, "{}"), np.linalg.cholesky(mats))


@pytest.mark.parametrize("pivot2, singular", [(0.5 * EPS, True), (EPS, True), (4.0 * EPS, False)])
def test_squared_pivot_at_most_eps_trace_is_singular(pivot2, singular):
    # diag(1, 1, pivot2) has squared pivots 1, 1 and pivot2, and a trace that
    # rounds to 2: the bound eps * trace is 2 * eps.
    mats = np.stack([np.eye(3), np.diag([1.0, 1.0, pivot2])])
    if singular:
        with pytest.raises(NumericalError, match="^system 1 is singular$"):
            cholesky(mats, "system {} is singular")
    else:
        assert cholesky(mats, "system {} is singular").shape == (2, 3, 3)


def test_first_singular_matrix_is_named_by_its_label():
    mats = spd_stack(np.random.default_rng(2), 4, 3)
    mats[3] = -np.eye(3)                       # fails in LAPACK
    mats[1] = np.diag([1.0, 1.0, 1e-20])       # passes LAPACK, rounding-level pivot
    with pytest.raises(NumericalError, match="^source 11 is singular$"):
        cholesky(mats, "source {} is singular", range(10, 14))


def test_a_single_system_takes_a_failure_without_label():
    gram = np.ones((2, 2))                     # rank one: its second pivot is rounding
    with pytest.raises(NumericalError, match="^normal matrix is singular$"):
        cholesky(gram[None], "normal matrix is singular")


def test_looks_up_numpys_cholesky_at_call_time(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    cholesky(spd_stack(np.random.default_rng(3), 2, 3), "{}")
    assert calls == [(2, 3, 3)]
