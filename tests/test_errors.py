"""The one ridge solve, ``errors.solve``, with ``errors.lapack`` the one
handler of a LAPACK routine's failure, and the one ordered helper that
spreads work over the usable CPUs, ``errors.each``."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import cho_solve

from lamp import (
    FlowSpec,
    MaskSpec,
    SweepAxes,
    attention,
    errors,
    fit_gappy,
    generate,
    reconstruct_gappy,
    run_sweep,
    train_attention_model,
)
from lamp.errors import NumericalError, each, solve
from lamp.patches import PatchGrid, SnapshotSet, normalize

EPS = np.finfo(np.float64).eps


def spd_stack(rng, n, e):
    a = rng.standard_normal((n, e, 2 * e))
    return a @ a.transpose(0, 2, 1) + np.eye(e)


def test_solutions_are_cho_solve_of_numpys_factors_bit_for_bit():
    rng = np.random.default_rng(1)
    mats, rhs = spd_stack(rng, 5, 4), rng.standard_normal((5, 4, 7))
    got = solve(mats, rhs, "{}")
    for a, b, x in zip(mats, rhs, got):
        np.testing.assert_array_equal(x, cho_solve((np.linalg.cholesky(a), True), b))


@pytest.mark.parametrize("pivot2, singular", [(0.5 * EPS, True), (EPS, True), (4.0 * EPS, False)])
def test_squared_pivot_at_most_eps_trace_is_singular(pivot2, singular):
    # diag(1, 1, pivot2) has squared pivots 1, 1 and pivot2, and a trace that
    # rounds to 2: the bound eps * trace is 2 * eps.
    mats, rhs = np.stack([np.eye(3), np.diag([1.0, 1.0, pivot2])]), np.ones((2, 3, 1))
    if singular:
        with pytest.raises(NumericalError, match="^system 1 is singular$"):
            solve(mats, rhs, "system {} is singular")
    else:
        assert solve(mats, rhs, "system {} is singular").shape == (2, 3, 1)


def test_first_singular_matrix_is_named_by_its_label():
    mats = spd_stack(np.random.default_rng(2), 4, 3)
    mats[3] = -np.eye(3)                       # fails in LAPACK
    mats[1] = np.diag([1.0, 1.0, 1e-20])       # passes LAPACK, rounding-level pivot
    with pytest.raises(NumericalError, match="^source 11 is singular$"):
        solve(mats, np.ones((4, 3, 2)), "source {} is singular", range(10, 14))
    with pytest.raises(NumericalError, match="^source 13 is singular$") as info:
        solve(mats[2:], np.ones((2, 3, 2)), "source {} is singular", range(12, 14))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_a_single_system_takes_a_failure_without_label():
    gram = np.ones((2, 2))                     # rank one: its second pivot is rounding
    with pytest.raises(NumericalError, match="^normal matrix is singular$"):
        solve(gram[None], np.ones((1, 2, 3)), "normal matrix is singular")


def test_looks_up_numpys_cholesky_at_call_time(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    solve(spd_stack(np.random.default_rng(3), 2, 3), np.ones((2, 3, 1)), "{}")
    assert calls == [(3, 3), (3, 3)]


def test_every_lapack_call_takes_one_matrix(monkeypatch):
    calls = []

    def record(owner, name):
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            if name == "cho_solve":  # cho_solve((factor, lower), b)
                calls.append((name, args[0][0].ndim, args[1].ndim))
            else:
                calls.append((name, args[0].ndim))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)

    for name in ("cholesky", "eigh", "svd"):
        record(np.linalg, name)
    record(errors, "cho_solve")

    # Training in source blocks of three, with four dead patches that take
    # the SVD fallback.
    t, side, p = 24, 16, 4
    fields = normalize(SnapshotSet(np.random.default_rng(4).standard_normal((t, side, side, 2))),
                       range(t))
    data = fields.data.copy()
    data[:, :p, :] *= 1e-60
    n = (side // p) ** 2
    monkeypatch.setattr(attention, "_SOURCE_BLOCK_BYTES", 3 * 8 * n * t)
    train_attention_model(SnapshotSet(data, norm_stats=fields.norm_stats), p, 3)

    # The gappy baseline, fitted and applied.
    grid = PatchGrid(side, side, 2, p)
    reconstruct_gappy(fit_gappy(fields, 5), fields, MaskSpec.random(n, 0.5, 0), grid)

    # A sweep over one patch size.
    axes = SweepAxes(patch_sizes=(8,), latent_dims=(2,), coverages=(0.5,))
    run_sweep(generate(FlowSpec("laminar-surrogate", 32, 32, 40, seed=1)), axes,
              n_arrangements=1)

    assert {call[0] for call in calls} == {"cholesky", "eigh", "svd", "cho_solve"}
    assert all(ndim == 2 for call in calls for ndim in call[1:]), sorted(set(calls))


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("count", [1, 3, 4, 9])
def test_each_item_runs_once_in_contiguous_shares(monkeypatch, count):
    cpus(monkeypatch, count)
    threads = {}

    def record(item):
        assert item not in threads
        threads[item] = threading.current_thread()

    each(record, range(7))
    assert sorted(threads) == list(range(7))
    # One share per CPU, at most one per item, each on one thread; the first
    # on the calling thread.
    shares = min(count, 7)
    bounds = [7 * i // shares for i in range(shares + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        assert {threads[i] for i in range(lo, hi)} == {threads[lo]}
    assert threads[0] is threading.main_thread()
    assert all(threads[lo] is not threading.main_thread() for lo in bounds[1:-1])


def test_earlier_share_failure_wins_over_an_earlier_failure_in_time(monkeypatch):
    # Items 0..7 in four shares of two.  Item 6 (fourth share) fails first in
    # time; item 3 (second share) fails after it and is raised, as in a loop.
    cpus(monkeypatch, 4)
    started = threading.active_count()
    failed_later = threading.Event()

    def work(item):
        if item == 3:
            failed_later.wait(timeout=5)
            raise NumericalError("item 3")
        if item == 6:
            failed_later.set()
            raise NumericalError("item 6")

    with pytest.raises(NumericalError, match="^item 3$"):
        each(work, range(8))
    assert failed_later.is_set()
    assert threading.active_count() == started


def pool_shutdown_event(monkeypatch):
    """An event set when ``each``'s pool starts to shut down: after the calling
    thread's share has returned or raised, and after any failure it met."""
    shutting = threading.Event()

    class Recording(ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shutting.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(errors, "ThreadPoolExecutor", Recording)
    return shutting


def test_calling_threads_share_failure_waits_for_the_others(monkeypatch):
    # Items 0..3 in two shares; item 0 fails while item 2 runs.  The call
    # waits for item 2 to end, and the second share starts no further item.
    cpus(monkeypatch, 2)
    shutting = pool_shutdown_event(monkeypatch)
    started, both_running, done = threading.active_count(), threading.Barrier(2), []

    def work(item):
        if item in (0, 2):
            both_running.wait(timeout=5)
        if item == 0:
            raise NumericalError("item 0")
        if item == 2:
            assert shutting.wait(timeout=5)
        done.append(item)

    with pytest.raises(NumericalError, match="^item 0$"):
        each(work, range(4))
    assert done == [2]
    assert threading.active_count() == started


def test_later_share_starts_no_item_after_an_earlier_share_fails(monkeypatch):
    # Items 0..5 in three shares of two.  Item 2 (second share) fails while
    # item 4 (third share) runs; item 4 ends only once the pool shuts down,
    # after the second share's failure is taken, and item 5 never starts.
    cpus(monkeypatch, 3)
    shutting = pool_shutdown_event(monkeypatch)
    both_running, done = threading.Barrier(2), []

    def work(item):
        if item in (2, 4):
            both_running.wait(timeout=5)
        if item == 2:
            raise NumericalError("item 2")
        if item == 4:
            assert shutting.wait(timeout=5)
        done.append(item)

    with pytest.raises(NumericalError, match="^item 2$"):
        each(work, range(6))
    assert sorted(done) == [0, 1, 4]


def test_earlier_share_runs_all_its_items_and_its_failure_wins(monkeypatch):
    # Item 2 (second share) fails first; the first share still runs items 0
    # and 1, and item 1's failure is raised.
    cpus(monkeypatch, 2)
    later_failed, done = threading.Event(), []

    class Recording(ThreadPoolExecutor):
        def submit(self, *args):
            future = super().submit(*args)
            future.add_done_callback(lambda f: later_failed.set())
            return future

    monkeypatch.setattr(errors, "ThreadPoolExecutor", Recording)

    def work(item):
        if item == 0:
            assert later_failed.wait(timeout=5)  # the second share has raised
        done.append(item)
        if item in (1, 2):
            raise NumericalError(f"item {item}")

    with pytest.raises(NumericalError, match="^item 1$"):
        each(work, range(4))
    assert done == [2, 0, 1]


@pytest.mark.parametrize("count, items", [(1, range(5)), (4, range(1)), (4, range(0))],
                         ids=["one-cpu", "one-item", "no-item"])
def test_no_executor_without_a_second_share(monkeypatch, count, items):
    cpus(monkeypatch, count)

    def no_pool(*args, **kwargs):
        raise AssertionError("no executor may be made")

    monkeypatch.setattr(errors, "ThreadPoolExecutor", no_pool)
    ran = []
    each(ran.append, items)
    assert ran == list(items)
