"""The worker slices that simulate_skt and ensemble_eigenvalues share."""
import os

import numpy as np
import pytest

from crossnet import CrossnetError, parallel
from crossnet.parallel import _forked
from conftest import assert_no_child_left


def _plus_one(part):
    return [x + 1 for x in part]


def test_items_are_cut_into_contiguous_slices_in_order():
    assert _forked(_plus_one, [0, 1, 3, 4], 3) == [[1, 2], [4], [5]]
    assert _forked(_plus_one, [0, 1], 5) == [[1], [2]]
    assert _forked(_plus_one, [0, 1, 3], 1) == [[1, 2, 4]]
    parts = _forked(lambda part: part * 2, np.arange(5.0), 2)
    assert [p.tolist() for p in parts] == [[0.0, 2.0, 4.0], [6.0, 8.0]]
    assert_no_child_left()


def test_without_fork_the_items_are_one_slice(monkeypatch):
    monkeypatch.delattr(parallel.os, "fork")
    assert _forked(_plus_one, [0, 1, 3], 3) == [[1, 2, 4]]


def test_a_worker_that_dies_without_a_result_raises_and_is_reaped():
    parent = os.getpid()

    def run(part):
        if 2 in part and os.getpid() != parent:
            os._exit(1)
        return _plus_one(part)

    for workers, first, last in ((2, 3, 4), (3, 2, 3)):
        with pytest.raises(CrossnetError) as err:
            _forked(run, [0, 1, 5, 2, 6], workers)
        assert type(err.value) is CrossnetError
        assert str(err.value) == f"worker process for items {first} to {last} exited without a result"
        assert_no_child_left()


def test_every_part_runs_on_one_blas_thread_and_the_count_is_restored():
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is no OpenBLAS named in /proc/self/maps")
    get, set_ = blas
    before = get()
    try:
        set_(2)
        assert _forked(lambda part: [get() for _ in part], [0, 1, 2], 2) == [[1, 1], [1]]
        assert get() == 2
        with pytest.raises(ZeroDivisionError):
            _forked(lambda part: 1 / 0, [0], 1)
        assert get() == 2
    finally:
        set_(before)
    assert_no_child_left()
