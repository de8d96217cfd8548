import os

import numpy as np
import pytest

from crossnet import DEFAULT_SKT_PARAMS, GraphSpec, build_graph, build_laplacian, equilibrium


@pytest.fixture(scope="session")
def benchmark_params():
    return DEFAULT_SKT_PARAMS


@pytest.fixture(scope="session")
def benchmark_equilibrium():
    return equilibrium(DEFAULT_SKT_PARAMS)


@pytest.fixture(scope="session")
def small_ring():
    """Ring with 20 nodes, 3 neighbors per side; cheap and instability-free below K=3."""
    g = build_graph(GraphSpec(family="ring", n=20, k=3))
    return g, build_laplacian(g)


def laplacian_from_edges(n, edges):
    """Independent dense Laplacian, assembled without the library helper."""
    mat = np.zeros((n, n))
    for i, j in edges:
        mat[i, i] += 1
        mat[j, j] += 1
        mat[i, j] -= 1
        mat[j, i] -= 1
    return mat


def assert_no_child_left():
    """Every worker process forked so far has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
