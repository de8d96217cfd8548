"""Spectra: closed forms vs numeric solver, connectivity facts, ensemble stats."""
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnet import (
    CrossnetError,
    GenerationError,
    Graph,
    GraphSpec,
    build_graph,
    build_laplacian,
    derive_seed,
    eig_symmetric,
    path_spectrum_closed_form,
    ring_spectrum_closed_form,
    write_spectrum_csv,
)
from crossnet import parallel, spectra
from crossnet.spectra import ensemble_eigenvalues, stats_from_eigenvalues
from conftest import assert_no_child_left

# hand-computed Laplacian spectra of tiny graphs
TRIANGLE = [0.0, 3.0, 3.0]
FOUR_CYCLE = [0.0, 2.0, 2.0, 4.0]
PATH_2 = [0.0, 2.0]
COMPLETE_4 = [0.0, 4.0, 4.0, 4.0]
STAR_4 = [0.0, 1.0, 1.0, 4.0]  # hub plus three leaves


def spectrum_of(g: Graph) -> np.ndarray:
    return eig_symmetric(build_laplacian(g))


def test_triangle_spectrum():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert np.allclose(spectrum_of(g), TRIANGLE, atol=1e-12)


def test_four_cycle_spectrum():
    g = build_graph(GraphSpec(family="ring", n=4, k=1))
    assert np.allclose(spectrum_of(g), FOUR_CYCLE, atol=1e-12)


def test_path_two_spectrum():
    assert np.allclose(spectrum_of(build_graph(GraphSpec(family="path", n=2))), PATH_2, atol=1e-12)


def test_complete_graph_spectrum():
    g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert np.allclose(spectrum_of(g), COMPLETE_4, atol=1e-12)


def test_star_spectrum():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert np.allclose(spectrum_of(g), STAR_4, atol=1e-12)


def test_eig_rejects_nonsymmetric():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        eig_symmetric(m)


@pytest.mark.parametrize("entry", [0.5, -0.5])
def test_eig_rejects_asymmetry_in_the_last_row_only(entry):
    m = np.eye(3)
    m[2, 0] = entry
    with pytest.raises(ValueError, match="symmetric"):
        eig_symmetric(m)


@pytest.mark.parametrize("m", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [0.0, 1.0]],  # asymmetric as well
    [[np.inf, 0.0], [0.0, 1.0]],
    [[-np.inf, 0.0], [0.0, 1.0]],
])
def test_eig_rejects_nonfinite_entries(m):
    # NaN compares false against both the scale and the symmetry bound
    with pytest.raises(ValueError, match="non-finite"):
        eig_symmetric(np.array(m))


def test_eig_symmetric_checks_with_one_working_copy():
    # the checks may hold one n x n temporary (the solver's own copy of the
    # input is not traced by tracemalloc, and takes the same room)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((300, 300))
    m += m.T
    eig_symmetric(m)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eig_symmetric(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.1 * m.nbytes


def test_eig_of_an_empty_matrix_is_the_empty_spectrum():
    spectrum = eig_symmetric(np.zeros((0, 0)))
    assert spectrum.shape == (0,) and spectrum.dtype == float


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        eig_symmetric(np.zeros((2, 3)))


# ----------------------------------------------------------- closed forms


@pytest.mark.parametrize("n,k", [(5, 1), (10, 2), (20, 3), (100, 10), (101, 7)])
def test_ring_closed_form_matches_numeric(n, k):
    numeric = spectrum_of(build_graph(GraphSpec(family="ring", n=n, k=k)))
    closed = ring_spectrum_closed_form(n, k)
    assert np.allclose(np.sort(closed), numeric, atol=1e-8)


@pytest.mark.parametrize("n", [2, 3, 7, 50])
def test_path_closed_form_matches_numeric(n):
    numeric = spectrum_of(build_graph(GraphSpec(family="path", n=n)))
    closed = path_spectrum_closed_form(n)
    assert np.allclose(np.sort(closed), numeric, atol=1e-8)


def test_ring_closed_form_properties():
    eigs = ring_spectrum_closed_form(50, 4)
    assert abs(eigs[0]) < 1e-12
    assert eigs.size == 50
    # trace identity: sum of eigenvalues = 2 * edges = 2 * n * k
    assert np.isclose(eigs.sum(), 2 * 50 * 4, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40))
def test_ring_spectrum_bounded_by_degree(n):
    k = max(1, (n - 1) // 4)
    eigs = ring_spectrum_closed_form(n, k)
    assert np.all(eigs >= -1e-12)
    assert np.all(eigs <= 4 * k + 1e-12)  # <= 2 * max degree


# ------------------------------------------------------------ connectivity


def test_algebraic_connectivity_positive_iff_connected():
    connected = spectrum_of(build_graph(GraphSpec(family="path", n=8)))
    assert connected[1] > 1e-12
    disconnected = spectrum_of(Graph(4, [(0, 1), (2, 3)]))
    assert abs(disconnected[1]) < 1e-12


def test_connectivity_edge_bound_holds():
    for spec in (
        GraphSpec(family="ring", n=30, k=4),
        GraphSpec(family="erdos-renyi", n=30, p=0.4, seed=1),
        GraphSpec(family="barabasi-albert", n=30, k=3, seed=1),
    ):
        g = build_graph(spec)
        s = eig_symmetric(build_laplacian(g))
        # lambda_2 <= 2*E/(n-1)
        assert s[1] <= 2.0 * g.n_edges / (g.n_nodes - 1) + 1e-9


# ------------------------------------------------------------- ensembles


def test_ensemble_eigenvalues_shape_and_determinism():
    spec = GraphSpec(family="erdos-renyi", n=15, p=0.4)
    a = ensemble_eigenvalues(spec, 8, master_seed=5)
    b = ensemble_eigenvalues(spec, 8, master_seed=5)
    assert a.shape == (8, 15)
    assert np.array_equal(a, b)
    c = ensemble_eigenvalues(spec, 8, master_seed=6)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("realizations", [True, 2.5])
def test_ensemble_eigenvalues_rejects_a_count_that_is_no_integer(realizations):
    spec = GraphSpec(family="erdos-renyi", n=10, p=0.5)
    with pytest.raises(ValueError, match="realizations must be an integer"):
        ensemble_eigenvalues(spec, realizations, master_seed=0)


def test_ensemble_worker_count_does_not_change_results():
    spec = GraphSpec(family="erdos-renyi", n=15, p=0.4)
    serial = ensemble_eigenvalues(spec, 12, master_seed=5, workers=1)
    for workers in (2, 3):
        forked = ensemble_eigenvalues(spec, 12, master_seed=5, workers=workers)
        assert forked.shape == serial.shape and forked.tobytes() == serial.tobytes()
        assert_no_child_left()


def test_ensemble_rows_do_not_depend_on_the_blas_threads():
    # from about n = 400 up, eigvalsh's last bits move with the BLAS thread count
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is no OpenBLAS named in /proc/self/maps")
    get, set_ = blas
    spec = GraphSpec(family="erdos-renyi", n=400, p=0.1)
    before = get()
    try:
        rows = []
        for threads in (1, 2):
            set_(threads)
            rows.append(ensemble_eigenvalues(spec, 2, master_seed=3).tobytes())
    finally:
        set_(before)
    assert rows[0] == rows[1]


@pytest.mark.parametrize("p, master_seed, failing", [
    (0.12, 1, [3]),  # in the second of two slices only
    (0.1, 3, [2, 5]),  # in both of two slices, and in the second and third of three
    (0.1, 0, [0, 2, 5]),
])
def test_a_failing_realization_raises_the_serial_error_whatever_the_workers(p, master_seed, failing):
    # six sparse Erdos-Renyi graphs that must be connected; realizations
    # `failing` find no connected draw within the retry bound
    spec = GraphSpec(family="erdos-renyi", n=12, p=p, require_connected=True)

    def error(workers):
        with pytest.raises(GenerationError) as err:
            ensemble_eigenvalues(spec, 6, master_seed, workers=workers)
        assert_no_child_left()
        return str(err.value)

    serial = error(1)
    assert serial.endswith(f"(seed {derive_seed(master_seed, failing[0])})")
    for workers in (2, 3):
        assert error(workers) == serial


def test_a_dead_ensemble_worker_raises_the_neutral_error(monkeypatch):
    parent, dying = os.getpid(), derive_seed(5, 4)
    build = spectra.build_graph

    def build_or_die(member):
        if member.seed == dying and os.getpid() != parent:
            os._exit(1)
        return build(member)

    monkeypatch.setattr(spectra, "build_graph", build_or_die)
    spec = GraphSpec(family="erdos-renyi", n=15, p=0.4)
    with pytest.raises(CrossnetError) as err:
        ensemble_eigenvalues(spec, 6, master_seed=5, workers=2)
    assert type(err.value) is CrossnetError
    assert str(err.value) == "worker process for items 3 to 5 exited without a result"
    assert_no_child_left()


def test_ensemble_stats_identical_rows_give_exact_zero_variance():
    spec = GraphSpec(family="watts-strogatz", n=20, k=2, p=0.0)
    stats = stats_from_eigenvalues(ensemble_eigenvalues(spec, 25, master_seed=0))
    assert np.all(stats.variance == 0.0)
    assert np.allclose(stats.mean, np.sort(ring_spectrum_closed_form(20, 2)), atol=1e-8)
    assert stats.realizations == 25


def test_stats_from_eigenvalues_matches_numpy_var():
    rows = np.random.default_rng(0).uniform(0, 5, size=(30, 6))
    rows.sort(axis=1)
    stats = stats_from_eigenvalues(rows)
    assert np.allclose(stats.mean, rows.mean(axis=0), atol=1e-13)
    assert np.allclose(stats.variance, rows.var(axis=0), atol=1e-13)


def test_stats_from_eigenvalues_rejects_wrong_shape():
    with pytest.raises(ValueError, match="realizations"):
        stats_from_eigenvalues(np.zeros(5))


# ------------------------------------------------------------------ files


def test_spectrum_csv_round_trip(tmp_path):
    eigs = spectrum_of(build_graph(GraphSpec(family="ring", n=10, k=2)))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(eigs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    back = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(back, eigs)  # %.17g round-trips doubles

