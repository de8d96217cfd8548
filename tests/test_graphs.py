"""Graph construction: deterministic families, random families, Laplacians, I/O."""
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnet import (
    BlockLaplacian,
    Graph,
    GraphSpec,
    build_graph,
    build_laplacian,
    degrees,
    ensemble_specs,
    is_connected,
    laplacian_operator,
    write_edge_list,
)
from crossnet import graphs
from crossnet.rng import rng_from
from conftest import laplacian_from_edges


# ---------------------------------------------------------------- Graph value


def test_graph_canonicalizes_edges():
    g = Graph(3, [(2, 1), (0, 1)])
    assert np.array_equal(g.edges, [(0, 1), (1, 2)])
    assert g.n_edges == 2


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_graph_rejects_duplicate_even_reversed():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])


def _as_array(pairs):
    return np.array(pairs) if pairs else np.empty((0, 2), dtype=np.int64)


@pytest.mark.parametrize("convert", [list, _as_array], ids=["tuples", "array"])
@pytest.mark.parametrize(
    "n_nodes,pairs,message",
    [
        (3, [(0, 1), (2, 2)], "self-loop at node 2"),
        (3, [(0, 1), (1, 3)], r"edge \(1, 3\) out of range for 3 nodes"),
        (3, [(0, 1), (-1, 2)], r"edge \(-1, 2\) out of range for 3 nodes"),
        (3, [(0, 1), (1, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
        (3, [(1, 2), (0, 1), (2, 1)], r"duplicate edge \(1, 2\)"),
        (3, [(0, 1, 2)], "pairs"),
        (3, [(0, 1.7)], "edge labels must be integers, got dtype float64"),
        (3, [("0", "1")], "edge labels must be integers, got dtype <U1"),
        (2.5, [(0, 1)], "n_nodes must be an integer, got 2.5"),
        (True, [], "n_nodes must be an integer, got True"),
    ],
    ids=["self-loop", "out-of-range", "negative", "duplicate", "reversed-duplicate", "not-pairs", "fractional",
         "strings", "fractional-node-count", "boolean-node-count"],
)
def test_graph_validation_messages(convert, n_nodes, pairs, message):
    with pytest.raises(ValueError, match=message):
        Graph(n_nodes, convert(pairs))


@pytest.mark.parametrize("convert", [list, _as_array], ids=["tuples", "array"])
def test_graph_stores_one_canonical_read_only_array(convert):
    given = [(3, 0), (1, 2), (0, 1), (2, 3)]
    g = Graph(4, convert(given))
    assert g.edges.dtype == np.int64 and g.edges.shape == (4, 2)
    assert np.array_equal(g.edges, [(0, 1), (0, 3), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2
    assert Graph(4, convert([])).edges.shape == (0, 2)


def test_graph_does_not_freeze_or_alter_the_caller_array():
    given = np.array([(1, 0), (2, 1)])
    Graph(3, given)
    assert given.flags.writeable
    assert np.array_equal(given, [(1, 0), (2, 1)])


def test_graph_equality():
    g = Graph(4, [(0, 1), (2, 3)])
    assert g == Graph(4, np.array([(3, 2), (1, 0)]))
    assert g != Graph(5, [(0, 1), (2, 3)])
    assert g != Graph(4, [(0, 1), (1, 3)])
    assert g != Graph(4, [(0, 1)])
    assert Graph(2, []) == Graph(2, np.empty((0, 2), dtype=np.int64))
    assert g != [(0, 1), (2, 3)]


# ------------------------------------------------------- deterministic graphs


def test_ring_small_known_edges():
    g = build_graph(GraphSpec(family="ring", n=4, k=1))
    assert np.array_equal(g.edges, [(0, 1), (0, 3), (1, 2), (2, 3)])


def test_ring_node_degree_is_twice_k():
    g = build_graph(GraphSpec(family="ring", n=11, k=3))
    assert np.all(degrees(g) == 6)
    assert g.n_edges == 11 * 3


def test_path_edges_and_degrees():
    g = build_graph(GraphSpec(family="path", n=5))
    assert np.array_equal(g.edges, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert list(degrees(g)) == [1, 2, 2, 2, 1]


def test_path_two_nodes():
    assert np.array_equal(build_graph(GraphSpec(family="path", n=2)).edges, [(0, 1)])


def test_square_lattice_counts():
    g = build_graph(GraphSpec(family="square-lattice", rows=3, cols=4))
    # edges: rows*(cols-1) horizontal + (rows-1)*cols vertical
    assert g.n_nodes == 12
    assert g.n_edges == 3 * 3 + 2 * 4


def test_triangular_lattice_counts():
    g = build_graph(GraphSpec(family="triangular-lattice", rows=3, cols=4))
    sq = 3 * 3 + 2 * 4
    assert g.n_edges == sq + 2 * 3  # one diagonal per unit cell


def test_triangular_interior_degree_is_six():
    g = build_graph(GraphSpec(family="triangular-lattice", rows=5, cols=5))
    deg = degrees(g)
    interior = [r * 5 + c for r in range(1, 4) for c in range(1, 4)]
    assert np.all(deg[interior] == 6)


def test_hexagonal_lattice_max_degree_three():
    g = build_graph(GraphSpec(family="hexagonal-lattice", rows=6, cols=6))
    assert degrees(g).max() == 3
    assert is_connected(g)


def test_all_lattices_connected():
    for kind in ("square", "triangular", "hexagonal"):
        assert is_connected(build_graph(GraphSpec(family=f"{kind}-lattice", rows=10, cols=11))), kind


# ------------------------------------------------------------------ GraphSpec


def test_spec_requires_family_fields():
    with pytest.raises(ValueError, match="requires k"):
        GraphSpec(family="ring", n=10)
    with pytest.raises(ValueError, match="does not take k"):
        GraphSpec(family="path", n=10, k=2)
    with pytest.raises(ValueError, match="requires p"):
        GraphSpec(family="erdos-renyi", n=10)
    with pytest.raises(ValueError, match="requires rows and cols"):
        GraphSpec(family="square-lattice", rows=3)
    with pytest.raises(ValueError, match="takes rows/cols"):
        GraphSpec(family="square-lattice", rows=3, cols=3, n=9)
    with pytest.raises(ValueError, match="unknown graph family"):
        GraphSpec(family="torus", n=10)
    with pytest.raises(ValueError, match="p must lie"):
        GraphSpec(family="erdos-renyi", n=10, p=1.5)


@pytest.mark.parametrize("family, legal, illegal", [
    ("ring", dict(n=7, k=3), dict(n=6, k=3)),
    ("ring", dict(n=3, k=1), dict(n=2, k=1)),
    ("watts-strogatz", dict(n=7, k=3, p=0.1), dict(n=7, k=4, p=0.1)),
    ("path", dict(n=2), dict(n=1)),
    ("regular-random", dict(n=4, k=3), dict(n=4, k=4)),
    ("regular-random", dict(n=6, k=3), dict(n=5, k=3)),
    ("barabasi-albert", dict(n=5, k=4), dict(n=5, k=5)),
    ("ring", dict(n=20, k=9), dict(n=20, k=10)),
])
def test_spec_rejects_family_parameters_that_make_no_graph(family, legal, illegal):
    # each legal spec sits on the boundary of its family's rule
    build_graph(GraphSpec(family=family, **legal))
    with pytest.raises(ValueError, match=f"{family} requires"):
        GraphSpec(family=family, **illegal)


# a legal spec of every family, by the size fields it takes
FAMILY_FIELDS = {
    "ring": dict(n=7, k=3),
    "path": dict(n=2),
    "triangular-lattice": dict(rows=2, cols=3),
    "square-lattice": dict(rows=2, cols=3),
    "hexagonal-lattice": dict(rows=2, cols=3),
    "regular-random": dict(n=6, k=3),
    "watts-strogatz": dict(n=7, k=3, p=0.1),
    "erdos-renyi": dict(n=5, p=0.5),
    "barabasi-albert": dict(n=5, k=2),
}


@pytest.mark.parametrize("field", ["n", "k", "p", "rows", "cols"])
@pytest.mark.parametrize("family", graphs.FAMILIES)
def test_spec_names_each_size_field_a_family_takes_or_does_not(family, field):
    takes = FAMILY_FIELDS[family]
    assert build_graph(GraphSpec(family=family, **takes)).n_nodes >= 2
    if field in takes:
        with pytest.raises(ValueError, match=f"^{family} requires ") as info:
            GraphSpec(family=family, **{name: value for name, value in takes.items() if name != field})
    else:
        with pytest.raises(ValueError, match=f"^{family} (does not take|takes rows/cols, not) ") as info:
            GraphSpec(family=family, **takes, **{field: 0.5 if field == "p" else 3})
    assert field in str(info.value)


def test_families_split_into_deterministic_and_random():
    assert graphs.FAMILIES == graphs.DETERMINISTIC_FAMILIES + graphs.RANDOM_FAMILIES
    assert graphs.RANDOM_FAMILIES == ("regular-random", "watts-strogatz", "erdos-renyi", "barabasi-albert")


def test_build_graph_dispatch():
    assert build_graph(GraphSpec(family="ring", n=8, k=2)).n_edges == 16
    assert build_graph(GraphSpec(family="path", n=8)).n_edges == 7
    assert build_graph(GraphSpec(family="hexagonal-lattice", rows=4, cols=4)).n_nodes == 16


# ------------------------------------------------------------- random familes


def test_watts_strogatz_p_zero_is_exactly_the_ring():
    for seed in (0, 1, 17):
        g = build_graph(GraphSpec(family="watts-strogatz", n=30, k=4, p=0.0, seed=seed))
        assert g == build_graph(GraphSpec(family="ring", n=30, k=4))


def test_watts_strogatz_preserves_edge_count():
    base = build_graph(GraphSpec(family="ring", n=40, k=3)).n_edges
    for p in (0.1, 0.5, 1.0):
        g = build_graph(GraphSpec(family="watts-strogatz", n=40, k=3, p=p, seed=5))
        assert g.n_edges == base


def test_watts_strogatz_rewires_someting_at_high_p():
    g = build_graph(GraphSpec(family="watts-strogatz", n=40, k=3, p=1.0, seed=5))
    assert g != build_graph(GraphSpec(family="ring", n=40, k=3))


def test_regular_random_degrees():
    for k in (3, 8, 40):
        g = build_graph(GraphSpec(family="regular-random", n=100, k=k, seed=2))
        assert np.all(degrees(g) == k), k


def test_regular_random_odd_product_raises():
    with pytest.raises(ValueError, match="even"):
        GraphSpec(family="regular-random", n=5, k=3, seed=0)


def test_barabasi_albert_edge_count():
    # star seed with k+1 nodes, then (n-k-1) arrivals adding k edges each
    n, k = 50, 3
    g = build_graph(GraphSpec(family="barabasi-albert", n=n, k=k, seed=0))
    assert g.n_edges == k + (n - k - 1) * k
    assert is_connected(g)


def test_erdos_renyi_degenerate_p():
    empty = build_graph(GraphSpec(family="erdos-renyi", n=12, p=0.0, seed=0))
    assert empty.n_edges == 0
    full = build_graph(GraphSpec(family="erdos-renyi", n=12, p=1.0, seed=0))
    assert full.n_edges == 12 * 11 // 2


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 60, 301])
def test_erdos_renyi_keeps_the_pairs_whose_draw_is_below_p(n, p):
    # reference: one draw per pair i < j of np.triu_indices, from the same stream
    i, j = np.triu_indices(n, k=1)
    keep = rng_from(3, 0).random(i.size) < p
    edges = graphs._erdos_renyi(n, p, rng_from(3, 0))
    assert edges.dtype == np.int64 and edges.shape == (keep.sum(), 2)
    assert np.array_equal(edges, np.column_stack((i[keep], j[keep])))


def test_erdos_renyi_peaks_at_its_draw():
    # the n(n-1)/2 uniforms are the largest array; a table of the pairs
    # themselves would take twice their room
    n = 2000
    draw_bytes = 8 * n * (n - 1) // 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_graph(GraphSpec(family="erdos-renyi", n=n, p=0.01, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1.25 * draw_bytes


def test_random_graphs_deterministic_per_seed():
    for family, kw in (
        ("erdos-renyi", {"p": 0.2}),
        ("watts-strogatz", {"k": 3, "p": 0.3}),
        ("regular-random", {"k": 4}),
        ("barabasi-albert", {"k": 2}),
    ):
        spec = GraphSpec(family=family, n=30, seed=11, **kw)
        assert build_graph(spec) == build_graph(spec), family
        other = dataclasses.replace(spec, seed=12)
        assert build_graph(spec) != build_graph(other), family


def test_require_connected_retries_until_connected():
    # at this p the unconstrained seed-0 draw is disconnected, so the
    # constrained build must have taken at least one retry
    free = build_graph(GraphSpec(family="erdos-renyi", n=40, p=0.12, seed=0))
    assert not is_connected(free)
    g = build_graph(GraphSpec(family="erdos-renyi", n=40, p=0.12, seed=0, require_connected=True))
    assert is_connected(g)


def test_ensemble_specs_distinct_seeds():
    spec = GraphSpec(family="erdos-renyi", n=10, p=0.5)
    specs = list(ensemble_specs(spec, 16, master_seed=0))
    seeds = [s.seed for s in specs]
    assert len(set(seeds)) == 16
    again = [s.seed for s in ensemble_specs(spec, 16, master_seed=0)]
    assert seeds == again
    assert seeds != [s.seed for s in ensemble_specs(spec, 16, master_seed=1)]


@pytest.mark.parametrize("realizations", [True, 2.5])
def test_ensemble_specs_rejects_a_count_that_is_no_integer(realizations):
    spec = GraphSpec(family="erdos-renyi", n=10, p=0.5)
    with pytest.raises(ValueError, match="realizations must be an integer"):
        list(ensemble_specs(spec, realizations, master_seed=0))


def test_ensemble_specs_accepts_a_numpy_integer_count():
    spec = GraphSpec(family="erdos-renyi", n=10, p=0.5)
    assert len(list(ensemble_specs(spec, np.int64(3), master_seed=0))) == 3


# sha256 of write_edge_list output, recorded before the array-native refactor;
# any change to an RNG stream or to edge order or formatting shows up here
FROZEN_EDGE_LISTS = [
    (dict(family="erdos-renyi", n=60, p=0.1, seed=0), "fc3e4535d32da835aafb96de385fc928c005ae9c13beb46f88fa830ea0aebfc3"),
    (dict(family="erdos-renyi", n=60, p=0.1, seed=1), "c461700db3b8dc03dd872e007fcb1c2b5b26938e7ff4986093a60c38513f8351"),
    (dict(family="erdos-renyi", n=60, p=0.1, seed=12345), "326cb9316c36e6d57524018128e36f9c57d7fbcb72776930a3cd0489f3898851"),
    (dict(family="watts-strogatz", n=60, k=3, p=0.2, seed=0), "a055d85093a63e071bb6db7f59c99d7b9771ef2f5a1e7d4b201229cc9c3742e6"),
    (dict(family="watts-strogatz", n=60, k=3, p=0.2, seed=1), "e3c0a4b51be0a29a5983dbbcfd2cadc77c19c3c3140718c631e26c66dcfb4bcc"),
    (dict(family="watts-strogatz", n=60, k=3, p=0.2, seed=12345), "de892912f573886ff14e379ea19c342f7805768a71ecc06b9411e857150949a0"),
    (dict(family="regular-random", n=60, k=4, seed=0), "ab51a98eee343485d045bbbf661d34571bba2cb0bcd3a1bd541fcb8df331a5e6"),
    (dict(family="regular-random", n=60, k=4, seed=1), "a6725f24117d2989ae9840e2e5d5e4542debbc8f09a620463fb74b5b29686acd"),
    (dict(family="regular-random", n=60, k=4, seed=12345), "afc0adb6c39ceafb94534786f80b459e4a78b1d62f35c9a9072cbaba97379a43"),
    (dict(family="barabasi-albert", n=60, k=3, seed=0), "2866750169bb767df28c9ce658df6b9dc7e30d45140c16246de8d6ad4711ba54"),
    (dict(family="barabasi-albert", n=60, k=3, seed=1), "63a313d04beb4e877b16855fd73ea8cb1f985cd0fa1c57b55334a17d5c7b1f40"),
    (dict(family="barabasi-albert", n=60, k=3, seed=12345), "8b56c67ad6141753709d868dd9d658d3b76272a609b34243b07623f992e5143e"),
    # attempt 0 of this spec is disconnected, so the retry stream is covered
    (dict(family="erdos-renyi", n=40, p=0.12, seed=0, require_connected=True),
     "168645e4ba191bad96e2717ff87a02c7bac8c61d90c71d47faa8dab725f7d876"),
    (dict(family="ring", n=30, k=4), "ab8fee20059874c208eea9917d313b377754a794354da0c8a386cf51046752f2"),
    (dict(family="path", n=17), "f7f58c1193d68800677c784fb01bf6e5e8f383a9d5bd2ac0845b9c8753be27ce"),
    (dict(family="triangular-lattice", rows=5, cols=7), "18d6b39d08f549d49412796ed18a7cc517b515c952902ef64142d9272cb1c7a3"),
    (dict(family="square-lattice", rows=6, cols=5), "63761d19f3d8c6519f8cb4786556ab36a7b65a9ed2bec6726f7942dbb143cb45"),
    (dict(family="hexagonal-lattice", rows=7, cols=6), "4836a89fb759004142ee6181ce09cef4684aa05362d418b4d923662c56687114"),
]


@pytest.mark.parametrize(
    "kw,digest", FROZEN_EDGE_LISTS,
    ids=[f"{kw['family']}-{kw.get('seed', 0)}{'-connected' if kw.get('require_connected') else ''}"
         for kw, _ in FROZEN_EDGE_LISTS],
)
def test_edge_list_bytes_frozen(tmp_path, kw, digest):
    path = tmp_path / "g.txt"
    write_edge_list(build_graph(GraphSpec(**kw)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ------------------------------------------------------------------ Laplacian


def test_laplacian_matches_independent_assembly(small_ring):
    g, lap = small_ring
    assert np.array_equal(lap, laplacian_from_edges(g.n_nodes, g.edges))


def test_laplacian_triangle_exact():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    expect = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
    assert np.array_equal(build_laplacian(g), expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 20), st.integers(0, 2**32 - 1), st.floats(0.05, 0.9))
def test_laplacian_invariants_random_graphs(n, seed, p):
    g = build_graph(GraphSpec(family="erdos-renyi", n=n, p=p, seed=seed))
    lap = build_laplacian(g)
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.trace(lap) == 2 * g.n_edges
    assert np.array_equal(np.diag(lap), degrees(g))
    eigs = np.linalg.eigvalsh(lap)
    assert eigs[0] > -1e-9            # positive semidefinite
    assert eigs[-1] <= g.n_nodes + 1e-9  # spectrum bounded by node count


def test_is_connected_cases():
    assert is_connected(build_graph(GraphSpec(family="path", n=10)))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))


# ------------------------------------------------------------ networkx oracle

ORACLE_SPECS = [
    dict(family="ring", n=13, k=3),
    dict(family="path", n=9),
    dict(family="triangular-lattice", rows=4, cols=5),
    dict(family="square-lattice", rows=3, cols=6),
    dict(family="hexagonal-lattice", rows=5, cols=4),
] + [
    dict(family=family, seed=seed, **kw)
    for seed in (0, 3, 8)
    for family, kw in (
        ("erdos-renyi", dict(n=25, p=0.08)),  # often disconnected
        ("erdos-renyi", dict(n=25, p=0.3)),
        ("watts-strogatz", dict(n=24, k=2, p=0.4)),
        ("regular-random", dict(n=24, k=3)),
        ("barabasi-albert", dict(n=24, k=2)),
    )
]


def _to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(g.edges.tolist())
    return h


@pytest.mark.parametrize(
    "kw", ORACLE_SPECS,
    ids=[f"{kw['family']}-{kw.get('p', '')}-{kw.get('seed', 0)}" for kw in ORACLE_SPECS],
)
def test_matches_networkx(kw):
    nx = pytest.importorskip("networkx")
    g = build_graph(GraphSpec(**kw))
    h = _to_networkx(nx, g)
    assert h.number_of_edges() == g.n_edges
    expect = nx.laplacian_matrix(h, nodelist=range(g.n_nodes)).toarray()
    assert np.array_equal(build_laplacian(g), expect)
    assert np.array_equal(degrees(g), [d for _, d in sorted(h.degree())])
    assert is_connected(g) == nx.is_connected(h)


def test_is_connected_matches_networkx_on_disconnected_graphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(4)
    outcomes = set()
    for _ in range(200):
        n = int(rng.integers(1, 30))
        free = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pick = rng.random(len(free)) < rng.uniform(0.0, 0.25)
        g = Graph(n, [e for e, keep in zip(free, pick) if keep])
        outcomes.add(is_connected(g))
        assert is_connected(g) == nx.is_connected(_to_networkx(nx, g)), g
    assert outcomes == {True, False}


# ------------------------------------------------------ block Laplacian operator


def _specs_with_n_nodes(n):
    """A spec of every non-lattice family that can have ``n`` nodes."""
    specs = [GraphSpec(family="erdos-renyi", n=n, p=min(1.0, 8.0 / n), seed=n)]
    if n >= 2:
        specs.append(GraphSpec(family="path", n=n))
        specs.append(GraphSpec(family="barabasi-albert", n=n, k=min(2, n - 1), seed=n))
        specs.append(GraphSpec(family="regular-random", n=n, k=min(4, n - 1), seed=n))
    if n >= 3:
        k = min(3, (n - 1) // 2)
        specs.append(GraphSpec(family="ring", n=n, k=k))
        specs.append(GraphSpec(family="watts-strogatz", n=n, k=k, p=0.1, seed=n))
    return specs


def _assert_same_product(op, lap, rng):
    # on one (n, 2) operand and on a stack of five; the tolerance is relative
    # to the largest sum of absolute products, the scale of the rounding error
    n = lap.shape[0]
    for shape in ((n, 2), (5, n, 2)):
        x = rng.uniform(-2.0, 2.0, shape)
        scale = (np.abs(lap) @ np.abs(x)).max()
        np.testing.assert_allclose(op @ x, lap @ x, rtol=1e-12, atol=1e-12 * scale)


def _padded_block_graph():
    """97 nodes in 10 x 10 blocks, the last block row short: block rows 0
    and 7 are isolated nodes only, and the others hold 1 to 3 nonzero
    blocks of random edges, so rows are padded."""
    rng = np.random.default_rng(3)
    edges = set()
    for r, c in ((1, 1), (2, 3), (4, 5), (4, 6), (8, 9), (9, 9)):
        for i in range(10 * r, min(10 * r + 10, 97)):
            for j in range(10 * c, min(10 * c + 10, 97)):
                if i != j and rng.random() < 0.3:
                    edges.add((min(i, j), max(i, j)))
    return Graph(97, sorted(edges))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 97, 400, 1000])
def test_block_laplacian_matches_the_dense_product(n):
    rng = np.random.default_rng(n)
    specs = _specs_with_n_nodes(n)
    assert len(specs) == (1 if n == 1 else 4 if n == 2 else 6)
    graphs = [build_graph(spec) for spec in specs]
    if n == 97:
        graphs.append(_padded_block_graph())
        assert BlockLaplacian(graphs[-1]).data.shape == (10, 10, 3 * 10)
    for g in graphs:
        _assert_same_product(BlockLaplacian(g), build_laplacian(g), rng)


@pytest.mark.parametrize("kind", ["square", "triangular", "hexagonal"])
@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 7), (9, 11), (20, 20), (25, 40)])
def test_block_laplacian_matches_the_dense_product_on_lattices(kind, rows, cols):
    g = build_graph(GraphSpec(family=f"{kind}-lattice", rows=rows, cols=cols))
    _assert_same_product(BlockLaplacian(g), build_laplacian(g), np.random.default_rng(rows * cols))


@pytest.mark.parametrize("n, k", [(97, 3), (400, 20)])
def test_block_products_of_a_stack_equal_the_solo_products(n, k):
    # rhs passes the fluxes as a transposed (B, n, 2) view of (B, 2, n)
    op = BlockLaplacian(build_graph(GraphSpec(family="ring", n=n, k=k)))
    flux = np.random.default_rng(n).uniform(0.1, 2.0, (6, 2, n))
    stacked = op @ flux.swapaxes(-1, -2)
    for state, product in zip(flux, stacked):
        assert np.array_equal(product, op @ state.T)
        assert np.array_equal(product, (op @ state[None].swapaxes(-1, -2))[0])


def test_laplacian_operator_keeps_the_dense_matrix_unless_blocks_pay():
    for spec in (GraphSpec(family="ring", n=100, k=10), GraphSpec(family="erdos-renyi", n=400, p=0.05, seed=1)):
        g = build_graph(spec)
        op = laplacian_operator(g)
        assert isinstance(op, np.ndarray) and np.array_equal(op, build_laplacian(g))
    op = laplacian_operator(build_graph(GraphSpec(family="ring", n=400, k=20)))
    assert isinstance(op, BlockLaplacian)
    assert op.data.shape == (20, 20, 60)  # three 20 x 20 blocks per block row


@pytest.mark.parametrize(
    "g, blockwise",
    [
        (build_graph(GraphSpec(family="ring", n=100, k=10)), False),
        (build_graph(GraphSpec(family="ring", n=400, k=20)), True),
        (build_graph(GraphSpec(family="path", n=400)), True),
        (build_graph(GraphSpec(family="square-lattice", rows=20, cols=20)), True),
        (build_graph(GraphSpec(family="triangular-lattice", rows=20, cols=20)), True),
        (build_graph(GraphSpec(family="hexagonal-lattice", rows=20, cols=20)), True),
        (build_graph(GraphSpec(family="square-lattice", rows=3, cols=7)), False),
        (build_graph(GraphSpec(family="erdos-renyi", n=400, p=0.05, seed=1)), False),
        (build_graph(GraphSpec(family="erdos-renyi", n=50, p=0.0, seed=1)), True),
        (build_graph(GraphSpec(family="erdos-renyi", n=2, p=0.0, seed=1)), True),
        (build_graph(GraphSpec(family="watts-strogatz", n=400, k=3, p=0.1, seed=1)), False),
        (build_graph(GraphSpec(family="regular-random", n=400, k=4, seed=1)), False),
        (build_graph(GraphSpec(family="barabasi-albert", n=400, k=2, seed=1)), False),
        (Graph(1, []), True),
        (_padded_block_graph(), False),
        (Graph(400, [(i, i + 1) for i in range(20, 399)]), True),
    ],
    ids=[
        "ring100", "ring400", "path400", "square20", "triangular20", "hexagonal20", "square3x7",
        "er400", "er50-edgeless", "er2-edgeless", "ws400", "regular400", "ba400", "single-node",
        "isolated-blocks97", "isolated-block400",
    ],
)
def test_laplacian_operator_is_exactly_the_laplacian(g, blockwise):
    # every product term is an exact integer times 0 or 1, so the products
    # with the identity are exact; a block of isolated nodes stores nothing
    op = laplacian_operator(g)
    assert isinstance(op, BlockLaplacian) == blockwise
    assert np.array_equal(op @ np.eye(g.n_nodes), build_laplacian(g))


# ------------------------------------------------------------------- edge I/O


def test_edge_list_round_trip(tmp_path, small_ring):
    g, _ = small_ring
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    header, *rows = path.read_text().splitlines()
    back = Graph(int(header), [tuple(map(int, row.split())) for row in rows])
    assert back.n_nodes == g.n_nodes
    assert back == g


def test_edge_list_format_is_text_with_header(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(Graph(3, [(0, 2), (0, 1)]), path)
    assert path.read_text() == "3\n0 1\n0 2\n"

