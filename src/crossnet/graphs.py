"""Undirected graph construction and Laplacian assembly.

Deterministic families (rings, paths, planar lattices) and seeded random
families (regular-random, small-world, binomial, preferential attachment),
a combinatorial Laplacian builder, a block-sparse form of it for the
simulated right-hand side, connectivity checks, and a plain-text edge-list
writer.

Conventions
-----------
Nodes are labeled ``0 .. n-1``.  A graph's edges are one read-only
``(E, 2)`` int64 array whose rows ``(i, j)`` satisfy ``i < j`` and are in
lexicographic order; validation, Laplacian assembly, degrees and
connectivity all work on that array.  For ring-based families (``ring``,
``watts-strogatz``) the parameter ``k`` counts neighbors *per side*, so the
node degree is ``2k``.  For ``regular-random`` graphs ``k`` is the full
degree, and for ``barabasi-albert`` it is the number of edges attached by
each arriving node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GenerationError, require_int, require_real
from .rng import check_seed, derive_seed, rng_from
from .textio import write_table

__all__ = [
    "DETERMINISTIC_FAMILIES", "RANDOM_FAMILIES", "Graph", "GraphSpec", "BlockLaplacian",
    "gen_ring", "gen_path", "gen_lattice", "gen_random", "build_graph", "ensemble_specs",
    "build_laplacian", "laplacian_operator", "degrees", "is_connected", "write_edge_list",
]

DETERMINISTIC_FAMILIES = (
    "ring",
    "path",
    "triangular-lattice",
    "square-lattice",
    "hexagonal-lattice",
)
RANDOM_FAMILIES = (
    "regular-random",
    "watts-strogatz",
    "erdos-renyi",
    "barabasi-albert",
)
FAMILIES = DETERMINISTIC_FAMILIES + RANDOM_FAMILIES
LATTICE_KINDS = ("triangular", "square", "hexagonal")

_CONNECTIVITY_RETRIES = 100


def _norm(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _canonical_edges(n: int, edges) -> np.ndarray:
    """Validated, canonical, read-only copy of ``edges`` (see ``Graph``)."""
    arr = np.asarray(edges)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"edge labels must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64) if arr.size else np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (i, j) pairs, got an array of shape {arr.shape}")
    i, j = arr[:, 0], arr[:, 1]
    bad = np.flatnonzero(i == j)
    if bad.size:
        raise ValueError(f"self-loop at node {i[bad[0]]}")
    bad = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n))
    if bad.size:
        raise ValueError(f"edge ({i[bad[0]]}, {j[bad[0]]}) out of range for {n} nodes")
    flipped = i > j
    if flipped.any():
        arr[flipped] = arr[flipped, ::-1]
    keys = arr[:, 0] * n + arr[:, 1]
    # generators mostly emit rows already in order; sort only when needed
    if not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(keys, kind="stable")
        arr, keys = arr[order], keys[order]
        bad = np.flatnonzero(keys[1:] == keys[:-1])
        if bad.size:
            raise ValueError(f"duplicate edge {tuple(arr[bad[0]].tolist())}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: node count plus a canonical edge array.

    ``edges`` may be given as any sequence of pairs or an ``(E, 2)`` array;
    it is stored as a read-only ``(E, 2)`` int64 array with ``i < j`` in
    every row and rows in lexicographic order.  Self-loops, duplicate edges
    (a reversed pair included) and out-of-range labels are rejected, so two
    graphs with the same edge set compare equal.
    """

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        require_int("n_nodes", self.n_nodes)
        if self.n_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {self.n_nodes}")
        object.__setattr__(self, "edges", _canonical_edges(self.n_nodes, self.edges))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_nodes == other.n_nodes and np.array_equal(self.edges, other.edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of a graph to build.

    ``n``/``k``/``p`` are interpreted per family (see module docstring);
    lattices take ``rows``/``cols`` instead of ``n``.  ``seed`` only matters
    for random families.  With ``require_connected`` set, random families are
    resampled with derived seeds until connected (bounded retries).
    """

    family: str
    n: int | None = None
    k: int | None = None
    p: float | None = None
    rows: int | None = None
    cols: int | None = None
    seed: int = 0
    require_connected: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}; choose from {FAMILIES}")
        check_seed(self.seed)
        if not isinstance(self.require_connected, bool):
            raise ValueError(f"require_connected must be a boolean, got {self.require_connected!r}")
        for name in ("n", "k", "rows", "cols"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name))
        if self.p is not None:
            require_real("p", self.p)
        lattice = self.family.endswith("-lattice")
        if lattice:
            if self.rows is None or self.cols is None:
                raise ValueError(f"{self.family} requires rows and cols")
            if self.n is not None:
                raise ValueError(f"{self.family} takes rows/cols, not n")
        else:
            if self.n is None:
                raise ValueError(f"{self.family} requires n")
            if self.rows is not None or self.cols is not None:
                raise ValueError(f"{self.family} does not take rows/cols")
        needs_k = self.family in ("ring", "watts-strogatz", "regular-random", "barabasi-albert")
        if needs_k and self.k is None:
            raise ValueError(f"{self.family} requires k")
        if not needs_k and self.k is not None:
            raise ValueError(f"{self.family} does not take k")
        needs_p = self.family in ("watts-strogatz", "erdos-renyi")
        if needs_p and self.p is None:
            raise ValueError(f"{self.family} requires p")
        if not needs_p and self.p is not None:
            raise ValueError(f"{self.family} does not take p")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.n is not None and self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if lattice and (self.rows < 2 or self.cols < 2):
            raise ValueError(f"lattice requires rows >= 2 and cols >= 2, got {self.rows}x{self.cols}")
        n, k = self.n, self.k
        if self.family in ("ring", "watts-strogatz"):
            _check_ring(self.family, n, k)
        elif self.family == "path" and n < 2:
            raise ValueError(f"path requires n >= 2, got n={n}")
        elif self.family == "regular-random" and not (k < n and n * k % 2 == 0):
            raise ValueError(f"regular-random requires 0 < k < n and n*k even, got n={n}, k={k}")
        elif self.family == "barabasi-albert" and k > n - 1:
            raise ValueError(f"barabasi-albert requires 1 <= k <= n-1, got n={n}, k={k}")


def _check_ring(family: str, n: int, k: int) -> None:
    """ValueError unless ``n`` nodes can each take ``k`` ring neighbors per side (see gen_ring)."""
    if n < 3 or not 1 <= k <= (n - 1) // 2:
        raise ValueError(f"{family} requires n >= 3 and 1 <= k <= (n-1)//2, got n={n}, k={k}")


def gen_ring(n: int, k: int) -> Graph:
    """Ring of ``n`` nodes, each joined to its ``k`` nearest neighbors per side.

    Every node has degree ``2k`` and the graph has ``n*k`` edges.  Requires
    ``n >= 3`` and ``1 <= k <= (n - 1) // 2`` so that no wrap-around edge is
    counted twice.
    """
    _check_ring("ring", n, k)
    i = np.repeat(np.arange(n), k)
    j = (i + np.tile(np.arange(1, k + 1), n)) % n
    return Graph(n, np.column_stack((i, j)))


def gen_path(n: int) -> Graph:
    """Path of ``n >= 2`` nodes: edges (i, i+1)."""
    if n < 2:
        raise ValueError(f"path requires n >= 2, got {n}")
    i = np.arange(n - 1)
    return Graph(n, np.column_stack((i, i + 1)))


def gen_lattice(kind: str, rows: int, cols: int) -> Graph:
    """Finite planar lattice patch with open (non-periodic) boundary.

    ``square``: rows x cols grid, interior degree 4.  ``triangular``: the
    grid plus one parallel diagonal per unit cell, interior degree 6.
    ``hexagonal``: brick-wall layout, full horizontal rows with vertical
    edges at alternating parity, so every degree is at most 3.  Node (r, c)
    has index ``r * cols + c``.
    """
    if kind not in LATTICE_KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}; choose from {LATTICE_KINDS}")
    if rows < 2 or cols < 2:
        raise ValueError(f"lattice requires rows >= 2 and cols >= 2, got {rows}x{cols}")

    node = np.arange(rows * cols).reshape(rows, cols)
    pairs = [(node[:, :-1], node[:, 1:])]  # horizontal
    if kind == "hexagonal":
        r, c = np.indices((rows - 1, cols))
        even = (r + c) % 2 == 0
        pairs.append((node[:-1][even], node[1:][even]))
    else:
        pairs.append((node[:-1], node[1:]))
    if kind == "triangular":
        pairs.append((node[:-1, :-1], node[1:, 1:]))
    edges = [np.column_stack((a.ravel(), b.ravel())) for a, b in pairs]
    return Graph(rows * cols, np.concatenate(edges))


def _edge_array(edges: set[tuple[int, int]]) -> np.ndarray:
    return np.array(list(edges), dtype=np.int64).reshape(-1, 2)


def _erdos_renyi(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    # one Bernoulli draw per unordered pair, row-major over the upper triangle;
    # row i holds the pairs (i, i+1) .. (i, n-1) and ends before draw ends[i]
    k = (rng.random(n * (n - 1) // 2) < p).nonzero()[0]
    ends = np.arange(n - 1, 0, -1).cumsum()
    i = ends.searchsorted(k, "right")
    edges = np.empty((k.size, 2), dtype=np.int64)
    edges[:, 0] = i
    edges[:, 1] = k - ends[i] + n
    return edges


def _watts_strogatz(n: int, k: int, p: float, rng: np.random.Generator) -> np.ndarray:
    # classic single-pass rewiring over the base ring, by node then by offset;
    # the far endpoint moves to a uniform non-self, non-duplicate target
    edges = {_norm(i, (i + off) % n) for i in range(n) for off in range(1, k + 1)}
    degree = [2 * k] * n
    for u in range(n):
        for off in range(1, k + 1):
            if rng.random() >= p:
                continue
            if degree[u] >= n - 1:
                continue
            v = (u + off) % n
            while True:
                w = int(rng.integers(n))
                if w != u and _norm(u, w) not in edges:
                    break
            edges.remove(_norm(u, v))
            edges.add(_norm(u, w))
            degree[v] -= 1
            degree[w] += 1
    return _edge_array(edges)


def _regular_random(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # stub-pairing with rejection: shuffle the stub multiset, pair consecutive
    # stubs, recycle the pairs that would form loops or duplicates; restart
    # from scratch whenever the leftover stubs cannot form any legal edge
    for _ in range(200):
        edges: set[tuple[int, int]] = set()
        stubs = np.repeat(np.arange(n), k)
        stalled = 0
        while stubs.size and stalled < 50:
            rng.shuffle(stubs)
            leftover: list[int] = []
            for u, v in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
                e = _norm(u, v)
                if u != v and e not in edges:
                    edges.add(e)
                else:
                    leftover.append(u)
                    leftover.append(v)
            stalled = stalled + 1 if len(leftover) == len(stubs) else 0
            stubs = np.asarray(leftover, dtype=np.int64)
            if stubs.size and not _has_legal_pair(stubs, edges):
                break
        if not stubs.size:
            return _edge_array(edges)
    raise GenerationError(f"could not realize a simple {k}-regular graph on {n} nodes")


def _has_legal_pair(stubs: np.ndarray, edges: set[tuple[int, int]]) -> bool:
    nodes = sorted(set(stubs.tolist()))
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if (nodes[a], nodes[b]) not in edges:
                return True
    return False


def _barabasi_albert(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # seed with a star on k+1 nodes, then attach each new node to k distinct
    # targets drawn degree-proportionally (repeated-node list, duplicates
    # rejected, i.e. sampling without replacement)
    edges = {(0, leaf) for leaf in range(1, k + 1)}
    repeated = [0] * k + list(range(1, k + 1))
    for new in range(k + 1, n):
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
        for t in targets:
            edges.add(_norm(new, t))
        repeated.extend(targets)
        repeated.extend([new] * k)
    return _edge_array(edges)


def gen_random(spec: GraphSpec) -> Graph:
    """Build one realization of a random-family spec.

    The same (spec, seed) always yields the identical edge set.  When
    ``require_connected`` is set, disconnected draws are rejected and
    retried with seeds derived from (seed, attempt), up to a fixed bound.
    """
    if spec.family not in RANDOM_FAMILIES:
        raise ValueError(f"{spec.family!r} is not a random family")
    attempts = _CONNECTIVITY_RETRIES if spec.require_connected else 1
    for attempt in range(attempts):
        rng = rng_from(spec.seed, attempt)
        if spec.family == "erdos-renyi":
            edges = _erdos_renyi(spec.n, spec.p, rng)
        elif spec.family == "watts-strogatz":
            edges = _watts_strogatz(spec.n, spec.k, spec.p, rng)
        elif spec.family == "regular-random":
            edges = _regular_random(spec.n, spec.k, rng)
        else:
            edges = _barabasi_albert(spec.n, spec.k, rng)
        g = Graph(spec.n, edges)
        if not spec.require_connected or is_connected(g):
            return g
    raise GenerationError(
        f"no connected {spec.family} realization in {attempts} attempts (seed {spec.seed})"
    )


def build_graph(spec: GraphSpec) -> Graph:
    """Dispatch a GraphSpec to the matching generator."""
    if spec.family == "ring":
        return gen_ring(spec.n, spec.k)
    if spec.family == "path":
        return gen_path(spec.n)
    if spec.family.endswith("-lattice"):
        return gen_lattice(spec.family.removesuffix("-lattice"), spec.rows, spec.cols)
    return gen_random(spec)


def build_laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree on the diagonal, -1 per edge.

    Symmetric, rows sum to zero, positive semi-definite; all entries are
    integer-valued (stored as float64, hence exact).
    """
    lap = np.zeros((g.n_nodes, g.n_nodes))
    i, j = g.edges.T
    lap[i, j] = -1.0
    lap[j, i] = -1.0
    lap.flat[:: g.n_nodes + 1] = degrees(g)
    return lap


def _block_mask(g: Graph) -> tuple[int, np.ndarray]:
    """Block size b = ceil(sqrt(n)) and the mask of the b x b blocks of L holding an edge or a node with one."""
    b = math.isqrt(g.n_nodes - 1) + 1
    mask = np.zeros((-(-g.n_nodes // b),) * 2, dtype=bool)
    i, j = g.edges.T // b
    mask[i, j] = mask[j, i] = mask[i, i] = mask[j, j] = True
    return b, mask


class BlockLaplacian:
    """The Laplacian of a graph stored as its nonzero b x b blocks, b = ceil(sqrt(n)).

    ``data[r]`` holds block row r (zero-padded past row n) as m blocks side
    by side: its nonzero blocks, then zero blocks up to m, the largest count
    of any block row.  ``index`` names the node of each of those columns,
    block row after block row (padding past n points at node n - 1).
    ``op @ x`` on x of shape (..., n, k) is one ``np.take`` and one stacked
    matmul with one (b, m*b) by (m*b, k) product per block row and state, so
    a state's product does not depend on the others in a stack.
    """

    def __init__(self, g: Graph):
        n = g.n_nodes
        b, mask = _block_mask(g)
        nb, m = len(mask), int(mask.sum(axis=1).max())
        # a stable sort puts each block row's nonzero blocks first, in order;
        # slot[r, c] is the position of block column c in block row r
        order = np.argsort(~mask, axis=1, kind="stable")
        slot = np.argsort(order, axis=1)
        self.index = np.minimum(order[:, :m, None] * b + np.arange(b), n - 1).ravel()
        # the entries of L: -1 at (i, j) and (j, i) per edge, then the nonzero degrees
        deg = degrees(g)
        nodes = np.flatnonzero(deg)
        rows, cols = np.concatenate((g.edges, g.edges[:, ::-1], np.column_stack((nodes, nodes)))).T
        data = np.zeros((nb * b, m * b))
        data[rows, slot[rows // b, cols // b] * b + cols % b] = np.concatenate((np.full(2 * g.n_edges, -1.0), deg[nodes]))
        self.data = data.reshape(nb, b, m * b)
        self.shape = (n, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-2] != self.shape[1]:
            raise ValueError(f"shape mismatch: operator {self.shape}, operand {x.shape}")
        nb, b, width = self.data.shape
        stack, k = x.shape[:-2], x.shape[-1]
        gathered = np.take(x, self.index, axis=-2).reshape(stack + (nb, width, k))
        return (self.data @ gathered).reshape(stack + (nb * b, k))[..., : self.shape[0], :]


def laplacian_operator(g: Graph) -> np.ndarray | BlockLaplacian:
    """The Laplacian of ``g`` as a ``BlockLaplacian`` if its blocks store at most
    a quarter of the n^2 entries (rings and lattices from a few hundred nodes
    on), else dense: the form the simulated right-hand side applies."""
    b, mask = _block_mask(g)
    if 4 * len(mask) * int(mask.sum(axis=1).max()) * b * b > g.n_nodes**2:
        return build_laplacian(g)
    return BlockLaplacian(g)


def degrees(g: Graph) -> np.ndarray:
    return np.bincount(g.edges.ravel(), minlength=g.n_nodes)


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from every other.

    Min-label propagation with pointer jumping: each node takes the smallest
    label on its edges, then its label's label.  Labels only decrease and
    always name a node of the same component, so at the fixed point each
    component carries a single label.
    """
    label = np.arange(g.n_nodes)
    i, j = g.edges.T
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, label):
            return bool(np.all(label == label[0]))
        label = new


def write_edge_list(g: Graph, path) -> None:
    """Plain-text edge list: first line the node count, then one 'i j' per line."""
    write_table(path, str(g.n_nodes), "%d %d", g.edges)


def ensemble_specs(spec: GraphSpec, realizations: int, master_seed: int):
    """Yield per-realization specs with seeds mixed from (master_seed, index)."""
    require_int("realizations", realizations)
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    for i in range(realizations):
        yield replace(spec, seed=derive_seed(master_seed, i))
