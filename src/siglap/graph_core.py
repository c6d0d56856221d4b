"""Signed weighted graphs, their connected components and biconnected blocks.

A :class:`SignedGraph` is immutable: a node count plus three read-only numpy
columns over the undirected edges, ``tails``, ``heads`` and ``weights``, with
``tail < head`` and a nonzero weight.  Edge indices -- positions in those
columns -- are the handles used by every other module, and every graph step
here and in the other modules reads the columns.  All operations here are
pure functions.

One lowpoint pass, :func:`_edge_blocks`, answers every cycle question: the
path-edge sets of the negative edges are pairwise disjoint exactly when those
edges lie in distinct blocks of G, their resistance matrix is block-diagonal
over those blocks, and at the single-cycle boundary the cycle is the block
holding the negative edge.  A query makes the pass once, inside the
resistance layer's block solve, over G+ plus the negative edges; the verdict
reads the blocks back from the resistance matrix, and cluster prediction
reads the block keys the solve returns.  The spanning-forest decomposition
below is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, depth_first_order

from .errors import (
    GraphConstructionError,
    InvalidParameterError,
    NodeOutOfRangeError,
    NodesDisconnectedError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)

# Every weight magnitude must be at least the smallest normal double, and
# every node's weighted degree must stay below DEGREE_BOUND.
WEIGHT_FLOOR = 2.0 ** -1022
DEGREE_BOUND = 2.0 ** 1022


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Undirected graph with nonzero, possibly negative, edge weights.

    Parallel edges are permitted and kept distinct; self-loops are rejected
    by :func:`build_graph`, which validates what this constructor only
    stores.  Each column is copied to its dtype (intp, intp, float64) and
    made read-only.  Equality and hashing read ``node_count`` and ``edges``.
    """

    node_count: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("tails", np.intp), ("heads", np.intp), ("weights", np.float64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.tails.ndim != 1 or not self.tails.shape == self.heads.shape == self.weights.shape:
            raise InvalidParameterError(
                "tails, heads and weights must be 1-d columns of one length")

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The ``(tail, head, weight)`` triples in edge order, built from the
        columns on each read."""
        return tuple(zip(self.tails.tolist(), self.heads.tolist(), self.weights.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node_count, self.edges) == (other.node_count, other.edges)

    def __hash__(self):
        return hash((self.node_count, self.edges))

    @property
    def edge_count(self) -> int:
        return self.tails.size

    def negative_edge_indices(self) -> list[int]:
        return np.flatnonzero(self.weights < 0.0).tolist()

    def subgraph(self, edge_indices) -> "SignedGraph":
        """Graph on the same node set keeping only the given edges, in the
        given order; a boolean ``edge_indices`` (array or sequence) is a mask."""
        if not isinstance(edge_indices, np.ndarray):
            edge_indices = np.array(list(edge_indices))
            if edge_indices.dtype != bool:  # an empty list reads as float
                edge_indices = edge_indices.astype(np.intp)
        return SignedGraph(self.node_count, self.tails[edge_indices],
                           self.heads[edge_indices], self.weights[edge_indices])

    def positive_subgraph(self) -> "SignedGraph":
        return self.subgraph(self.weights > 0.0)


@dataclass(frozen=True)
class ForestDecomposition:
    """A spanning forest, its complement, and the induced matrix factorizations.

    Columns of ``incidence_full`` are ordered forest edges first, then cycle
    edges.  ``tree_to_cycle`` solves ``incidence_forest @ T = incidence_cycle``
    exactly; ``cut_basis`` is ``[I  T]``, whose rows span the cut space.

    Test oracle: no production route builds one.
    """

    forest_edges: tuple[int, ...]
    cycle_edges: tuple[int, ...]
    component_count: int
    incidence_full: np.ndarray
    incidence_forest: np.ndarray
    incidence_cycle: np.ndarray
    tree_to_cycle: np.ndarray
    cut_basis: np.ndarray

    @property
    def column_order(self) -> tuple[int, ...]:
        """Original edge indices in the forest-then-cycle column order."""
        return self.forest_edges + self.cycle_edges


def _first_degree_overflow(ends: np.ndarray, steps: np.ndarray,
                           hot: np.ndarray) -> tuple[int, float]:
    """Earliest visit at which a running weighted degree reaches DEGREE_BOUND.

    ``ends`` lists the nodes visited edge by edge (tail as given, then head),
    ``steps`` the |w| added at each visit, and ``hot`` the nodes whose total
    reaches the bound.  Each hot node's degree is re-accumulated in visit
    order, as the sums of a per-edge loop would be.  Returns the visit index
    and the degree it reaches.
    """
    order = np.argsort(ends, kind="stable")
    grouped = ends[order]
    best = (ends.size, 0.0)
    for start, stop in zip(np.searchsorted(grouped, hot, side="left"),
                           np.searchsorted(grouped, hot, side="right")):
        with np.errstate(over="ignore"):
            running = np.cumsum(steps[order[start:stop]])
        over = np.flatnonzero(running >= DEGREE_BOUND)
        if over.size and order[start + over[0]] < best[0]:
            best = (int(order[start + over[0]]), float(running[over[0]]))
    return best


def build_graph(node_count: int, edge_list) -> SignedGraph:
    """Validate an edge list and normalize it into a :class:`SignedGraph`.

    Edge orientation is normalized to ``tail = min(u, v)``; the input edge
    order is preserved and defines the edge indices.  Every entry of
    ``edge_list`` is a ``(u, v, w)`` triple, read as ``int(u), int(v),
    float(w)``.

    Every weight magnitude must be at least 2**-1022, the smallest normal
    double, and every node's weighted degree (the sum of its |w|) must stay
    below 2**1022.  Every entry of ``L + L^T`` is then finite, and by
    Gershgorin so is every eigenvalue of L.

    Raises:
        NodeOutOfRangeError, SelfLoopError, ZeroWeightError,
        NonFiniteWeightError: naming the offending edge index.
        GraphConstructionError: the first edge whose magnitude is below
            2**-1022 (after the zero and non-finite checks), or that lifts
            some node's weighted degree to 2**1022 or above, whichever comes
            first in edge order.
    """
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be >= 1, got {node_count}")
    edges = list(edge_list)
    if edges and set(map(len, edges)) != {3}:
        raise InvalidParameterError("every edge must be a (u, v, w) triple")
    # Python ints beyond int64 give an object array, still compared exactly.
    u = np.array(list(map(int, map(itemgetter(0), edges))))
    v = np.array(list(map(int, map(itemgetter(1), edges))))
    w = np.array(list(map(float, map(itemgetter(2), edges))), dtype=float)
    return _graph_from_columns(node_count, u, v, w)


def _graph_from_columns(node_count: int, u: np.ndarray, v: np.ndarray,
                        w: np.ndarray) -> SignedGraph:
    """:func:`build_graph` on its three columns: ``u`` and ``v`` integer
    arrays (object arrays for ints beyond int64), ``w`` a float64 array."""
    m = w.size

    # Per-edge checks, in the order they apply to one edge.
    checks = (
        ((u < 0) | (u >= node_count) | (v < 0) | (v >= node_count),
         NodeOutOfRangeError, "endpoint out of range: ({u}, {v})"),
        (u == v, SelfLoopError, "self-loop at node {u}"),
        (w == 0.0, ZeroWeightError, "zero weight on ({u}, {v})"),
        (~np.isfinite(w), NonFiniteWeightError, "non-finite weight {w!r} on ({u}, {v})"),
        (np.abs(w) < WEIGHT_FLOOR, GraphConstructionError,
         "weight {w!r} on ({u}, {v}) is below 2**-1022 in magnitude"),
    )
    bad = np.zeros(m, dtype=bool)
    for mask, _, _ in checks:
        bad |= np.asarray(mask, dtype=bool)
    first_bad = int(np.argmax(bad)) if bad.any() else m

    # Every edge before the first bad one is valid; degrees accumulate in
    # edge order, tail as given first, as a per-edge loop would add them.
    ends = np.stack([u[:first_bad], v[:first_bad]], axis=1).ravel().astype(np.intp)
    steps = np.repeat(np.abs(w[:first_bad]), 2)
    degree = np.bincount(ends, weights=steps, minlength=node_count)
    hot = np.flatnonzero(degree >= DEGREE_BOUND)
    if hot.size:
        visit, reached = _first_degree_overflow(ends, steps, hot)
        k, x = visit // 2, int(ends[visit])
        raise GraphConstructionError(
            k, f"edge {k}: weight {float(w[k])!r} on ({int(u[k])}, {int(v[k])}) lifts the "
               f"weighted degree of node {x} to {reached!r}, at or above 2**1022")
    if first_bad < m:
        k = first_bad
        for mask, error, message in checks:
            if mask[k]:
                text = message.format(u=int(u[k]), v=int(v[k]), w=float(w[k]))
                raise error(k, f"edge {k}: {text}")
    return SignedGraph(node_count, np.minimum(u, v), np.maximum(u, v), w)


def incidence_matrix(g: SignedGraph) -> np.ndarray:
    """|V| x |E| matrix with -1 at each edge's tail and +1 at its head.

    Test oracle: only the decompositions below use it.
    """
    E = np.zeros((g.node_count, g.edge_count))
    columns = np.arange(g.edge_count)
    E[g.tails, columns] = -1.0
    E[g.heads, columns] = 1.0
    return E


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor.

    Sorting and counting runs stands in for ``np.unique``, which takes
    several times longer on the small integer arrays of the block route.
    """
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


def _first_seen_ids(raw: np.ndarray) -> np.ndarray:
    """``raw`` renumbered 0, 1, 2, ... in order of each id's first occurrence."""
    order = np.argsort(raw, kind="stable")
    first = _first_of_runs(raw[order])
    run = np.cumsum(first) - 1
    # A stable sort puts each id's first occurrence at the head of its run.
    rank = np.empty(int(first.sum()), dtype=np.intp)
    rank[np.argsort(order[first])] = np.arange(rank.size)
    ids = np.empty(raw.size, dtype=np.intp)
    ids[order] = rank[run]
    return ids


def _adjacency_csr(node_count: int, rows: np.ndarray, cols: np.ndarray) -> csr_matrix:
    """Adjacency with one unit entry at ``(rows[k], cols[k])`` per k, each
    row's entries in ascending column order.

    The CSR is filled straight from the columns with csgraph's int32
    indices, not converted from COO.  Repeated pairs (parallel edges) stay
    as repeated entries, which csgraph's undirected search and
    ``depth_first_order`` take; its strong-component search does not
    return on them (scipy 1.17).
    """
    order = np.argsort(rows * node_count + cols)
    indptr = np.zeros(node_count + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
    return csr_matrix((np.ones(rows.size), cols[order].astype(np.int32), indptr),
                      shape=(node_count, node_count))


def _components(node_count: int, tails: np.ndarray, heads: np.ndarray
                ) -> tuple[int, np.ndarray]:
    """Component count and csgraph's labels, in no documented order, of the
    graph whose edges join ``tails[k]`` and ``heads[k]``, from csgraph's
    undirected search over one entry per edge."""
    return connected_components(_adjacency_csr(node_count, tails, heads), directed=False)


def component_labels(g: SignedGraph, skip_edges=()) -> np.ndarray:
    """Connected-component label per node, ignoring ``skip_edges`` (edge
    indices; any that name no edge are ignored).

    Labels are canonical: component ids appear in order of their lowest node.
    csgraph does not document its own label order, so its labels are
    renumbered.
    """
    keep = np.ones(g.edge_count, dtype=bool)
    skip = np.fromiter(skip_edges, dtype=np.intp)
    keep[skip[(skip >= 0) & (skip < g.edge_count)]] = False
    return _first_seen_ids(_components(g.node_count, g.tails[keep], g.heads[keep])[1])


def _adjacency(g: SignedGraph) -> list[list[tuple[int, int]]]:
    """Per node, its ``(edge index, neighbour)`` pairs in ascending edge index."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for k, (u, v, _) in enumerate(g.edges):
        adj[u].append((k, v))
        adj[v].append((k, u))
    return adj


def _dfs_forest(g: SignedGraph) -> tuple[list[int], int]:
    """Deterministic spanning forest: DFS from node 0 ascending, lowest
    admissible edge index first.  Returns (forest edge indices, components)."""
    adj = _adjacency(g)

    visited = [False] * g.node_count
    forest: list[int] = []
    components = 0
    for root in range(g.node_count):
        if visited[root]:
            continue
        components += 1
        visited[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            _, it = stack[-1]
            for k, nb in it:
                if not visited[nb]:
                    visited[nb] = True
                    forest.append(k)
                    stack.append((nb, iter(adj[nb])))
                    break
            else:
                stack.pop()
    return forest, components


def _assemble(g: SignedGraph, forest: tuple[int, ...], cycle: tuple[int, ...],
              components: int) -> ForestDecomposition:
    E = incidence_matrix(g)
    EF = E[:, list(forest)]
    EC = E[:, list(cycle)]
    f, c = len(forest), len(cycle)
    if f > 0 and c > 0:
        # SPD solve of (EF' EF) T = EF' EC; never form the explicit inverse.
        T = cho_solve(cho_factor(EF.T @ EF), EF.T @ EC)
    else:
        T = np.zeros((f, c))
    R = np.hstack([np.eye(f), T])
    return ForestDecomposition(
        forest_edges=forest,
        cycle_edges=cycle,
        component_count=components,
        incidence_full=np.hstack([EF, EC]),
        incidence_forest=EF,
        incidence_cycle=EC,
        tree_to_cycle=T,
        cut_basis=R,
    )


def decompose(g: SignedGraph) -> ForestDecomposition:
    """Split the graph into a deterministic spanning forest and its cycle edges.

    Test oracle: no production route calls it.
    """
    forest_set, components = _dfs_forest(g)
    forest = tuple(sorted(forest_set))
    in_forest = set(forest)
    cycle = tuple(k for k in range(g.edge_count) if k not in in_forest)
    return _assemble(g, forest, cycle, components)


def _symmetric_adjacency(node_count: int, tails: np.ndarray, heads: np.ndarray
                         ) -> csr_matrix:
    """Adjacency listing every edge in both directions, each row in
    ascending neighbour order, so that csgraph's directed routines traverse
    the undirected graph without a transpose."""
    return _adjacency_csr(node_count, np.concatenate([tails, heads]),
                          np.concatenate([heads, tails]))


def _dfs_tree(node_count: int, tails: np.ndarray, heads: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Depth-first preorder and parents of the graph whose edges join
    ``tails[k]`` and ``heads[k]``, from one ``csgraph.depth_first_order``.

    The search starts at the lowest node that has an edge.  When several
    components have edges, their lowest nodes are joined in order by virtual
    edges, so the one search reaches every node with an edge; those edges
    are bridges of the joined graph, so they merge no blocks.  Returns the
    nodes with an edge in preorder, and each node's parent (negative at the
    start and at nodes without an edge).
    """
    if tails.size == 0:
        return np.zeros(0, dtype=np.intp), np.full(node_count, -1, dtype=np.intp)
    adjacency = _symmetric_adjacency(node_count, tails, heads)
    _, labels = connected_components(adjacency, directed=False)
    # Each component's lowest node heads its run in a stable sort of the labels.
    order = np.argsort(labels, kind="stable")
    lowest = order[_first_of_runs(labels[order])]
    lowest = np.sort(lowest[np.diff(adjacency.indptr)[lowest] > 0])
    if lowest.size > 1:
        adjacency = _symmetric_adjacency(node_count, np.concatenate([tails, lowest[:-1]]),
                                         np.concatenate([heads, lowest[1:]]))
    return depth_first_order(adjacency, lowest[0], directed=True, return_predecessors=True)


def _edge_blocks(node_count: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Biconnected block key per edge (equal keys, same block) of the graph
    whose edges join ``tails[k]`` and ``heads[k]``."""
    n = node_count
    degree = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)
    # An edge at a node of degree one is a bridge, a block of its own.  The
    # search leaves such edges out: depth_first_order rescans a node's whole
    # neighbour list each time it returns there, quadratic at a hub of leaves.
    inner = (degree[tails] > 1) & (degree[heads] > 1)
    order, parent = _dfs_tree(n, tails[inner], heads[inner])
    # Work in preorder positions: an ancestor sits before its descendants.
    reached = order.size
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(reached)
    up = np.full(reached, -1, dtype=np.intp)
    up[1:] = position[parent[order[1:]]]
    a, b = position[tails[inner]], position[heads[inner]]
    deep = np.maximum(a, b)
    # Every edge joins an ancestor and a descendant.  Each offers its
    # shallower end to its deeper end's lowpoint: a back edge as usual, and
    # a tree edge (or one parallel to it) the parent itself, which never
    # decides the strict test below.
    low = np.arange(reached)
    np.minimum.at(low, deep, np.minimum(a, b))
    low, up = low.tolist(), up.tolist()
    for p in range(reached - 1, 0, -1):
        if low[p] < low[up[p]]:
            low[up[p]] = low[p]
    # A tree edge whose child reaches above its parent continues the
    # parent's block; every other tree edge heads a block of its own.  Each
    # edge lies in the block of the tree edge entering its deeper end.
    block = list(range(reached))
    for p in range(1, reached):
        if low[p] < up[p]:
            block[p] = block[up[p]]
    key = np.arange(tails.size) + n  # a bridge at a leaf: its own block
    key[inner] = np.array(block, dtype=np.intp)[deep]
    return key


def path_edge_sets(g_plus: SignedGraph, negative_edges) -> list[frozenset[int]]:
    """Edges of ``g_plus`` lying on at least one simple u-v path, per query.

    ``negative_edges`` is a list of ``(u, v)`` node pairs (typically the
    endpoints of negative edges that are *not* part of ``g_plus``).  An edge
    lies on a simple u-v path exactly when it shares a simple cycle, hence a
    biconnected block, with an added u-v edge; the set for a pair is every
    edge of ``g_plus`` in that edge's block.

    No production route calls it: the verdict reads the disjointness of these
    sets from the blocks of the resistance matrix.  It stays public here as the
    definitional oracle of path-edge sets, and because the benchmark's layer
    tracer (``perfbench/tracing.py``) binds it by name.

    Raises:
        InvalidParameterError: a non-positive weight, or a pair that is not
            two distinct nodes of ``g_plus``.
        NodesDisconnectedError: if u and v fall in different components.
    """
    if np.any(g_plus.weights <= 0.0):
        raise InvalidParameterError("path_edge_sets requires an all-positive graph")
    n, count = g_plus.node_count, g_plus.edge_count
    results = []
    for u, v in negative_edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InvalidParameterError(f"invalid node pair ({u}, {v})")
        blocks = _edge_blocks(n, np.append(g_plus.tails, u), np.append(g_plus.heads, v))
        path = frozenset(np.flatnonzero(blocks[:count] == blocks[count]).tolist())
        if not path:  # the added edge is a bridge
            raise NodesDisconnectedError(f"nodes {u} and {v} are not connected")
        results.append(path)
    return results
