"""Signed weighted graphs, their connected components and biconnected blocks.

A :class:`SignedGraph` is immutable: a node count plus three read-only numpy
columns over the undirected edges, ``tails``, ``heads`` and ``weights``, with
``tail < head`` (checked on construction) and a nonzero weight.  Edge
indices -- positions in those columns -- are the handles used by every
other module, and every graph step
here and in the other modules reads the columns.  All operations here are
pure functions.

One lowpoint pass, :func:`_edge_blocks`, answers every cycle question: the
path-edge sets of the negative edges are pairwise disjoint exactly when those
edges lie in distinct blocks of G, their resistance matrix is block-diagonal
over those blocks, and at the single-cycle boundary the cycle is the block
holding the negative edge.  A query makes the pass once, inside the
resistance layer's block solve, over G+ plus the negative edges; the verdict
reads the blocks back from the resistance matrix, and cluster prediction
reads the block keys the solve returns.  The pass makes one depth-first
search and labels nothing: G+ is tested connected first.  The
spanning-forest decomposition below is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, depth_first_order

from .errors import (
    CrossCheckError,
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

    Parallel edges are permitted and kept distinct.  The constructor is the
    one check of the invariant every graph holds: integer, integer and real
    columns of one length; per edge ``tails[k] < heads[k]``, both ends
    nodes and a finite weight of magnitude at least 2**-1022; and weighted
    degrees (sums of |w|) below 2**1022, which keeps every entry of
    ``L + L^T``, and by Gershgorin every eigenvalue of L, finite.  Each
    column is copied to its dtype (intp, intp, float64) and held on an
    immutable buffer, so it cannot be made writeable.  Equality, hashing,
    pickling and copying read ``node_count`` and the columns alone.

    Raises:
        InvalidParameterError: a wrong type or shape, or the first edge
            with ``tails[k] > heads[k]``.
        NodeOutOfRangeError, SelfLoopError, ZeroWeightError,
        NonFiniteWeightError, GraphConstructionError (a magnitude below
            2**-1022): the first fault of the first edge that has one, in
            this order; else GraphConstructionError for the first edge at a
            node whose weighted degree reaches 2**1022.
    """

    node_count: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self._hold(*_check_columns(self.node_count, self.tails, self.heads, self.weights))

    def _hold(self, node_count: int, *columns: np.ndarray) -> None:
        """Store the fields, each column (intp, intp, float64) copied onto
        an immutable ``bytes`` buffer: numpy refuses to make an array on such
        a buffer writeable, and the buffer itself has no flag to flip."""
        object.__setattr__(self, "node_count", node_count)
        for name, column in zip(("tails", "heads", "weights"), columns):
            object.__setattr__(self, name, np.frombuffer(column.tobytes(), dtype=column.dtype))

    def __getstate__(self):
        """The four fields only.  Unpickled columns would be writeable, so
        :meth:`__setstate__` holds them again; and what other modules keep
        on the graph (the resistance layer's pair factorizations) is neither
        pickled nor copied."""
        return self.node_count, self.tails, self.heads, self.weights

    def __setstate__(self, state):
        self._hold(*state)

    @classmethod
    def _derived(cls, node_count: int, *columns: np.ndarray) -> "SignedGraph":
        """A graph of fresh intp, intp and float64 columns taken from a
        checked graph, not checked again.  The caller keeps the invariant:
        it only drops edges, so degrees only fall, copies weights, and
        renumbers nodes keeping their order, so ``tail < head`` holds."""
        g = object.__new__(cls)
        g._hold(node_count, *columns)
        return g

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
        given order; a boolean ``edge_indices`` (array or sequence) is a mask
        over every edge.

        Raises:
            InvalidParameterError: a mask of another length, an index that
                is not an integer from 0 to ``edge_count - 1``, or an index
                given twice.
        """
        m = self.edge_count
        if not isinstance(edge_indices, np.ndarray):
            edge_indices = np.array(list(edge_indices))
        if edge_indices.dtype == bool:
            if edge_indices.shape != (m,):
                raise InvalidParameterError(
                    f"an edge mask must have shape ({m},), got {edge_indices.shape}")
        elif edge_indices.size == 0:  # an empty list reads as float
            edge_indices = np.zeros(0, dtype=np.intp)
        elif (edge_indices.dtype.kind not in "iu" or edge_indices.ndim != 1
              or edge_indices.min() < 0 or edge_indices.max() >= m):
            raise InvalidParameterError(
                f"edge indices must be integers from 0 to {m - 1}, got {edge_indices.tolist()}")
        elif np.bincount(edge_indices).max() > 1:  # a repeat could lift a degree
            raise InvalidParameterError(f"edge indices must be distinct, got "
                                        f"{edge_indices.tolist()}")
        return SignedGraph._derived(self.node_count, self.tails[edge_indices],
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


def build_graph(node_count: int, edge_list) -> SignedGraph:
    """The :class:`SignedGraph` of an edge list, each edge oriented
    ``tail = min(u, v)``; the input edge order is preserved and defines the
    edge indices.  Every entry of ``edge_list`` is a ``(u, v, w)`` triple of
    two node ids and a weight read by ``float``.  A node id is a Python or
    numpy integer: a bool, or a float even when its value is whole (``2.0``),
    is refused, as by the node-pair check and the graph-file reader.  A
    weight that is text (``"1.5"``, ``b"1"``) or a bool is refused too,
    although ``float`` reads it.

    Raises:
        InvalidParameterError: ``node_count`` is not an integer >= 1,
            ``edge_list`` is not an iterable of ``(u, v, w)`` triples, a
            node id is not an integer, or a weight is text, a bool or not
            read by ``float`` (each naming the first such edge).
        GraphConstructionError: the graph breaks the invariant of
            :class:`SignedGraph`, at the edge ``edge_index``.
    """
    node_count = _checked_node_count(node_count)
    try:
        edges = list(edge_list)
        lengths = set(map(len, edges))
    except TypeError:
        raise InvalidParameterError("edge_list must be an iterable of (u, v, w) triples") from None
    if edges and lengths != {3}:
        raise InvalidParameterError("every edge must be a (u, v, w) triple")
    u, v, w = (list(map(itemgetter(i), edges)) for i in range(3))
    if not all(map(_is_integer, u + v)):
        k = next(k for k, ends in enumerate(zip(u, v)) if not all(map(_is_integer, ends)))
        raise InvalidParameterError(f"edge {k}: node ids must be integers, got ({u[k]!r}, {v[k]!r})")
    weights = list(map(_weight, w))
    if None in weights:
        k = weights.index(None)
        raise InvalidParameterError(f"edge {k}: weight must be a real number, got {w[k]!r}")
    w = np.array(weights, dtype=float)
    try:
        ends = np.array([u, v], dtype=np.intp)
    except OverflowError:  # an id beyond 64 bits, left for the range check
        ends = np.array([u, v], dtype=object)
    return SignedGraph(node_count, ends.min(axis=0), ends.max(axis=0), w)


# Values that ``float`` reads but that are not weights: text and bools.
_NOT_WEIGHTS = (str, bytes, bytearray, bool, np.bool_)


def _weight(x) -> float | None:
    """``x`` read by ``float`` as a weight of an edge list, or None when it
    is not one: text or a bool, or a value that ``float`` cannot read."""
    if isinstance(x, _NOT_WEIGHTS):
        return None
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return None


def _checked_node_count(node_count, least: int = 1) -> int:
    """``node_count`` as an int, once checked to be an integer (a bool is not
    one) and at least ``least``."""
    if not _is_integer(node_count):
        raise InvalidParameterError(f"node_count must be an integer, got {node_count!r}")
    if node_count < least:
        raise InvalidParameterError(f"node_count must be >= {least}, got {node_count}")
    return int(node_count)


def _check_columns(node_count, tails, heads, weights
                   ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The fields of a :class:`SignedGraph`, checked as its docstring says:
    ``node_count`` as an int and fresh intp, intp and float64 columns."""
    n = _checked_node_count(node_count, 0)
    given = []
    for name, column in (("tails", tails), ("heads", heads), ("weights", weights)):
        try:
            column = np.asarray(column)
        except ValueError:  # a ragged nesting
            column = np.array(None)
        kind = column.dtype.kind
        # Objects pass as integers when all are (ids beyond 64 bits, no node's).
        if kind == "O" and name != "weights" and all(map(_is_integer, column.ravel().tolist())):
            kind = "i"
        if column.size and kind not in ("iuf" if name == "weights" else "iu"):
            what = "real numbers" if name == "weights" else "integers"
            raise InvalidParameterError(f"{name} must be a column of {what}")
        given.append(column)
    t, h, w = given
    if t.ndim != 1 or not t.shape == h.shape == w.shape:
        raise InvalidParameterError("tails, heads and weights must be 1-d columns of one length")
    reversed_ends = t > h
    if reversed_ends.any():
        k = int(np.argmax(reversed_ends))
        raise InvalidParameterError(f"edge {k}: tail {t[k]} >= head {h[k]}")
    w = w.astype(np.float64)
    size = np.abs(w)
    # Per-edge faults, in their precedence on one edge.
    faults = (
        ((t < 0) | (h >= n), NodeOutOfRangeError, "endpoint out of range: ({t}, {h})"),
        (t == h, SelfLoopError, "self-loop at node {t}"),
        (w == 0.0, ZeroWeightError, "zero weight on ({t}, {h})"),
        (~np.isfinite(w), NonFiniteWeightError, "non-finite weight {w!r} on ({t}, {h})"),
        (size < WEIGHT_FLOOR, GraphConstructionError,
         "weight {w!r} on ({t}, {h}) is below 2**-1022 in magnitude"),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in faults])
    if bad.any():
        k = int(np.argmax(bad))
        error, text = next((error, text) for mask, error, text in faults if mask[k])
        raise error(k, f"edge {k}: " + text.format(t=t[k], h=h[k], w=float(w[k])))
    t, h = t.astype(np.intp), h.astype(np.intp)
    # Each node's degree sums its |w| in edge order, as a per-edge loop would.
    degree = np.bincount(np.stack([t, h], axis=1).ravel(), weights=np.repeat(size, 2),
                         minlength=n)
    hot = degree >= DEGREE_BOUND
    if hot.any():
        k = int(np.argmax(hot[t] | hot[h]))
        x = int(t[k] if hot[t[k]] else h[k])
        raise GraphConstructionError(
            k, f"edge {k}: node {x} of ({t[k]}, {h[k]}) has weighted degree "
               f"{float(degree[x])!r}, at or above 2**1022")
    return n, t, h, w


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer, not a bool: a node id, a
    node count or an output stride.  An exact type test, as the pair check
    makes two per pair: ``isinstance(x, numbers.Integral)`` took about 15
    times as long on an int (0.9 against 0.06 us, 2-core Xeon)."""
    return type(x) is int or isinstance(x, np.integer)


def _node_pairs(node_count: int, pairs, labels: np.ndarray | None = None) -> np.ndarray:
    """``pairs`` (an iterable or an array) as one ``(m, 2)`` intp array, each
    checked in order to be two node ids (:func:`_is_integer`) of distinct
    nodes, and of one component when ``labels`` gives a component per node.
    The first bad pair raises :class:`InvalidParameterError`, or
    :class:`NodesDisconnectedError` when its only fault is the components."""
    n = node_count
    ends = []
    for pair in pairs.tolist() if isinstance(pairs, np.ndarray) else pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InvalidParameterError(f"a node pair must be two node ids, got {pair!r}") from None
        if not (_is_integer(u) and _is_integer(v)):
            raise InvalidParameterError(f"node ids must be integers, got ({u!r}, {v!r})")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"node out of range: ({u}, {v}) on {n} nodes")
        if u == v:
            raise InvalidParameterError(
                f"effective resistance needs two distinct nodes, got {u} twice")
        if labels is not None and labels[u] != labels[v]:
            raise NodesDisconnectedError(f"nodes {u} and {v} are in different components")
        ends.append((u, v))
    return np.array(ends, dtype=np.intp).reshape(-1, 2)


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


def _without_lower_neighbour(node_count: int, tails: np.ndarray, heads: np.ndarray
                             ) -> np.ndarray:
    """Mask of the nodes that have no lower-numbered neighbour in the graph
    whose edges join ``tails[k] < heads[k]`` (stored edges).

    A certificate of connectivity: stepping to a lower neighbour until there
    is none joins every node to a node of the mask, so when the mask holds
    only the first k nodes, every node is joined to one of them.  A
    connected graph numbered in order (each node but the first after one of
    its neighbours, as in any search order) passes it with k = 1; a
    scrambled numbering usually fails it, and then only a search can tell.
    """
    lacking = np.ones(node_count, dtype=bool)
    lacking[heads] = False
    return lacking


def _components(node_count: int, tails: np.ndarray, heads: np.ndarray
                ) -> tuple[int, np.ndarray]:
    """Component count and labels, in no documented order, of the graph
    whose edges join ``tails[k]`` and ``heads[k]``: one component, all
    labels 0, when :func:`_without_lower_neighbour` certifies it, and
    otherwise from csgraph's undirected search over one entry per edge."""
    if not _without_lower_neighbour(node_count, tails, heads)[1:].any():
        return 1, np.zeros(node_count, dtype=np.int32)
    return connected_components(_adjacency_csr(node_count, tails, heads), directed=False)


def component_labels(g: SignedGraph, skip_edges=()) -> np.ndarray:
    """Connected-component label per node, ignoring ``skip_edges`` (edge
    indices; any that name no edge are ignored).

    Labels are canonical: component ids appear in order of their lowest node.
    csgraph does not document its own label order, so its labels are
    renumbered.

    Raises:
        InvalidParameterError: an entry of ``skip_edges`` is not an integer
            (a bool is not one) or does not fit in 64 bits.
    """
    keep = np.ones(g.edge_count, dtype=bool)
    skip = np.array(list(skip_edges))
    if skip.size and skip.dtype.kind not in "iu":
        raise InvalidParameterError(f"skip_edges must be edge indices, got {skip.tolist()}")
    skip = skip.astype(np.intp)
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
    ``tails[k]`` and ``heads[k]``, from one ``csgraph.depth_first_order``
    started at the lowest node that has an edge: the nodes with an edge in
    preorder, and each node's parent (negative at the start and at nodes
    without an edge).  Those nodes must be connected, as they are once G+
    is tested and in each component :func:`path_edge_sets` passes; a
    search that misses one raises :class:`CrossCheckError`.
    """
    if tails.size == 0:
        return np.zeros(0, dtype=np.intp), np.full(node_count, -1, dtype=np.intp)
    adjacency = _symmetric_adjacency(node_count, tails, heads)
    has_edge = np.diff(adjacency.indptr) > 0
    order, parent = depth_first_order(adjacency, int(np.argmax(has_edge)), directed=True,
                                      return_predecessors=True)
    if order.size != np.count_nonzero(has_edge):
        raise CrossCheckError("the block search missed a node with an edge: the graph "
                              "handed to it is not connected")
    return order, parent


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
    edge of ``g_plus`` in that edge's block.  ``g_plus`` is labelled once,
    and each pair's block pass runs on the edges of its own component.

    No production route calls it: the verdict reads the disjointness of these
    sets from the blocks of the resistance matrix.  It stays public here as the
    definitional oracle of path-edge sets, and because the benchmark's layer
    tracer (``perfbench/tracing.py``) binds it by name.

    Raises:
        InvalidParameterError: a non-positive weight, or a bad pair (see
            :func:`_node_pairs`).
        NodesDisconnectedError: u and v lie in different components.
    """
    if np.any(g_plus.weights <= 0.0):
        raise InvalidParameterError("path_edge_sets requires an all-positive graph")
    n = g_plus.node_count
    labels = _components(n, g_plus.tails, g_plus.heads)[1]
    results = []
    for u, v in _node_pairs(n, negative_edges, labels).tolist():
        inside = np.flatnonzero(labels[g_plus.tails] == labels[u])
        blocks = _edge_blocks(n, np.append(g_plus.tails[inside], u),
                              np.append(g_plus.heads[inside], v))
        results.append(frozenset(inside[blocks[:-1] == blocks[-1]].tolist()))
    return results
