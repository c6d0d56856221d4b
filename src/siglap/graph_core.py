"""Signed weighted graphs, their connected components and biconnected blocks.

A :class:`SignedGraph` is immutable: a node count plus an ordered tuple of
undirected edges ``(tail, head, weight)`` with ``tail < head`` and a nonzero
weight.  Edge indices -- positions in that tuple -- are the handles used by
every other module.  All operations here are pure functions.

One lowpoint pass, :func:`edge_blocks`, answers every cycle question: the
path-edge sets of the negative edges are pairwise disjoint exactly when those
edges lie in distinct blocks of G, and at the single-cycle boundary the cycle
is the block holding the negative edge.  The spanning-forest decomposition
below is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    GraphConstructionError,
    NodeOutOfRangeError,
    NodesDisconnectedError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)


@dataclass(frozen=True)
class SignedGraph:
    """Undirected graph with nonzero, possibly negative, edge weights.

    Parallel edges are permitted and kept distinct; self-loops are rejected
    at construction (see :func:`build_graph`).
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.edges], dtype=float)

    def negative_edge_indices(self) -> list[int]:
        return [k for k, (_, _, w) in enumerate(self.edges) if w < 0.0]

    def positive_edge_indices(self) -> list[int]:
        return [k for k, (_, _, w) in enumerate(self.edges) if w > 0.0]

    def subgraph(self, edge_indices) -> "SignedGraph":
        """Graph on the same node set keeping only the given edges, in the given order."""
        return SignedGraph(self.node_count, tuple(self.edges[k] for k in edge_indices))

    def positive_subgraph(self) -> "SignedGraph":
        return self.subgraph(self.positive_edge_indices())


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
    """Validate an edge list and normalize it into a :class:`SignedGraph`.

    Edge orientation is normalized to ``tail = min(u, v)``; the input edge
    order is preserved and defines the edge indices.

    Every node's weighted degree (the sum of its |w|) must stay below
    2**1022.  Every entry of ``L + L^T`` is then finite, and by Gershgorin
    so is every eigenvalue of L.

    Raises:
        NodeOutOfRangeError, SelfLoopError, ZeroWeightError,
        NonFiniteWeightError: naming the offending edge index.
        GraphConstructionError: the first edge that lifts some node's
            weighted degree to 2**1022 or above.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    edges = []
    degree = [0.0] * node_count
    for k, (u, v, w) in enumerate(edge_list):
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise NodeOutOfRangeError(k, f"edge {k}: endpoint out of range: ({u}, {v})")
        if u == v:
            raise SelfLoopError(k, f"edge {k}: self-loop at node {u}")
        if w == 0.0:
            raise ZeroWeightError(k, f"edge {k}: zero weight on ({u}, {v})")
        if not math.isfinite(w):
            raise NonFiniteWeightError(k, f"edge {k}: non-finite weight {w!r} on ({u}, {v})")
        for x in (u, v):
            degree[x] += abs(w)
            if degree[x] >= 2.0 ** 1022:
                raise GraphConstructionError(
                    k, f"edge {k}: weight {w!r} on ({u}, {v}) lifts the weighted degree "
                       f"of node {x} to {degree[x]!r}, at or above 2**1022")
        edges.append((min(u, v), max(u, v), w))
    return SignedGraph(node_count, tuple(edges))


def incidence_matrix(g: SignedGraph) -> np.ndarray:
    """|V| x |E| matrix with -1 at each edge's tail and +1 at its head.

    Test oracle: only the decompositions below use it.
    """
    E = np.zeros((g.node_count, g.edge_count))
    for k, (u, v, _) in enumerate(g.edges):
        E[u, k] = -1.0
        E[v, k] = 1.0
    return E


def _canonical_labels(node_count: int, tails, heads) -> np.ndarray:
    """Connected-component label per node of the graph on ``node_count`` nodes
    whose edges join ``tails[k]`` and ``heads[k]``.

    Component ids appear in order of their lowest node; csgraph does not
    document its own label order, so its labels are renumbered.
    """
    adjacency = coo_matrix((np.ones(len(tails)), (tails, heads)),
                           shape=(node_count, node_count))
    _, raw = connected_components(adjacency, directed=False)
    _, lowest = np.unique(raw, return_index=True)
    return np.unique(lowest[raw], return_inverse=True)[1]


def component_labels(g: SignedGraph, skip_edges=()) -> np.ndarray:
    """Connected-component label per node, ignoring ``skip_edges``.

    Labels are canonical: component ids appear in order of their lowest node.
    """
    skip = set(skip_edges)
    kept = [(u, v) for k, (u, v, _) in enumerate(g.edges) if k not in skip]
    ends = np.array(kept, dtype=int).reshape(-1, 2)
    return _canonical_labels(g.node_count, ends[:, 0], ends[:, 1])


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


def decompose_with_forest(g: SignedGraph, forest_edges) -> ForestDecomposition:
    """Decomposition with a caller-chosen spanning forest.

    ``forest_edges`` must be acyclic and maximal (one fewer edge than nodes in
    every component the graph has).  Both follow from component counts: the
    forest is acyclic exactly when it has ``n - components(forest)`` edges,
    and spanning exactly when ``components(forest) == components(g)``.

    Test oracle: no production route calls it.

    Raises:
        ValueError: the forest closes a cycle or does not span the graph.
    """
    forest = tuple(sorted(set(forest_edges)))
    forest_components = int(component_labels(g.subgraph(forest)).max()) + 1
    if len(forest) != g.node_count - forest_components:
        raise ValueError("forest edges close a cycle")
    components = int(component_labels(g).max()) + 1
    if forest_components != components:
        raise ValueError(
            f"forest has {len(forest)} edges; a spanning forest needs "
            f"{g.node_count - components}"
        )
    in_forest = set(forest)
    cycle = tuple(k for k in range(g.edge_count) if k not in in_forest)
    return _assemble(g, forest, cycle, components)


def edge_blocks(g: SignedGraph) -> np.ndarray:
    """Biconnected block id per edge, as an int array over the edge indices.

    Two edges share a block exactly when some simple cycle passes through
    both (Hopcroft & Tarjan, CACM 1973).  Weight signs are ignored.
    Iterative lowpoint algorithm; parallel edges are handled by tracking the
    entering edge index instead of the parent vertex.
    """
    n = g.node_count
    adj = _adjacency(g)

    disc = [-1] * n
    low = [0] * n
    blocks = np.empty(g.edge_count, dtype=int)
    block_count = 0
    estack: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, object]] = [(root, -1, iter(adj[root]))]
        while stack:
            node, pe, it = stack[-1]
            descended = False
            for k, nb in it:
                if k == pe:
                    continue
                if disc[nb] == -1:
                    estack.append(k)
                    disc[nb] = low[nb] = timer
                    timer += 1
                    stack.append((nb, k, iter(adj[nb])))
                    descended = True
                    break
                if disc[nb] < disc[node]:
                    estack.append(k)
                    if disc[nb] < low[node]:
                        low[node] = disc[nb]
            if descended:
                continue
            stack.pop()
            if stack:
                parent_node = stack[-1][0]
                if low[node] < low[parent_node]:
                    low[parent_node] = low[node]
                if low[node] >= disc[parent_node]:
                    while True:
                        e = estack.pop()
                        blocks[e] = block_count
                        if e == pe:
                            break
                    block_count += 1
        assert not estack, "edge stack must drain between roots"
    return blocks


def path_edge_sets(g_plus: SignedGraph, negative_edges) -> list[frozenset[int]]:
    """Edges of ``g_plus`` lying on at least one simple u-v path, per query.

    ``negative_edges`` is a list of ``(u, v)`` node pairs (typically the
    endpoints of negative edges that are *not* part of ``g_plus``).  An edge
    lies on a simple u-v path exactly when it shares a simple cycle, hence a
    biconnected block, with an added u-v edge; the set for a pair is every
    edge of ``g_plus`` in that edge's block.

    Raises:
        ValueError: a non-positive weight, or a pair that is not two
            distinct nodes of ``g_plus``.
        NodesDisconnectedError: if u and v fall in different components.
    """
    if any(w <= 0.0 for _, _, w in g_plus.edges):
        raise ValueError("path_edge_sets requires an all-positive graph")
    n, count = g_plus.node_count, g_plus.edge_count
    results = []
    for u, v in negative_edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"invalid node pair ({u}, {v})")
        blocks = edge_blocks(SignedGraph(n, g_plus.edges + ((u, v, 1.0),)))
        path = frozenset(np.flatnonzero(blocks[:count] == blocks[count]).tolist())
        if not path:  # the added edge is a bridge
            raise NodesDisconnectedError(f"nodes {u} and {v} are not connected")
        results.append(path)
    return results
