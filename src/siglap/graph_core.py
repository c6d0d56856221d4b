"""Signed weighted graphs and the combinatorial decompositions everything else consumes.

A :class:`SignedGraph` is immutable: a node count plus an ordered tuple of
undirected edges ``(tail, head, weight)`` with ``tail < head`` and a nonzero
weight.  Edge indices -- positions in that tuple -- are the handles used by
every other module.  All operations here are pure functions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
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

    Raises:
        NodeOutOfRangeError, SelfLoopError, ZeroWeightError,
        NonFiniteWeightError: naming the offending edge index.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    edges = []
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
        edges.append((min(u, v), max(u, v), w))
    return SignedGraph(node_count, tuple(edges))


def incidence_matrix(g: SignedGraph) -> np.ndarray:
    """|V| x |E| matrix with -1 at each edge's tail and +1 at its head."""
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
    """Split the graph into a deterministic spanning forest and its cycle edges."""
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


def _biconnected_edge_components(g: SignedGraph) -> list[list[int]]:
    """Partition the edges into biconnected components (lists of edge indices).

    Iterative lowpoint algorithm; parallel edges are handled by tracking the
    entering edge index instead of the parent vertex.
    """
    n = g.node_count
    adj = _adjacency(g)

    disc = [-1] * n
    low = [0] * n
    comps: list[list[int]] = []
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
                    comp = []
                    while True:
                        e = estack.pop()
                        comp.append(e)
                        if e == pe:
                            break
                    comps.append(comp)
        assert not estack, "edge stack must drain between roots"
    return comps


def path_edge_sets(g_plus: SignedGraph, negative_edges) -> list[frozenset[int]]:
    """Edges of ``g_plus`` lying on at least one simple u-v path, per query.

    ``negative_edges`` is a list of ``(u, v)`` node pairs (typically the
    endpoints of negative edges that are *not* part of ``g_plus``).  The set
    for a pair is the union of the biconnected components along the block-cut
    tree path between u and v: within a biconnected block every edge is
    reachable on some simple path between any two of its vertices.

    Raises:
        NodesDisconnectedError: if u and v fall in different components.
    """
    if any(w <= 0.0 for _, _, w in g_plus.edges):
        raise ValueError("path_edge_sets requires an all-positive graph")

    blocks = _biconnected_edge_components(g_plus)
    node_blocks: dict[int, list[int]] = {}
    for b, comp in enumerate(blocks):
        nodes_b = set()
        for k in comp:
            u, v, _ = g_plus.edges[k]
            nodes_b.add(u)
            nodes_b.add(v)
        for node in nodes_b:
            node_blocks.setdefault(node, []).append(b)

    cut_nodes = {node for node, bs in node_blocks.items() if len(bs) > 1}
    n_blocks = len(blocks)
    # Block-cut tree: block b is tree node b, cut vertex v is tree node n_blocks + v.
    tree_adj: dict[int, list[int]] = {}
    for node in cut_nodes:
        cnode = n_blocks + node
        for b in node_blocks[node]:
            tree_adj.setdefault(cnode, []).append(b)
            tree_adj.setdefault(b, []).append(cnode)

    def anchor(u: int) -> int | None:
        if u in cut_nodes:
            return n_blocks + u
        bs = node_blocks.get(u)
        return bs[0] if bs else None

    results = []
    for u, v in negative_edges:
        su, sv = anchor(u), anchor(v)
        if su is None or sv is None:
            raise NodesDisconnectedError(f"nodes {u} and {v} are not connected")
        if su == sv:
            path_nodes = [su]
        else:
            parents: dict[int, int | None] = {su: None}
            queue = deque([su])
            while queue and sv not in parents:
                x = queue.popleft()
                for y in tree_adj.get(x, ()):
                    if y not in parents:
                        parents[y] = x
                        queue.append(y)
            if sv not in parents:
                raise NodesDisconnectedError(f"nodes {u} and {v} are not connected")
            path_nodes = []
            x: int | None = sv
            while x is not None:
                path_nodes.append(x)
                x = parents[x]
        edge_set: set[int] = set()
        for x in path_nodes:
            if x < n_blocks:
                edge_set.update(blocks[x])
        results.append(frozenset(edge_set))
    return results


def components_after_edge_removal(g: SignedGraph, removed) -> int:
    """Number of connected components once the given edges are removed
    (isolated nodes count)."""
    labels = component_labels(g, skip_edges=removed)
    return int(labels.max()) + 1
