"""Shared fixtures: reference graphs, random generators, and independent oracles.

Oracles here deliberately avoid the package's own code paths (direct dense
Laplacian assembly, brute-force path enumeration, BFS component counting) so
tests compare two genuinely different routes to the same number.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

import paper_constructions as pc
import siglap as sl
from siglap.errors import (
    GraphConstructionError,
    NodeOutOfRangeError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)
from siglap.graph_core import SignedGraph

# 9-node caterpillar: path 0-1-2-3-4 with a pendant leaf on each of 0, 1, 3, 4.
# The unit-weight tree has effective resistance 4 between the path ends, so a
# chord (0, 4) of weight -0.25 sits exactly at the semidefiniteness boundary.
CATERPILLAR_TREE = [
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
    (0, 5, 1.0), (1, 6, 1.0), (3, 7, 1.0), (4, 8, 1.0),
]
CHORD_ENDS = (0, 4)


def caterpillar_tree() -> sl.SignedGraph:
    return sl.build_graph(9, CATERPILLAR_TREE)


def caterpillar_with_chord(w: float) -> sl.SignedGraph:
    return sl.build_graph(9, CATERPILLAR_TREE + [(*CHORD_ENDS, w)])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def dense_laplacian(n: int, edges) -> np.ndarray:
    """Laplacian assembled entry by entry, independent of the incidence route."""
    L = np.zeros((n, n))
    for u, v, w in edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


def loop_build_graph(node_count: int, edge_list) -> SignedGraph:
    """``build_graph`` as a per-edge loop: the checks run edge by edge in
    input order and the weighted degrees accumulate in plain floats, so the
    first error names the first offending edge by construction."""
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    tails, heads, weights = [], [], []
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
        if abs(w) < 2.0 ** -1022:
            raise GraphConstructionError(
                k, f"edge {k}: weight {w!r} on ({u}, {v}) is below 2**-1022 in magnitude")
        for x in (u, v):
            degree[x] += abs(w)
            if degree[x] >= 2.0 ** 1022:
                raise GraphConstructionError(
                    k, f"edge {k}: weight {w!r} on ({u}, {v}) lifts the weighted degree "
                       f"of node {x} to {degree[x]!r}, at or above 2**1022")
        tails.append(min(u, v))
        heads.append(max(u, v))
        weights.append(w)
    return SignedGraph(node_count, tails, heads, weights)


def eig_signature(m: np.ndarray, tol: float | None = None) -> tuple[int, int, int]:
    """Signature straight from an eigendecomposition."""
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    if tol is None:
        tol = m.shape[0] * np.finfo(float).eps * max(1e-300, float(np.max(np.abs(eigs))))
    plus = int(np.count_nonzero(eigs > tol))
    minus = int(np.count_nonzero(eigs < -tol))
    return plus, minus, m.shape[0] - plus - minus


def bfs_component_count(n: int, node_pairs) -> int:
    """Components by plain BFS over an explicit pair list."""
    adj = [[] for _ in range(n)]
    for u, v in node_pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        queue = deque([root])
        seen[root] = True
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return count


def brute_force_path_edges(g: sl.SignedGraph, u: int, v: int) -> frozenset[int]:
    """Union of edges over all simple u-v paths, by exhaustive DFS."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for k, (a, b, _) in enumerate(g.edges):
        adj[a].append((k, b))
        adj[b].append((k, a))
    used: set[int] = set()
    visited = [False] * g.node_count
    stack_edges: list[int] = []

    def dfs(node: int) -> None:
        if node == v:
            used.update(stack_edges)
            return
        visited[node] = True
        for k, nb in adj[node]:
            if not visited[nb]:
                stack_edges.append(k)
                dfs(nb)
                stack_edges.pop()
        visited[node] = False

    dfs(u)
    return frozenset(used)


def pairwise_closure_clusters(states: np.ndarray, tol: float
                              ) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Clusters of the final 10% window by brute force: every pair of nodes
    compared sample by sample, then the agreement relation closed by
    repeated relabelling until no agreeing pair straddles two labels.
    Cluster ids follow the lowest node; values are final-state means."""
    m, n = states.shape
    window = states[int(np.floor(0.9 * (m - 1))):]
    agree = [(i, j) for i in range(n) for j in range(i + 1, n)
             if all(abs(float(row[i]) - float(row[j])) <= tol for row in window)]
    root = list(range(n))
    changed = True
    while changed:
        changed = False
        for i, j in agree:
            low = min(root[i], root[j])
            if root[i] != low or root[j] != low:
                root[i] = root[j] = low
                changed = True
    ids: dict[int, int] = {}
    labels = tuple(ids.setdefault(r, len(ids)) for r in root)
    final = states[-1]
    values = tuple(float(np.mean(final[[x for x in range(n) if labels[x] == c]]))
                   for c in range(len(ids)))
    return labels, values


def edge_difference_null_vector(g: sl.SignedGraph) -> np.ndarray:
    """The paper's extra null vector for a single-cycle boundary graph: with
    the positive edges as spanning tree, solve the edge-difference system
    ``E^T x = W^-1 [T_0; -1]`` in the least-squares sense and project out
    the all-ones direction."""
    dec = pc.decompose_with_forest(g, np.flatnonzero(g.weights > 0))
    w = g.weights[list(dec.column_order)]
    rhs = np.append(dec.tree_to_cycle[:, 0], -1.0) / w
    x, *_ = np.linalg.lstsq(dec.incidence_full.T, rhs, rcond=None)
    return x - x.mean()


def rk4_trajectory(L: np.ndarray, x0: np.ndarray, t_final: float, step: float,
                   output_stride: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """The paper's consensus demonstration by fixed-step classical RK4 on
    x' = -L x, recorded at t = 0, every ``output_stride`` steps and at
    ``t_final`` (a shorter last step covers any remainder)."""
    A = -L

    def rk4_step(x, h):
        k1 = A @ x
        k2 = A @ (x + 0.5 * h * k1)
        k3 = A @ (x + 0.5 * h * k2)
        k4 = A @ (x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_steps = int(np.floor(t_final / step + 1e-9))
    remainder = t_final - n_steps * step
    times, states = [0.0], [x0.copy()]
    x = x0.copy()
    for i in range(1, n_steps + 1):
        x = rk4_step(x, step)
        if i % output_stride == 0:
            times.append(i * step)
            states.append(x.copy())
    if remainder > 1e-12 * max(1.0, t_final):
        times.append(t_final)
        states.append(rk4_step(x, remainder))
    elif n_steps % output_stride != 0:
        times.append(n_steps * step)
        states.append(x.copy())
    return np.array(times), np.array(states)


def modal_states(L: np.ndarray, x0: np.ndarray, times) -> np.ndarray:
    """Rows ``V exp(-t Lambda) V^T x0`` of the exact consensus solution."""
    lam, V = np.linalg.eigh(L)
    return np.array([V @ (np.exp(-t * lam) * (V.T @ x0)) for t in times])


def tree_distance(n: int, node_pairs, u: int, v: int) -> int:
    adj = [[] for _ in range(n)]
    for a, b in node_pairs:
        adj[a].append(b)
        adj[b].append(a)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            return dist[x]
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return -1


# ---------------------------------------------------------------------------
# Random graph generators (all driven by a caller-provided Generator)
# ---------------------------------------------------------------------------

def positive_weight(rng) -> float:
    return float(2.0 * (1.0 - rng.random()))  # uniform on (0, 2]


def signed_weight(rng) -> float:
    w = float(rng.uniform(0.1, 2.0))
    return w if rng.random() < 0.5 else -w


def random_connected_positive(rng, n_lo: int = 5, n_hi: int = 10) -> sl.SignedGraph:
    """Random spanning tree plus up to n extra edges, weights in (0, 2]."""
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v, positive_weight(rng)))
    for _ in range(int(rng.integers(0, n + 1))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.append((u, v, positive_weight(rng)))
    return sl.build_graph(n, edges)


def random_tree(rng, n_lo: int = 3, n_hi: int = 10) -> sl.SignedGraph:
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = [(int(rng.integers(0, v)), v, positive_weight(rng)) for v in range(1, n)]
    return sl.build_graph(n, edges)


def blocks_glued_at_cut_vertices(rng) -> tuple[list, list[int]]:
    """Positive edges of 1..5 blocks, each a bridge, a parallel pair or a
    cycle on 3..5 nodes, glued at a node already placed, plus the glue nodes,
    which are cut vertices once a second block hangs on them."""
    edges, glue, n = [], [], 1
    for _ in range(int(rng.integers(1, 6))):
        anchor = int(rng.integers(0, n))
        glue.append(anchor)
        size = int(rng.integers(1, 5))
        ring = [anchor, *range(n, n + size)]
        n += size
        closing = [(ring[-1], anchor)] if size > 1 or rng.random() < 0.5 else []
        for a, b in list(zip(ring, ring[1:])) + closing:
            edges.append((a, b, positive_weight(rng)))
    return edges, glue


def random_signed(rng, max_components: int = 3) -> sl.SignedGraph:
    """1..max_components components, <= 10 nodes, weights in +-[0.1, 2]."""
    c = int(rng.integers(1, max_components + 1))
    sizes = [int(rng.integers(2, 11))] if c == 1 else [int(rng.integers(1, 4)) for _ in range(c)]
    edges = []
    offset = 0
    for size in sizes:
        for v in range(1, size):
            edges.append((offset + int(rng.integers(0, v)), offset + v, signed_weight(rng)))
        if size >= 2:
            for _ in range(int(rng.integers(0, size))):
                u, v = (int(x) for x in rng.choice(size, size=2, replace=False))
                edges.append((offset + u, offset + v, signed_weight(rng)))
        offset += size
    n = offset
    if not edges:  # all-singleton draw; give the graph one edge to stay nontrivial
        return sl.build_graph(max(n, 2), [(0, 1, signed_weight(rng))])
    return sl.build_graph(n, edges)


def triangle_chain_with_chords(rng, n_triangles: int, factors) -> tuple[sl.SignedGraph, list[float]]:
    """Cactus chain of triangles sharing one node; each triangle contributes a
    negative chord at ``factor x`` its threshold magnitude.

    Side weights come from {0.25, 0.5, 1.0, 2.0} so the series resistance and
    the exact-boundary magnitude stay numerically clean.  Returns the graph
    and the per-chord thresholds.
    """
    exact = [0.25, 0.5, 1.0, 2.0]
    edges = []
    chords = []
    thresholds = []
    anchor = 0
    next_node = 1
    for i in range(n_triangles):
        p, q = next_node, next_node + 1
        next_node += 2
        wa = float(rng.choice(exact))
        wb = float(rng.choice(exact))
        edges.append((anchor, p, wa))
        edges.append((p, q, wb))
        r_k = 1.0 / wa + 1.0 / wb
        thresholds.append(1.0 / r_k)
        chords.append((anchor, q, -factors[i] / r_k))
        anchor = q
    return sl.build_graph(next_node, edges + chords), thresholds


def cycle_chain_at_threshold(weights, length=15, chord=3, hop=7):
    """Cycles of ``length`` nodes, cycle i with every weight ``weights[i]``
    and glued at node ``hop`` of cycle i-1, each with one negative chord
    ``chord`` apart at its threshold ``1/R = length w / (chord (length - chord))``."""
    edges, n, anchor = [], 1, 0
    for w in weights:
        ring = [anchor, *range(n, n + length - 1)]
        n += length - 1
        edges += [(ring[i], ring[(i + 1) % length], w) for i in range(length)]
        edges.append((ring[0], ring[chord], -length * w / (chord * (length - chord))))
        anchor = ring[hop]
    return sl.build_graph(n, edges)


def random_boundary_cycle_graph(rng, n_lo: int = 4, n_hi: int = 10) -> sl.SignedGraph:
    """Random weighted tree plus one negative chord at exactly the threshold."""
    n = int(rng.integers(n_lo, n_hi + 1))
    tree_edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.2, 2.0)))
                  for v in range(1, n)]
    pairs = [(u, v) for u, v, _ in tree_edges]
    while True:
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        if tree_distance(n, pairs, u, v) >= 2:
            break
    tree = sl.build_graph(n, tree_edges)
    r_uv = sl.effective_resistance(tree, u, v)
    return sl.build_graph(n, tree_edges + [(u, v, -1.0 / r_uv)])
