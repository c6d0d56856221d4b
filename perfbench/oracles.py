"""Reference computations the benchmark checks siglap's outputs against.

Nothing here calls siglap: the Laplacian is assembled entry by entry, the
resistances come from a grounded sparse LU solve, the consensus state from
an exact eigendecomposition, and component counts from a plain BFS.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu


def dense_laplacian(n: int, edges) -> np.ndarray:
    """Weighted Laplacian assembled entry by entry from ``(u, v, w)`` triples."""
    L = np.zeros((n, n))
    for u, v, w in edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


class GroundedSolver:
    """Effective resistances over the positive edges of a connected graph.

    Node 0 is grounded: the Laplacian with row and column 0 removed is
    nonsingular, so ``R_uv = (e_u - e_v)^T x`` with ``L_g x = (e_u - e_v)``
    restricted to nodes 1..n-1 and ``x_0 = 0``.
    """

    def __init__(self, n: int, edges):
        rows, cols, vals = [], [], []
        for u, v, w in edges:
            if w <= 0.0:
                continue
            rows += [u, v, u, v]
            cols += [u, v, v, u]
            vals += [w, w, -w, -w]
        lap = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        self.n = n
        self.lu = splu(lap[1:, 1:].tocsc())

    def resistance(self, u: int, v: int) -> float:
        rhs = np.zeros(self.n)
        rhs[u] += 1.0
        rhs[v] -= 1.0
        x = np.zeros(self.n)
        x[1:] = self.lu.solve(rhs[1:])
        return float(x[u] - x[v])


def cycle_threshold(length: int, distance: int) -> float:
    """1/R between two nodes ``distance`` apart on a unit-weight cycle."""
    return length / (distance * (length - distance))


def modal_solution(lap: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Exact state of x' = -L x at time t: V exp(-Lambda t) V^T x0."""
    lam, V = np.linalg.eigh(lap)
    return V @ (np.exp(-lam * t) * (V.T @ x0))


def bfs_component_count(n: int, node_pairs) -> int:
    """Connected components of the graph on n nodes with the given edges."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in node_pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return count


def tree_path_edges(n: int, tree_edges, u: int, v: int) -> list[int]:
    """Indices into ``tree_edges`` of the unique u-v path, by BFS from u."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b, _) in enumerate(tree_edges):
        adj[a].append((k, b))
        adj[b].append((k, a))
    via: dict[int, tuple[int, int] | None] = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for k, y in adj[x]:
            if y not in via:
                via[y] = (k, x)
                queue.append(y)
    path = []
    x = v
    while via[x] is not None:
        k, x = via[x]
        path.append(k)
    return path


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)
