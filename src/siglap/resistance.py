"""Effective resistance between node pairs, per-negative-edge resistance
diagonals, and the total-resistance trace.

Over an all-positive graph every resistance comes from one sparse solve of
the grounded Laplacian: ``L(G)`` with the row and column of one node removed,
which is nonsingular on a connected positive graph.  Right-hand sides are
differences of indicator vectors, whose entries sum to zero, so the grounded
solution ``x`` (with ``x = 0`` at the grounded node) gives
``R_uv = x_u - x_v``.  Each solve checks its relative residual
``||L x - b||_inf / (||L||_inf ||x||_inf + ||b||_inf)`` against
``CROSS_CHECK_RTOL`` and raises :class:`CrossCheckError` when it fails.

A graph with any negative weight takes one dense route instead: the
eigendecomposition pseudo-inverse of the full Laplacian.  A signed grounded
Laplacian may itself be singular (at the semidefiniteness boundary it is),
so it cannot be solved there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import CrossCheckError, DisconnectedError, InvalidParameterError
from .graph_core import SignedGraph, component_labels
from .laplacians import laplacian_matrix, sparse_laplacian
from .spectra import pseudo_inverse_eig

CROSS_CHECK_RTOL = 1e-7


@dataclass(frozen=True)
class ResistanceReport:
    """Per-negative-edge resistances over the positive subgraph.

    ``pairs`` holds ``(u, v, R_uv)`` per negative edge in edge order;
    ``diag_r`` is the diagonal resistance matrix; ``r_tot`` is the trace of
    the full quadratic form.
    """

    pairs: tuple[tuple[int, int, float], ...]
    diag_r: np.ndarray
    r_tot: float


def _indicator_difference(n: int, u: int, v: int) -> np.ndarray:
    vec = np.zeros(n)
    vec[u] = 1.0
    vec[v] = -1.0
    return vec


def _grounded_solve(g: SignedGraph, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L(g) x = rhs`` with node 0 grounded (``x[0] = 0``).

    ``g`` must be connected with all-positive weights and every column of
    ``rhs`` (shape ``(n, m)``) must sum to zero, so the grounded system is
    nonsingular and its solution also satisfies the dropped row.

    Raises:
        CrossCheckError: the factorization hits an exactly zero pivot, or the
            relative residual of some column exceeds ``CROSS_CHECK_RTOL``.
    """
    grounded = sparse_laplacian(g)[1:, 1:]
    b = rhs[1:]
    x = np.zeros_like(rhs)
    # The grounded matrix is symmetric positive definite, so a symmetric fill
    # ordering with diagonal pivots is stable; on a 1200-node random tree
    # plus chords its factor has about a quarter of the default's nonzeros.
    try:
        lu = splu(grounded, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # a pivot cancelled to exactly zero
        raise CrossCheckError(f"grounded Laplacian factorization failed: {exc}") from exc
    x[1:] = lu.solve(b)
    norm_l = float(abs(grounded).sum(axis=1).max())
    residual = np.max(np.abs(grounded @ x[1:] - b), axis=0)
    scale = norm_l * np.max(np.abs(x), axis=0) + np.max(np.abs(b), axis=0)
    if not np.all(residual <= CROSS_CHECK_RTOL * scale):
        worst = float(np.max(residual / scale))
        raise CrossCheckError(
            f"grounded Laplacian solve failed its residual check: relative "
            f"residual {worst!r} exceeds {CROSS_CHECK_RTOL!r}"
        )
    return x


def _component_graph(g: SignedGraph, labels: np.ndarray,
                     node: int) -> tuple[SignedGraph, np.ndarray]:
    """The component holding ``node``, renumbered in node order, and the
    old-to-new node index map."""
    inside = labels == labels[node]
    if inside.all():
        return g, np.arange(g.node_count)
    index = np.cumsum(inside) - 1
    keep = inside[g.tails]
    component = SignedGraph._from_columns(int(inside.sum()), index[g.tails[keep]],
                                          index[g.heads[keep]], g.weights[keep])
    return component, index


def effective_resistance(g: SignedGraph, u: int, v: int) -> float:
    """(e_u - e_v)^T L^+ (e_u - e_v).

    The route depends on the weight signs.  An all-positive graph takes one
    grounded sparse solve on the component holding u and v, with its
    residual checked (see the module docstring).  A graph with any negative
    weight takes the eigendecomposition pseudo-inverse of its Laplacian.
    The resistance-threshold theorems only speak about all-positive graphs;
    the value is still defined (and computed) for signed weights, but carries
    no semidefiniteness meaning there.

    Raises:
        InvalidParameterError: u or v is not a node, or u = v.
        DisconnectedError: u and v lie in different components.
        CrossCheckError: the grounded solve fails its residual check.
    """
    n = g.node_count
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidParameterError(f"node out of range: ({u}, {v}) on {n} nodes")
    if u == v:
        raise InvalidParameterError(f"effective resistance needs two distinct nodes, got {u} twice")
    labels = component_labels(g)
    if labels[u] != labels[v]:
        raise DisconnectedError(f"nodes {u} and {v} are in different components")

    if np.all(g.weights > 0.0):
        component, index = _component_graph(g, labels, u)
        cu, cv = int(index[u]), int(index[v])
        rhs = _indicator_difference(component.node_count, cu, cv)[:, None]
        x = _grounded_solve(component, rhs)
        return float(x[cu, 0] - x[cv, 0])

    vec = _indicator_difference(n, u, v)
    return float(vec @ pseudo_inverse_eig(laplacian_matrix(g)) @ vec)


def resistance_matrix_for_negatives(g_plus: SignedGraph, negative_edges):
    """Quadratic form E_-^T L^+(G+) E_- and its diagonal.

    ``g_plus`` must be connected with all-positive weights; ``negative_edges``
    is a list of ``(u, v)`` endpoint pairs.  The diagonal always holds the
    pairwise effective resistances over ``g_plus``; the matrix itself is
    diagonal exactly when the path-edge sets of the pairs are disjoint.
    Computed as ``E_-^T X`` from one grounded sparse solve ``L X = E_-`` with
    all m right-hand sides at once.

    Raises:
        ValueError: a non-positive weight or an invalid node pair.
        DisconnectedError: ``g_plus`` is disconnected.
        CrossCheckError: the grounded solve fails its residual check.

    Returns:
        ``(matrix, diagonal)`` with shapes ``(m, m)`` and ``(m,)``.
    """
    if np.any(g_plus.weights <= 0.0):
        raise ValueError("resistance_matrix_for_negatives requires an all-positive graph")
    labels = component_labels(g_plus)
    if labels.size and labels.max() != 0:
        raise DisconnectedError("positive subgraph is disconnected")

    pairs = list(negative_edges)
    n = g_plus.node_count
    m = len(pairs)
    if m == 0:
        return np.zeros((0, 0)), np.zeros(0)

    E_neg = np.zeros((n, m))
    for k, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"invalid node pair ({u}, {v})")
        E_neg[min(u, v), k] = -1.0
        E_neg[max(u, v), k] = 1.0
    matrix = E_neg.T @ _grounded_solve(g_plus, E_neg)
    # Halve before adding: a resistance above half the largest double still
    # symmetrizes to itself.
    matrix = 0.5 * matrix + 0.5 * matrix.T
    return matrix, np.diag(matrix).copy()


def total_resistance(matrix: np.ndarray) -> float:
    """Trace of the quadratic-form matrix (0 for an empty negative set)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0.0
    return float(np.trace(matrix))


def negative_edge_report(g: SignedGraph) -> ResistanceReport:
    """Resistance report over the positive subgraph for every negative edge."""
    neg = g.negative_edge_indices()
    pairs_in = list(zip(g.tails[neg].tolist(), g.heads[neg].tolist()))
    matrix, diag = resistance_matrix_for_negatives(g.positive_subgraph(), pairs_in)
    pairs = tuple((u, v, float(r)) for (u, v), r in zip(pairs_in, diag))
    return ResistanceReport(pairs=pairs, diag_r=np.diag(diag), r_tot=total_resistance(matrix))
