"""Laplacian-family matrices: the node Laplacian, and the paper's essential
edge Laplacian and cut-basis quadratic form.

The node Laplacian comes in two forms, both scattered straight from the edge
columns in edge order: :func:`sparse_laplacian` (CSC) feeds the ``splu``
route of the grounded resistance solves, :func:`laplacian_matrix` (dense)
feeds the eigenvalue routines.  Its product ``L x`` needs neither form:
:func:`_laplacian_product` reads it from the edge columns for the grounded
solve's residual check and the boundary null vector's check.  The
cut-basis matrices in :class:`LaplacianBundle` stay dense; they are the
paper's closed-form constructions, kept only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix, csc_matrix

from .errors import DisconnectedError, SingularCutGramError
from .graph_core import ForestDecomposition, SignedGraph, _checked_graph
from .spectra import default_zero_tolerance


@dataclass(frozen=True)
class LaplacianBundle:
    """All Laplacian-family matrices for one graph/decomposition pair.

    ``weight_diag`` is the diagonal weight matrix in the decomposition's
    forest-then-cycle edge order; ``cut_gram`` is ``R W R^T``;
    ``essential`` is ``forest_edge_laplacian @ cut_gram`` (nonsymmetric in
    general, but similar to a symmetric matrix).

    Test oracle: no production route builds one.
    """

    laplacian: np.ndarray
    weight_diag: np.ndarray
    cut_gram: np.ndarray
    essential: np.ndarray
    forest_edge_laplacian: np.ndarray


def _laplacian_entries(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the Laplacian's edge contributions.

    Each edge (u, v, w) adds ``w`` at (u, u) and (v, v) and ``-w`` at (u, v)
    and (v, u), listed edge by edge, so accumulating them in order sums every
    entry in edge order.
    """
    u, v, w = g.tails, g.heads, g.weights
    rows = np.stack([u, v, u, v], axis=1).ravel()
    cols = np.stack([u, v, v, u], axis=1).ravel()
    vals = np.stack([w, w, -w, -w], axis=1).ravel()
    return rows, cols, vals


def laplacian_matrix(g: SignedGraph) -> np.ndarray:
    """The weighted node Laplacian E W E^T (symmetric, zero row sums), dense."""
    rows, cols, vals = _laplacian_entries(_checked_graph(g))
    L = np.zeros((g.node_count, g.node_count))
    np.add.at(L, (rows, cols), vals)
    return L


def _laplacian_product(g: SignedGraph, x: np.ndarray) -> np.ndarray:
    """``L x`` for ``x`` of shape ``(n, c)``, from the edge columns: each
    edge's current ``w (x_tail - x_head)`` in each column, gathered once per
    edge end, then scattered to the tails by one bincount and from the heads
    by another.  Column j is row j of ``x.T`` and its keys are shifted by
    ``j n``; one column needs neither a copy nor a shift."""
    n, columns = x.shape
    potential = np.ascontiguousarray(x.T)
    current = potential.take(g.tails, axis=1)
    current -= potential.take(g.heads, axis=1)
    current *= g.weights
    tails, heads = g.tails, g.heads
    if columns != 1:
        shift = n * np.arange(columns)[:, None]
        tails, heads = (tails + shift).ravel(), (heads + shift).ravel()
    current = current.ravel()
    product = np.bincount(tails, weights=current, minlength=n * columns)
    product -= np.bincount(heads, weights=current, minlength=n * columns)
    return product.reshape(columns, n).T


def sparse_laplacian(g: SignedGraph) -> csc_matrix:
    """The weighted node Laplacian in CSC form; parallel edges are summed."""
    rows, cols, vals = _laplacian_entries(g)
    n = g.node_count
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def build_bundle(g: SignedGraph, d: ForestDecomposition) -> LaplacianBundle:
    """Populate every matrix in one pass; ``d`` must derive from ``g``.

    Test oracle: no production route calls it.
    """
    w = g.weights[list(d.column_order)]
    W = np.diag(w)
    E = d.incidence_full
    laplacian = (E * w) @ E.T
    cut_gram = (d.cut_basis * w) @ d.cut_basis.T
    forest_lap = d.incidence_forest.T @ d.incidence_forest
    essential = forest_lap @ cut_gram
    return LaplacianBundle(
        laplacian=laplacian,
        weight_diag=W,
        cut_gram=cut_gram,
        essential=essential,
        forest_edge_laplacian=forest_lap,
    )


def laplacian_pseudo_inverse(b: LaplacianBundle, d: ForestDecomposition) -> np.ndarray:
    """Closed-form Moore-Penrose pseudo-inverse of the Laplacian.

    Valid for a connected graph whose cut-basis quadratic form is invertible
    (equivalently: the Laplacian has exactly one zero eigenvalue).  Computed
    as ``(E_T^L)^T (R W R^T)^(-1) E_T^L`` with ``E_T^L`` the left-inverse of
    the tree incidence matrix.

    Test oracle: no production route calls it; resistances come from the
    grounded solve in :mod:`siglap.resistance`.

    Raises:
        DisconnectedError: the decomposition has more than one component.
        SingularCutGramError: ``cut_gram`` is numerically singular, with an
            eigenvalue at most ``f * eps * max|eig|`` in magnitude (f forest
            edges); callers should fall back to
            :func:`siglap.spectra.pseudo_inverse_eig`.
    """
    if d.component_count != 1:
        raise DisconnectedError("the pseudo-inverse formula requires a connected graph")
    n = d.incidence_forest.shape[0]
    f = d.incidence_forest.shape[1]
    if f == 0:
        return np.zeros((n, n))
    left_inv = cho_solve(cho_factor(b.forest_edge_laplacian), d.incidence_forest.T)
    gram = 0.5 * (b.cut_gram + b.cut_gram.T)
    lam, V = np.linalg.eigh(gram)
    tol = default_zero_tolerance(lam, f)
    if np.min(np.abs(lam)) <= tol:
        raise SingularCutGramError(
            f"cut-basis form is singular at tolerance {tol:.3e}: "
            f"smallest |eigenvalue| = {np.min(np.abs(lam)):.3e}"
        )
    inv_gram = (V / lam) @ V.T
    return left_inv.T @ inv_gram @ left_inv
