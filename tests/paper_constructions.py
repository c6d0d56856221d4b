"""The paper's congruence and similarity constructions, kept as test oracles.

No production route in siglap calls any of them; the tests use them to
reproduce the paper's results and to check the production routes against
an independent construction.  Tests name every paper construction through
this module:

- defined here: the weighted edge Laplacian, the signature of the
  nonsymmetric essential edge Laplacian by similarity, the component count
  after removing edges, the parallel combination of two resistances, the
  decomposition over a caller-chosen spanning forest,
  ``decompose_with_forest``, the canonical biconnected block id per
  edge, ``edge_blocks``, over ``graph_core``'s one lowpoint pass run on
  each component's edges, ``component_edge_masks``, and the
  depth-first search's adjacency built through COO,
  ``symmetric_adjacency``;
- re-exported from ``siglap``: ``graph_core.decompose`` (with
  ``ForestDecomposition`` and ``incidence_matrix``) and
  ``laplacians.build_bundle`` (with ``LaplacianBundle``) and
  ``laplacians.laplacian_pseudo_inverse``.  They still live in the package
  because the benchmark's layer tracer (``perfbench/tracing.py``,
  ``LAYERS``) binds ``decompose``, ``build_bundle`` and
  ``laplacian_pseudo_inverse`` by name there, and its traced run fails when
  a bound name is missing; moving them here waits on a change to the
  benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from siglap.errors import SiglapError, SingularCutGramError
from siglap.graph_core import (
    ForestDecomposition,
    SignedGraph,
    _assemble,
    _edge_blocks,
    _first_seen_ids,
    component_labels,
    decompose,
    incidence_matrix,
)
from siglap.laplacians import LaplacianBundle, build_bundle, laplacian_pseudo_inverse
from siglap.spectra import Signature, _symmetrized, default_zero_tolerance, signature

__all__ = [
    "EdgeLaplacian",
    "FactorNotPDError",
    "ForestDecomposition",
    "LaplacianBundle",
    "SingularCutGramError",
    "build_bundle",
    "component_edge_masks",
    "components_after_edge_removal",
    "decompose",
    "decompose_with_forest",
    "edge_blocks",
    "incidence_matrix",
    "laplacian_pseudo_inverse",
    "parallel_combination",
    "signature_of_similar_nonsymmetric",
    "symmetric_adjacency",
    "weighted_edge_laplacian",
]


class FactorNotPDError(SiglapError, ValueError):
    """A factor that must be positive definite is not."""


@dataclass(frozen=True)
class EdgeLaplacian:
    """Edge-indexed companion matrix plus a flag for its symmetry."""

    matrix: np.ndarray
    symmetric: bool


def weighted_edge_laplacian(g: SignedGraph) -> EdgeLaplacian:
    """|E| x |E| edge Laplacian, in the graph's own edge order.

    With all-positive weights this is the symmetric
    ``W^(1/2) E^T E W^(1/2)``.  A negative weight has no real square root, so
    signed graphs get the product ``W E^T E`` instead, which shares the
    nonzero spectrum (AB and BA have the same nonzero eigenvalues) but is not
    symmetric; the flag says which form was produced.
    """
    E = incidence_matrix(g)
    w = g.weights
    gram = E.T @ E
    if np.all(w > 0.0):
        root = np.sqrt(w)
        return EdgeLaplacian(root[:, None] * gram * root[None, :], True)
    return EdgeLaplacian(w[:, None] * gram, False)


def signature_of_similar_nonsymmetric(pd_factor, symmetric_factor,
                                      tol: float | None = None) -> Signature:
    """Signature of the (nonsymmetric) product ``pd_factor @ symmetric_factor``.

    The product is similar to the symmetric matrix
    ``pd_factor**(1/2) @ symmetric_factor @ pd_factor**(1/2)``, which is
    congruent to ``symmetric_factor``; its signature is computed from that
    symmetric form.

    Raises:
        FactorNotPDError: if ``pd_factor`` is not positive definite.
    """
    A = _symmetrized(pd_factor)
    S = _symmetrized(symmetric_factor)
    if A.shape != S.shape:
        raise ValueError(f"factor shapes differ: {A.shape} vs {S.shape}")
    if A.shape[0] == 0:
        return signature(S, tol)
    lam, V = np.linalg.eigh(A)
    if lam[0] <= default_zero_tolerance(lam, A.shape[0]):
        raise FactorNotPDError(
            f"factor is not positive definite: smallest eigenvalue {lam[0]:.3e}"
        )
    root = (V * np.sqrt(lam)) @ V.T
    return signature(root @ S @ root, tol)


def components_after_edge_removal(g: SignedGraph, removed) -> int:
    """Number of connected components once the given edges are removed
    (isolated nodes count)."""
    labels = component_labels(g, skip_edges=removed)
    return int(labels.max()) + 1


def component_edge_masks(g: SignedGraph) -> list[np.ndarray]:
    """Per component that has an edge, in label order, the mask of its
    edges: the block search takes one connected graph at a time."""
    edge_label = component_labels(g)[g.tails]
    return [edge_label == c for c in np.unique(edge_label)]


def edge_blocks(g: SignedGraph) -> np.ndarray:
    """Biconnected block id per edge, as an int array over the edge indices.

    Two edges share a block exactly when some simple cycle passes through
    both (Hopcroft & Tarjan, CACM 1973).  Weight signs are ignored; block
    ids appear in order of each block's lowest edge index.  Per component,
    one depth-first order from csgraph, lowpoints from the edges by
    ``np.minimum.at`` and one pass in reverse preorder.
    """
    key = np.empty(g.edge_count, dtype=np.intp)
    for c, inside in enumerate(component_edge_masks(g)):
        # One component's keys stay below node_count + edge_count.
        key[inside] = (_edge_blocks(g.node_count, g.tails[inside], g.heads[inside])
                       + c * (g.node_count + g.edge_count))
    return _first_seen_ids(key)


def symmetric_adjacency(node_count: int, tails: np.ndarray, heads: np.ndarray):
    """CSR adjacency listing every edge in both directions, by COO -> CSR
    conversion, which sums parallel edges into one entry and sorts each
    row: the oracle for ``graph_core._symmetric_adjacency``, which fills
    its CSR straight from the edge columns and keeps parallel edges as
    repeated entries, with the same neighbour order in every row."""
    rows = np.concatenate([tails, heads])
    cols = np.concatenate([heads, tails])
    return coo_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(node_count, node_count)).tocsr()


def parallel_combination(r_plus: float, r_minus: float) -> float:
    """Equivalent resistance of r_plus and r_minus in parallel.

    ``r_minus = -r_plus`` is an open circuit and returns ``math.inf``.
    """
    if r_plus <= 0.0:
        raise ValueError(f"r_plus must be positive, got {r_plus}")
    if r_minus == 0.0:
        raise ValueError("r_minus must be nonzero")
    total = r_plus + r_minus
    if total == 0.0:
        return math.inf
    return r_plus * r_minus / total


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
