"""The paper's congruence and similarity constructions, kept as test oracles.

No production route in siglap calls any of them; the tests use them to
reproduce the paper's results and to check the production routes against
an independent construction.  Tests name every paper construction through
this module:

- defined here: the weighted edge Laplacian, the signature of the
  nonsymmetric essential edge Laplacian by similarity, the component count
  after removing edges, and the parallel combination of two resistances;
- re-exported from ``siglap``: the spanning-forest decomposition, the
  cut-basis matrices and the closed-form pseudo-inverse.  They still live
  in the package because the benchmark's tracer binds them by name there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from siglap.errors import SiglapError, SingularCutGramError
from siglap.graph_core import (
    ForestDecomposition,
    SignedGraph,
    component_labels,
    decompose,
    decompose_with_forest,
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
    "components_after_edge_removal",
    "decompose",
    "decompose_with_forest",
    "incidence_matrix",
    "laplacian_pseudo_inverse",
    "parallel_combination",
    "signature_of_similar_nonsymmetric",
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
