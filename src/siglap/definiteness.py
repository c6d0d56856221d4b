"""Semidefiniteness verdicts from resistance thresholds.

A graph with negative edges keeps a positive-semidefinite Laplacian exactly
while each negative weight magnitude stays at or below the inverse effective
resistance between its endpoints over the positive subgraph (per-edge
thresholds require pairwise-disjoint path-edge sets).

The inertia of L comes from an m x m matrix, m being the number of negative
edges.  With D = diag|w_k| over the negative edges, B their incidence columns
and R = B^T L(G+)^+ B the resistance matrix over the positive subgraph
G+ (connected), L = L(G+) - B D B^T and Haynsworth's inertia additivity give
``In(L) = (n-1-m, 0, 1) + In(D^-1 - R)``.  The verdict takes the counts from
``T = I - D^1/2 R D^1/2``, which is congruent to ``D^-1 - R`` and
dimensionless; with disjoint path sets R is diagonal and eig(T) is minus the
per-edge margins.  No verdict forms an n x n matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckError, DisconnectedError, HypothesisViolatedError
from .graph_core import SignedGraph, component_labels, path_edge_sets
from .resistance import resistance_matrix_for_negatives, total_resistance
from .spectra import Signature, signature

# Relative tolerance on |w| * R - 1 deciding boundary equality; also the
# default zero tolerance on eig(T), whose eigenvalues are -margin_k when the
# path sets are disjoint.
BOUNDARY_RTOL = 1e-9
COROLLARY6_SLACK = 1e-9


class Classification(enum.Enum):
    STRICT_INTERIOR = "positive_semidefinite_strict_interior"
    BOUNDARY = "boundary"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class EdgeThreshold:
    """One negative edge against its admissible magnitude.

    ``margin`` is ``|w| * R - 1``: negative inside the PSD region, zero at
    the boundary, positive beyond it.
    """

    edge: tuple[int, int]
    magnitude: float
    threshold: float
    margin: float


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Verdict, per-edge terms and the inertia ``sigma`` of L.

    ``sigma`` counts the eigenvalues of L, lifted from those of the m x m
    matrix T (see the module docstring); its ``tolerance_used`` and
    ``near_singular`` describe the zero test on eig(T).
    """

    classification: Classification
    per_edge: tuple[EdgeThreshold, ...]
    disjointness_hypothesis_holds: bool
    corollary6_satisfied: bool
    sigma: Signature


class Corollary6Result(NamedTuple):
    satisfied: bool
    inverse_weight_sum: float
    total_resistance: float


def _positive_part_connected(g: SignedGraph) -> bool:
    labels = component_labels(g.positive_subgraph())
    return int(labels.max()) == 0


def _classify(margins, rtol: float) -> Classification:
    if any(m > rtol for m in margins):
        return Classification.INDEFINITE
    if any(abs(m) <= rtol for m in margins):
        return Classification.BOUNDARY
    return Classification.STRICT_INTERIOR


def _cross_validate(classification: Classification, sigma: Signature) -> None:
    """Diagonal-margin verdict vs the inertia from the full m x m matrix T.

    The margins read only the diagonal of the resistance matrix, so a wrong
    disjointness answer shows up here.  A boundary verdict is not checked
    against eigenvalue counts: within the boundary tolerance the crossing
    eigenvalue may legitimately sit on either side of the zero threshold.
    """
    if classification is Classification.INDEFINITE and sigma.n_minus == 0:
        raise CrossCheckError(
            f"threshold says indefinite but signature is {sigma.as_tuple()}"
        )
    if classification is Classification.STRICT_INTERIOR and sigma.n_minus > 0:
        raise CrossCheckError(
            f"threshold says positive semidefinite but signature is {sigma.as_tuple()}"
        )


def _resistance_terms(g: SignedGraph, neg: list[int]
                      ) -> tuple[tuple[EdgeThreshold, ...], Corollary6Result,
                                 np.ndarray, list[float]]:
    """Per-edge thresholds, the Corollary 6 test, the resistance matrix R
    over the positive subgraph and the magnitudes |w_k|, for the negative
    edges ``neg`` (a nonempty list of edge indices), from one resistance
    matrix."""
    pairs = [(g.edges[k][0], g.edges[k][1]) for k in neg]
    matrix, diag = resistance_matrix_for_negatives(g.positive_subgraph(), pairs)
    magnitudes = [abs(g.edges[k][2]) for k in neg]
    per_edge = tuple(
        EdgeThreshold(pair, mag, 1.0 / r, mag * r - 1.0)
        for pair, mag, r in zip(pairs, magnitudes, diag)
    )
    r_tot = total_resistance(matrix)
    inv_sum = float(sum(1.0 / mag for mag in magnitudes))
    c6 = Corollary6Result(inv_sum >= r_tot - COROLLARY6_SLACK, inv_sum, r_tot)
    return per_edge, c6, matrix, magnitudes


def _lift_schur_inertia(n: int, inner: Signature) -> Signature:
    """Inertia of an n-node Laplacian, ``(n-1-m, 0, 1) + In(T)``, from the
    inertia ``inner`` of the m x m matrix T.

    Raises:
        CrossCheckError: the counts are impossible (``n-1-m+p < 0``).
    """
    n_plus = n - 1 - inner.dimension + inner.n_plus
    if n_plus < 0:
        raise CrossCheckError(
            f"inertia {inner.as_tuple()} of the {inner.dimension} x {inner.dimension} "
            f"Schur complement is impossible for a Laplacian on {n} nodes"
        )
    return Signature(n_plus, inner.n_minus, 1 + inner.n_zero,
                     inner.tolerance_used, inner.near_singular)


def _schur_signature(n: int, matrix: np.ndarray, magnitudes: list[float],
                     tol: float | None) -> Signature:
    """Inertia of L from ``T = I - D^1/2 R D^1/2``; ``|eig(T)| <= tol``
    (default ``BOUNDARY_RTOL``) counts as zero."""
    root = np.sqrt(magnitudes)
    t = np.eye(root.size) - root[:, None] * matrix * root[None, :]
    return _lift_schur_inertia(n, signature(t, BOUNDARY_RTOL if tol is None else tol))


def single_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for a graph with exactly one negative edge.

    ``tol`` is the zero tolerance on eig(T) (default ``BOUNDARY_RTOL``).

    Raises:
        HypothesisViolatedError: zero or several negative edges, or the
            positive subgraph is disconnected.
    """
    neg = g.negative_edge_indices()
    failures = []
    if len(neg) != 1:
        failures.append(f"exactly one negative edge required, found {len(neg)}")
    if not _positive_part_connected(g):
        failures.append("positive subgraph must be connected")
    if failures:
        raise HypothesisViolatedError(failures)

    per_edge, c6, matrix, magnitudes = _resistance_terms(g, neg)
    classification = _classify([per_edge[0].margin], BOUNDARY_RTOL)
    sigma = _schur_signature(g.node_count, matrix, magnitudes, tol)
    _cross_validate(classification, sigma)
    return DefinitenessVerdict(classification, per_edge, True, c6.satisfied, sigma)


def multi_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for any number (>= 1) of negative edges.

    When the path-edge sets of the negative edges are pairwise disjoint the
    per-edge thresholds decide the verdict, and the inertia of the full m x m
    matrix T must agree with them.  When they are not, the thresholds are
    neither necessary nor sufficient; the inertia of T, which is exact for
    overlapping path sets too, decides the verdict and
    ``disjointness_hypothesis_holds`` is False.

    ``tol`` is the zero tolerance on eig(T) (default ``BOUNDARY_RTOL``).

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        HypothesisViolatedError: no negative edges at all.
    """
    neg = g.negative_edge_indices()
    if not neg:
        raise HypothesisViolatedError(["at least one negative edge required"])
    # Raises DisconnectedError when the positive subgraph is disconnected.
    per_edge, c6, matrix, magnitudes = _resistance_terms(g, neg)
    sets = path_edge_sets(g.positive_subgraph(), [e.edge for e in per_edge])
    disjoint = all(
        not (sets[i] & sets[j]) for i in range(len(sets)) for j in range(i + 1, len(sets))
    )
    sigma = _schur_signature(g.node_count, matrix, magnitudes, tol)
    if disjoint:
        classification = _classify([e.margin for e in per_edge], BOUNDARY_RTOL)
        _cross_validate(classification, sigma)
    else:
        # The per-edge thresholds do not apply; the inertia decides.
        if sigma.n_minus > 0:
            classification = Classification.INDEFINITE
        elif sigma.n_zero > 1:
            classification = Classification.BOUNDARY
        else:
            classification = Classification.STRICT_INTERIOR
    return DefinitenessVerdict(classification, per_edge, disjoint, c6.satisfied, sigma)


def corollary6_check(g: SignedGraph) -> Corollary6Result:
    """Necessary condition: PSD implies sum_k |w_k|^-1 >= R_tot.

    The contrapositive is a cheap rejection test: if the inequality fails,
    the Laplacian cannot be positive semidefinite.  Vacuously true without
    negative edges.
    """
    neg = g.negative_edge_indices()
    if not _positive_part_connected(g):
        raise DisconnectedError("positive subgraph is disconnected")
    if not neg:
        return Corollary6Result(True, 0.0, 0.0)
    return _resistance_terms(g, neg)[1]
