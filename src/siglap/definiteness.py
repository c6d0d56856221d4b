"""Semidefiniteness verdicts from resistance thresholds.

A graph with negative edges keeps a positive-semidefinite Laplacian exactly
while each negative weight magnitude stays at or below the inverse effective
resistance between its endpoints over the positive subgraph (per-edge
thresholds require pairwise-disjoint path-edge sets).

The inertia of L comes from the Schur complement over the m negative edges.
With D = diag|w_k| over the negative edges, B their incidence columns and
R = B^T L(G+)^+ B the resistance matrix over the positive subgraph G+
(connected), L = L(G+) - B D B^T and Haynsworth's inertia additivity give
``In(L) = (n-1-m, 0, 1) + In(D^-1 - R)``.  The verdict takes the counts from
``T = I - D^1/2 R D^1/2``, which is congruent to ``D^-1 - R`` and
dimensionless; with disjoint path sets R is diagonal and eig(T) is minus the
per-edge margins.  No verdict forms an n x n matrix, nor an m x m one: R and
T are block-diagonal (below), and In(T) is the sum of the inertias of their
diagonal blocks, counted by one batched eigenvalue call per block size.

Disjointness needs no path-edge sets: they are pairwise disjoint exactly when
the negative edges lie in distinct biconnected blocks of G.  An edge e in the
path-edge sets of two negative edges f_i and f_j shares a simple cycle with
each, so all three lie in one block of G.  Conversely, adding an edge merges
exactly the blocks on its block-cut-tree path, whose edges form its path-edge
set.  With disjoint sets those paths share no block of G+, so adding the
negative edges one by one merges disjoint groups of blocks, and each negative
edge ends in a block of its own.

The same blocks make R block-diagonal.  A simple path between two nodes of a
block never leaves it: it could only leave through a cut vertex and would
have to come back through the same one.  So the positive part of the block
holding f_k = (u, v) is connected whenever G+ is, the unit current from u to
v, a sum of simple u-v paths, flows only through it, and ``R_jk = 0``
exactly when f_j and f_k lie in different blocks.  The resistance layer makes
the query's one block pass and solves only the blocks holding a negative
edge; the verdict reads those blocks back from R's diagonal blocks, so the
path sets are disjoint exactly when every block of R has size 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .errors import CrossCheckError, HypothesisViolatedError
from .graph_core import SignedGraph, component_labels
from .resistance import _diagonal_blocks, negative_edge_report
from .spectra import Signature, signature

# Default relative tolerance on |w| * R - 1 deciding boundary equality, and
# the default zero tolerance on eig(T), whose eigenvalues are -margin_k when
# the path sets are disjoint.
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

    ``sigma`` counts the eigenvalues of L, lifted from those of the
    block-diagonal matrix T (see the module docstring); its
    ``tolerance_used`` and ``near_singular`` describe the zero test on
    eig(T), near singular when any block of T is.
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
    """Diagonal-margin verdict vs the inertia of the whole of T, off-diagonal
    entries included.

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
                                 csr_array, list[float]]:
    """Per-edge thresholds, the Corollary 6 test, the resistance matrix R
    over the positive subgraph and the magnitudes |w_k|, for the negative
    edges ``neg`` (the indices of all of them), from one resistance matrix.

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        CrossCheckError: a resistance, threshold, margin or Corollary 6 sum
            is not finite (it left the double range).
    """
    report = negative_edge_report(g)
    magnitudes = np.abs(g.weights[neg]).tolist()
    with np.errstate(over="ignore"):
        per_edge = tuple(
            EdgeThreshold((u, v), mag, 1.0 / r, mag * r - 1.0)
            for (u, v, _), mag, r in zip(report.pairs, magnitudes, report.matrix.diagonal())
        )
    inv_sum = float(sum(1.0 / mag for mag in magnitudes))
    if not np.isfinite([x for e in per_edge for x in (e.threshold, e.margin)] + [inv_sum]).all():
        raise CrossCheckError(
            "a resistance, threshold, margin or Corollary 6 sum over the negative "
            "edges is not finite; the weights span more than the double range"
        )
    c6 = Corollary6Result(inv_sum >= report.r_tot - COROLLARY6_SLACK, inv_sum, report.r_tot)
    return per_edge, c6, report.matrix, magnitudes


def _lift_schur_inertia(n: int, inner: Signature) -> Signature:
    """Inertia of an n-node Laplacian, ``(n-1-m, 0, 1) + In(T)``, from the
    inertia ``inner`` of T over the m negative edges.

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


def _schur_signature(n: int, stacks: list[tuple[np.ndarray, np.ndarray]],
                     magnitudes: list[float], tol: float) -> Signature:
    """Inertia of L from ``T = I - D^1/2 R D^1/2``; ``|eig(T)| <= tol``
    counts as zero.  ``stacks`` are R's diagonal blocks by size, from
    :func:`~siglap.resistance._diagonal_blocks`; T is block-diagonal too, and
    its inertia is the sum of its blocks', counted by one batched
    :func:`~siglap.spectra.signature` per block size.
    """
    root = np.sqrt(magnitudes)
    parts = [signature(np.eye(members.shape[1])
                       - root[members][:, :, None] * r * root[members][:, None, :], tol)
             for members, r in stacks]
    inner = Signature(sum(p.n_plus for p in parts), sum(p.n_minus for p in parts),
                      sum(p.n_zero for p in parts), float(tol),
                      any(p.near_singular for p in parts))
    return _lift_schur_inertia(n, inner)


def single_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for a graph with exactly one negative edge.

    ``tol`` is the zero tolerance on eig(T) and on the per-edge margins
    (default ``BOUNDARY_RTOL``).

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
    # One path set is trivially disjoint, so the multi-edge flow classifies
    # the margin and cross-checks it against the inertia of T.
    return multi_edge_verdict(g, tol)


def multi_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for any number (>= 1) of negative edges.

    When the path-edge sets of the negative edges are pairwise disjoint
    (exactly when the negative edges lie in distinct biconnected blocks of G;
    see the module docstring) the per-edge thresholds decide the verdict, and
    the inertia of T must agree with them.  When they
    are not, the thresholds are neither necessary nor sufficient; the inertia
    of T, which is exact for overlapping path sets too, decides the verdict
    and ``disjointness_hypothesis_holds`` is False.

    ``tol`` is the zero tolerance on eig(T) and on the per-edge margins
    (default ``BOUNDARY_RTOL``).

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        HypothesisViolatedError: no negative edges at all.
        CrossCheckError: a resistance, threshold or margin is not finite.
    """
    neg = g.negative_edge_indices()
    if not neg:
        raise HypothesisViolatedError(["at least one negative edge required"])
    # Raises DisconnectedError when the positive subgraph is disconnected.
    per_edge, c6, matrix, magnitudes = _resistance_terms(g, neg)
    stacks = _diagonal_blocks(matrix)
    disjoint = all(members.shape[1] == 1 for members, _ in stacks)
    zero_tol = BOUNDARY_RTOL if tol is None else tol
    sigma = _schur_signature(g.node_count, stacks, magnitudes, zero_tol)
    if disjoint:
        classification = _classify([e.margin for e in per_edge], zero_tol)
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

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        CrossCheckError: a resistance or one of the two sums is not finite.
    """
    return _resistance_terms(g, g.negative_edge_indices())[1]
