"""Semidefiniteness verdicts from resistance thresholds.

A graph with negative edges keeps a positive-semidefinite Laplacian exactly
while each negative weight magnitude stays at or below the inverse effective
resistance between its endpoints over the positive subgraph (per-edge
thresholds require pairwise-disjoint path-edge sets).  One entry point,
:func:`multi_edge_verdict`, gives the verdict for any number of negative
edges; the paper's single-edge theorem is its case m = 1.

The inertia of L comes from the Schur complement over the m negative edges.
With D = diag|w_k| over the negative edges, B their incidence columns and
R = B^T L(G+)^+ B the resistance matrix over the positive subgraph G+
(connected), L = L(G+) - B D B^T and Haynsworth's inertia additivity give
``In(L) = (n-1-m, 0, 1) + In(D^-1 - R)``.  The verdict takes the counts from
``T = I - D^1/2 R D^1/2``, which is congruent to ``D^-1 - R`` and
dimensionless.  Its diagonal entry ``1 - |w_k| R_kk`` is minus the per-edge
margin, and T takes it from the margin itself, so the two agree bit for bit;
with disjoint path sets R is diagonal and eig(T) is minus the margins.  The
counts alone decide the verdict.  No verdict forms an n x n matrix, nor an
m x m one: R and T are block-diagonal (below), and In(T) is the sum of the
inertias of their diagonal blocks, counted by one batched eigenvalue call per
block size.

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
the query's one block pass, over G+ alone, and solves only the blocks of G+
on the negative edges' paths.  Two negative edges couple in R when their
paths share a block of G+, and so do the edges coupled to either: those
groups are the negative edges of each block of G, and R's layout holds one
diagonal block per group.  The verdict reads those blocks back from R, so
the path sets are disjoint exactly when every block of R has size 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from ._inputs import _check_tolerance
from .errors import CrossCheckError, HypothesisViolatedError
from .graph_core import SignedGraph, _checked_graph
from .resistance import _diagonal_blocks, negative_edge_report
from .spectra import Signature, signature

# Default zero tolerance on eig(T).  T's diagonal is -margin_k, where the
# margin |w| * R - 1 is a negative edge's relative distance from its threshold.
BOUNDARY_RTOL = 1e-9
# Relative slack of the Corollary 6 test sum_k |w_k|^-1 >= R_tot.
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


def _resistance_terms(g: SignedGraph, neg: list[int]
                      ) -> tuple[tuple[EdgeThreshold, ...], Corollary6Result, csr_array]:
    """Per-edge thresholds, the Corollary 6 test and the resistance matrix R
    over the positive subgraph, for the negative edges ``neg`` (the indices
    of all of them), from one resistance matrix.

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
            for (u, v, r), mag in zip(report.pairs, magnitudes)
        )
    inv_sum = float(sum(1.0 / mag for mag in magnitudes))
    if not np.isfinite([x for e in per_edge for x in (e.threshold, e.margin)] + [inv_sum]).all():
        raise CrossCheckError(
            "a resistance, threshold, margin or Corollary 6 sum over the negative "
            "edges is not finite; the weights span more than the double range"
        )
    c6 = Corollary6Result(inv_sum >= (1.0 - COROLLARY6_SLACK) * report.r_tot,
                          inv_sum, report.r_tot)
    return per_edge, c6, report.matrix


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
                     per_edge: tuple[EdgeThreshold, ...], tol: float) -> Signature:
    """Inertia of L from ``T = I - D^1/2 R D^1/2``; ``|eig(T)| <= tol``
    counts as zero.  ``stacks`` are R's diagonal blocks by size, from
    :func:`~siglap.resistance._diagonal_blocks`; T is block-diagonal too, and
    its inertia is the sum of its blocks', counted by one batched
    :func:`~siglap.spectra.signature` per block size.  T's diagonal is
    ``-margin_k``, the printed margin bit for bit, and its off-diagonal
    entries are ``-|w_j|^1/2 R_jk |w_k|^1/2``.
    """
    root = np.sqrt([e.magnitude for e in per_edge])
    diag = -np.array([e.margin for e in per_edge])
    parts = []
    for members, r in stacks:
        t = -root[members][:, :, None] * r * root[members][:, None, :]
        k = np.arange(members.shape[1])
        t[:, k, k] = diag[members]
        parts.append(signature(t, tol))
    inner = Signature(sum(p.n_plus for p in parts), sum(p.n_minus for p in parts),
                      sum(p.n_zero for p in parts), tol,
                      any(p.near_singular for p in parts))
    return _lift_schur_inertia(n, inner)


def multi_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for any number (>= 1) of negative edges.

    The inertia of T alone decides it: INDEFINITE when T has a negative
    eigenvalue, BOUNDARY when it has a zero one, STRICT_INTERIOR otherwise.
    T's diagonal is minus the per-edge margins, so when the path-edge sets
    of the negative edges are pairwise disjoint (exactly when the negative
    edges lie in distinct biconnected blocks of G; see the module docstring)
    T is that diagonal and the counts are the per-edge threshold test.  When
    they are not, the thresholds are neither necessary nor sufficient, the
    inertia of T is exact all the same, and ``disjointness_hypothesis_holds``
    is False.

    ``tol`` is the zero tolerance on eig(T) (default ``BOUNDARY_RTOL``); the
    margins are not tested apart from it.

    Raises:
        InvalidToleranceError: ``tol`` is not a real number, or negative or
            NaN.
        DisconnectedError: the positive subgraph is disconnected.
        HypothesisViolatedError: no negative edges at all.
        CrossCheckError: a resistance, threshold or margin is not finite.
    """
    tol = BOUNDARY_RTOL if tol is None else _check_tolerance(tol)
    neg = _checked_graph(g).negative_edge_indices()
    if not neg:
        raise HypothesisViolatedError(["at least one negative edge required"])
    # Raises DisconnectedError when the positive subgraph is disconnected.
    per_edge, c6, matrix = _resistance_terms(g, neg)
    stacks = _diagonal_blocks(matrix)
    disjoint = all(members.shape[1] == 1 for members, _ in stacks)
    sigma = _schur_signature(g.node_count, stacks, per_edge, tol)
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
    the Laplacian cannot be positive semidefinite.  The test allows a
    relative slack, ``sum >= (1 - COROLLARY6_SLACK) * R_tot``, so its answer
    does not change when every weight is scaled.  Vacuously true without
    negative edges.

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        CrossCheckError: a resistance or one of the two sums is not finite.
    """
    return _resistance_terms(g, _checked_graph(g).negative_edge_indices())[1]
