"""Semidefiniteness verdicts from resistance thresholds.

A graph with negative edges keeps a positive-semidefinite Laplacian exactly
while each negative weight magnitude stays at or below the inverse effective
resistance between its endpoints over the positive subgraph (per-edge
thresholds require pairwise-disjoint path-edge sets).  Every threshold
verdict is cross-validated against the directly computed signature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CrossCheckError, DisconnectedError, HypothesisViolatedError
from .graph_core import SignedGraph, component_labels, path_edge_sets
from .laplacians import laplacian_matrix
from .resistance import resistance_matrix_for_negatives, total_resistance
from .spectra import Signature, signature

# Relative tolerance on |w| * R - 1 deciding boundary equality.
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
    """Threshold verdict vs directly computed signature.

    A boundary verdict is not checked against eigenvalue counts: within the
    boundary tolerance the crossing eigenvalue may legitimately sit on either
    side of the spectral zero threshold.
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
                      ) -> tuple[tuple[EdgeThreshold, ...], Corollary6Result]:
    """Per-edge thresholds and the Corollary 6 test for the negative edges
    ``neg`` (a nonempty list of edge indices), from one resistance matrix
    over the positive subgraph."""
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
    return per_edge, c6


def single_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for a graph with exactly one negative edge.

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

    per_edge, c6 = _resistance_terms(g, neg)
    classification = _classify([per_edge[0].margin], BOUNDARY_RTOL)
    sigma = signature(laplacian_matrix(g), tol)
    _cross_validate(classification, sigma)
    return DefinitenessVerdict(classification, per_edge, True, c6.satisfied, sigma)


def multi_edge_verdict(g: SignedGraph, tol: float | None = None) -> DefinitenessVerdict:
    """Verdict for any number (>= 1) of negative edges.

    When the path-edge sets of the negative edges are pairwise disjoint the
    per-edge thresholds decide the verdict (and the signature must agree).
    When they are not, the thresholds are neither necessary nor sufficient,
    so the verdict comes from the signature alone and
    ``disjointness_hypothesis_holds`` is False.

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        HypothesisViolatedError: no negative edges at all.
    """
    neg = g.negative_edge_indices()
    if not neg:
        raise HypothesisViolatedError(["at least one negative edge required"])
    if not _positive_part_connected(g):
        raise DisconnectedError("positive subgraph is disconnected")

    g_plus = g.positive_subgraph()
    pairs = [(g.edges[k][0], g.edges[k][1]) for k in neg]
    sets = path_edge_sets(g_plus, pairs)
    disjoint = all(
        not (sets[i] & sets[j]) for i in range(len(sets)) for j in range(i + 1, len(sets))
    )
    per_edge, c6 = _resistance_terms(g, neg)
    sigma = signature(laplacian_matrix(g), tol)
    if disjoint:
        classification = _classify([e.margin for e in per_edge], BOUNDARY_RTOL)
        _cross_validate(classification, sigma)
    else:
        # Theorem inapplicable; fall back to the direct spectral verdict.
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
    _, c6 = _resistance_terms(g, neg)
    return c6
