"""Effective resistance between node pairs, and the resistance matrix of the
negative edges with its trace, the total resistance.

Over an all-positive graph every resistance comes from a sparse solve of a
grounded Laplacian: ``L`` with the row and column of one node per connected
component removed, which is nonsingular.  Right-hand sides are differences
of indicator vectors, whose entries sum to zero over each component, so the
grounded solution ``x`` (with ``x = 0`` at the grounded nodes) gives
``R_uv = x_u - x_v``.  Each solve checks its relative residual
``||L x - b||_inf / (||L||_inf ||x||_inf + ||b||_inf)`` against
``CROSS_CHECK_RTOL`` and raises :class:`CrossCheckError` when it fails.

The factorization is chosen from the grounded matrix as it comes, in the
node order it has (George & Liu, *Computer Solution of Large Sparse
Positive Definite Systems*, 1981).  With ``n_f`` rows and bandwidth
``bw = max |i - j|`` over its nonzeros, it is factored by banded Cholesky
(LAPACK ``dpbtrf``/``dpbtrs``, the band assembled straight from the edge
columns) when the band storage ``n_f (bw + 1)`` is at most ``_BAND_RATIO``
= 32 times its nonzeros, and by ``splu`` with a minimum-degree ordering
otherwise.  The ratio is about 7.6 on a 36x36 grid in row-major order and
0.7 on the blocks of a chain of cycles, which take the band; about 100 on
a random tree numbered breadth-first and 210 on a random tree plus chords,
which take ``splu``.  The constant also bounds the band's memory.  A mesh
given in scrambled node order has a wide band and takes ``splu``: the same
answers, at ``splu``'s speed.  The banded route eliminates the free nodes
from the highest down, so a tree whose every node is numbered after its
parent is eliminated leaves first: with unit weights every pivot is 1 and
every potential exact, as under ``splu``'s minimum-degree order.  LAPACK
stops only on a pivot that is not positive, so that route also raises
:class:`CrossCheckError` when a pivot has cancelled to rounding level,
``c_jj**2 <= eps * A_jj``.

Pairs are all checked before any solve; then they take one solve per
component holding one, with one right-hand-side column per pair.  Pair
queries factor each component once per graph: the first query on a
component factors its grounded Laplacian, and the factor, with the graph's
component labels, is kept in a private record on the graph
(:class:`_PairFactors`) that every later pair query on it reuses, so a later
call makes only the triangular solves and its own residual check, and gives
the same bits.  That pays only when one graph object is asked for pairs
more than once, as when the thresholds ``1/R_uv`` of several candidate
negative edges are read on one positive graph; a first query factors as
before.  The record holds one factor per queried component (about
0.38 MB for a 36x36 grid on the band), lives as long as the graph, and is
dropped when the graph is pickled or copied; a factorization that fails
keeps nothing.  The block solve below, behind the verdict, ``check-psd``
and cluster prediction, factors on every call and keeps nothing, and a
signed graph pays its dense route on every call.

The resistance matrix of the negative edges is block-diagonal over the
biconnected blocks of G (G+ plus the negative edges): a simple u-v path
never leaves the block of the u-v edge, so the current between the ends of
a negative edge flows only through the positive edges of that edge's block,
and two negative edges in different blocks do not couple.  It takes one
solve of the blocks that hold a negative edge, each on its own node copies
(a cut vertex gets one copy per block) and grounded at its lowest copy;
right-hand-side column ``c`` carries the c-th negative edge of every block.
The matrix is kept sparse, with only its entries within blocks, so its size
is the sum of the squared numbers of negative edges per block, not m x m.
G+ is tested once, up front, and a disconnected G+ raises
:class:`DisconnectedError` before any block is formed: the threshold
theorems need it connected.  Connectivity is certified from the node
numbering when every node but the first has a lower-numbered neighbour (an
in-order numbering, such as any search order), and labelled by csgraph
otherwise; the same holds for the copies of the solved blocks, so a
scrambled order pays a labelling of each.  The block pass's one search
labels nothing, as G+ is connected.  The query's one biconnected-block pass
is made here: the verdict reads the blocks back from R through
:func:`_diagonal_blocks`, and cluster prediction reads R_uv, the block keys
and the potentials from :func:`_block_solve`.  The tests on the solved
blocks cross-check the block ids.

A graph with any negative weight takes one dense route instead: the
eigendecomposition pseudo-inverse of the full Laplacian.  A signed grounded
Laplacian may itself be singular (at the semidefiniteness boundary it is),
so it cannot be solved there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

from .errors import CrossCheckError, DisconnectedError, InvalidParameterError
from .graph_core import (SignedGraph, _components, _edge_blocks, _first_of_runs,
                         _node_pairs, _without_lower_neighbour)
from .laplacians import _laplacian_product, laplacian_matrix, sparse_laplacian
from .spectra import pseudo_inverse_eig

CROSS_CHECK_RTOL = 1e-7

# Band storage over nonzeros at or below which the grounded matrix is
# factored banded (see the module docstring).  Measured in-process on a
# 2-core Xeon with two BLAS threads, assembly included: banded was faster on
# k x k grids up to k = 160 (ratio 32; 0.63 against 3.1 ms at k = 36), splu
# on a 50 x 200 grid (ratio 41; 24 against 38 ms) and on random trees and
# trees plus chords numbered breadth-first from ratio 62 up (0.34 against
# 0.67 ms on a 307-node tree, ratio 99).
_BAND_RATIO = 32

# A banded Cholesky pivot c_jj with c_jj**2 <= _PIVOT_EPS * A_jj has cancelled
# to rounding level: LAPACK stops only on a pivot that is not positive.
_PIVOT_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ResistanceReport:
    """Per-negative-edge resistances over the positive subgraph.

    ``pairs`` holds ``(u, v, R_uv)`` per negative edge in edge order;
    ``matrix`` is the resistance matrix ``E_-^T L^+(G+) E_-``, block-diagonal
    over the biconnected blocks of G and stored as a ``scipy.sparse``
    ``csr_array`` with only the entries within blocks (diagonal exactly when
    the path-edge sets are disjoint); ``r_tot`` is its trace.
    """

    pairs: tuple[tuple[int, int, float], ...]
    matrix: csr_array
    r_tot: float


def _band(g: SignedGraph, grounded: int) -> int | None:
    """The bandwidth of ``g``'s Laplacian without its first ``grounded`` rows
    and columns, in the node order ``g`` has, when the banded route factors
    that matrix; None when ``splu`` does.

    The rule is one comparison: band storage ``n_f (bw + 1)`` against
    ``_BAND_RATIO`` times the nonzeros the edges scatter, ``n_f`` on the
    diagonal and two per edge between free nodes (n_f free nodes).
    """
    inner = g.tails >= grounded
    width = int(np.max(g.heads[inner] - g.tails[inner], initial=0))
    free = g.node_count - grounded
    return width if free * (width + 1) <= _BAND_RATIO * (free + 2 * int(inner.sum())) else None


@dataclass(frozen=True, eq=False)
class _GroundedFactor:
    """``g``'s Laplacian without its first ``grounded`` rows and columns,
    factored once: ``width`` is its bandwidth on the banded route and None
    on the ``splu`` route, ``factor`` the read-only ``dpbtrf`` band or the
    ``SuperLU`` object, and ``norm`` its ``||A||_inf``, the residual scale."""

    g: SignedGraph
    grounded: int
    width: int | None
    factor: object
    norm: float


def _band_factor(g: SignedGraph, grounded: int, width: int) -> np.ndarray:
    """The LAPACK banded Cholesky factor (``dpbtrf``) of the grounded matrix,
    its band assembled straight from the edge columns, made read-only."""
    n, free = g.node_count, g.node_count - grounded
    k = width + 1
    # Free nodes in reverse order, so the highest is eliminated first.
    first, second = n - 1 - g.heads, n - 1 - g.tails
    inner = second < free
    # Lower band storage in Fortran order: A[i, j] (i >= j) at j * k + i - j.
    ends = np.concatenate([first, second[inner]])
    index = np.concatenate([ends * k, first[inner] * k + (second - first)[inner]])
    value = np.concatenate([g.weights, g.weights[inner], -g.weights[inner]])
    band = np.bincount(index, weights=value, minlength=k * free).reshape(k, free, order="F")
    diagonal = band[0].copy()
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0 or np.any(factor[0] ** 2 <= _PIVOT_EPS * diagonal):
        raise CrossCheckError("grounded Laplacian factorization failed: a banded Cholesky "
                              "pivot cancelled to rounding level")
    factor.flags.writeable = False
    return factor


def _splu_factor(g: SignedGraph, grounded: int):
    """The SuperLU factorization of the grounded matrix, sliced from the CSC
    Laplacian."""
    free = sparse_laplacian(g)[grounded:, grounded:]
    # The grounded matrix is symmetric positive definite, so a symmetric fill
    # ordering with diagonal pivots is stable; on a 1200-node random tree
    # plus chords its factor has about a quarter of the default's nonzeros.
    # Without supernode relaxation (relax=1, panel_size=1) the factor has
    # the same nonzeros but comes faster on these small sparse matrices,
    # measured in-process on a 2-core Xeon: 1.44 -> 0.99 ms on a 36x36 grid,
    # 2.29 -> 1.88 ms on the blocks of that tree plus chords, 0.20 -> 0.17 ms
    # on the blocks of a chain of 90 15-cycles.
    try:
        return splu(free, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    relax=1, panel_size=1, options={"SymmetricMode": True})
    except RuntimeError as exc:  # a pivot cancelled to exactly zero
        raise CrossCheckError(f"grounded Laplacian factorization failed: {exc}") from exc


def _grounded_factor(g: SignedGraph, grounded: int) -> _GroundedFactor:
    """The factorization of ``L`` with its first ``grounded`` rows and
    columns removed, banded Cholesky or ``splu`` as :func:`_band` decides.

    ``g`` is an all-positive graph each of whose components holds exactly
    one of the first ``grounded`` nodes, so that matrix is nonsingular.

    Raises:
        CrossCheckError: a pivot cancels (exactly, or to rounding level on
            the banded route).
    """
    width = _band(g, grounded)
    factor = (_splu_factor(g, grounded) if width is None
              else _band_factor(g, grounded, width))
    # |w| on the diagonal at each end, and again off it between free nodes;
    # the rows of grounded nodes are dropped.
    inner = g.tails >= grounded
    row_abs = np.tile(np.abs(g.weights) * (1.0 + inner), 2)
    norm = float(np.bincount(np.concatenate([g.tails, g.heads]), weights=row_abs,
                             minlength=g.node_count)[grounded:].max())
    return _GroundedFactor(g, grounded, width, factor, norm)


def _grounded_solve(f: _GroundedFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = rhs`` with ``x = 0`` at the first ``f.grounded`` nodes,
    by the factorization ``f``, and check the residual.

    Every column of ``rhs`` (shape ``(n, c)``) sums to zero over each
    component of ``f.g``, so the solution also satisfies the dropped rows.

    Raises:
        CrossCheckError: the relative residual of some column exceeds
            ``CROSS_CHECK_RTOL``.
    """
    grounded = f.grounded
    b = rhs[grounded:]
    x = np.zeros_like(rhs)
    x[grounded:] = (f.factor.solve(b) if f.width is None
                    else dpbtrs(f.factor, b[::-1], lower=1)[0][::-1])
    # L x from the edge columns, whichever route solved; the rows of grounded
    # nodes are dropped.
    product = _laplacian_product(f.g, x)[grounded:]
    residual = np.max(np.abs(product - b), axis=0)
    scale = f.norm * np.max(np.abs(x[grounded:]), axis=0) + np.max(np.abs(b), axis=0)
    if not np.all(residual <= CROSS_CHECK_RTOL * scale):
        worst = float(np.max(residual / scale))
        raise CrossCheckError(
            f"grounded Laplacian solve failed its residual check: relative "
            f"residual {worst!r} exceeds {CROSS_CHECK_RTOL!r}"
        )
    return x


def _pair_solve(f: _GroundedFactor, ends: np.ndarray, column: np.ndarray) -> np.ndarray:
    """:func:`_grounded_solve` by ``f`` of the right-hand side whose column
    ``column[k]`` holds +1 at ``ends[k, 0]`` and -1 at ``ends[k, 1]``, for
    each pair k; pairs sharing a column share no node."""
    rhs = np.zeros((f.g.node_count, int(column.max()) + 1))
    rhs[ends[:, 0], column] = 1.0
    rhs[ends[:, 1], column] = -1.0
    return _grounded_solve(f, rhs)


@dataclass(eq=False)
class _PairFactors:
    """What pair queries on one graph reuse, kept on the graph as
    ``_pair_factors``: its component labels; each node's rank within its
    component, None when the graph is connected; and, by label, the grounded
    factorization of each component a pair has queried, stored only once it
    has succeeded.  Pickling and copying a graph drop it."""

    labels: np.ndarray
    local: np.ndarray | None
    factors: dict[int, _GroundedFactor]


def _pair_factors(g: SignedGraph) -> _PairFactors:
    """``g``'s :class:`_PairFactors`, made and kept on ``g`` by its first
    pair query.  Two threads racing on it may both make one, which is
    harmless: the graph is immutable."""
    record = getattr(g, "_pair_factors", None)
    if record is None:
        count, labels = _components(g.node_count, g.tails, g.heads)
        local = None
        if count > 1:  # a node's rank among its component's nodes, in order
            order = np.argsort(labels, kind="stable")
            ranked = labels[order]
            local = np.empty(labels.size, dtype=np.intp)
            local[order] = np.arange(labels.size) - np.searchsorted(ranked, ranked)
        record = _PairFactors(labels, local, {})
        object.__setattr__(g, "_pair_factors", record)
    return record


def _pair_resistances(g: SignedGraph, pairs) -> list[float]:
    """``R_uv`` for each ``(u, v)`` of ``pairs``, in order.

    Every pair is checked first by :func:`_node_pairs`, in order, and the
    first that fails raises its error before anything is factored.  Then an
    all-positive graph takes one grounded solve per component holding a
    pair, with one right-hand-side column per pair, by that component's
    factorization, made by the first query that needs it and then kept in
    ``g``'s :class:`_PairFactors`; a graph with any negative weight takes one
    eigendecomposition pseudo-inverse.
    """
    n = g.node_count
    record = _pair_factors(g)
    labels = record.labels
    ends = _node_pairs(n, pairs, labels)
    if not np.all(g.weights > 0.0):
        inverse = pseudo_inverse_eig(laplacian_matrix(g))
        # Row k is L^+ (e_u - e_v) of pair k.
        potential = inverse[ends[:, 0]] - inverse[ends[:, 1]]
        column = np.arange(len(ends))
        return (potential[column, ends[:, 0]] - potential[column, ends[:, 1]]).tolist()
    pair_label = labels[ends[:, 0]]
    values = np.empty(len(ends))
    for label in dict.fromkeys(pair_label.tolist()):  # in order of first pair
        mine = np.flatnonzero(pair_label == label)
        mine_ends = ends[mine] if record.local is None else record.local[ends[mine]]
        factor = record.factors.get(label)
        if factor is None:
            # The component as a graph of its own, its lowest node first; a
            # copy even when it is all of g, since a record on g that held g
            # would be a cycle that only the cycle collector frees.
            part = SignedGraph._derived(n, g.tails, g.heads, g.weights)
            if record.local is not None:
                kept = labels[g.tails] == label
                part = SignedGraph._derived(int(np.count_nonzero(labels == label)),
                                            record.local[g.tails[kept]],
                                            record.local[g.heads[kept]], g.weights[kept])
            factor = record.factors[label] = _grounded_factor(part, 1)
        column = np.arange(mine.size)
        x = _pair_solve(factor, mine_ends, column)
        values[mine] = x[mine_ends[:, 0], column] - x[mine_ends[:, 1], column]
    return values.tolist()


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
        InvalidParameterError: u or v is not an integer (a bool is not one)
            or not a node, or u = v.
        NodesDisconnectedError: u and v lie in different components.
        CrossCheckError: the grounded solve hits a cancelled pivot or fails
            its residual check.
    """
    return _pair_resistances(g, [(u, v)])[0]


def _split_blocks(g_plus: SignedGraph, edge_block: np.ndarray, pair_block: np.ndarray,
                  pairs: np.ndarray) -> tuple[SignedGraph, int, np.ndarray, np.ndarray]:
    """The graph of the positive edges in the pairs' blocks, each block on
    its own node copies, the number of blocks, the copies of the pairs'
    ends (shape ``(m, 2)``) and the node of each copy.

    A copy stands for one (block, node).  Each block's lowest copy, the copy
    of its lowest node, is numbered first, so grounding the first copies
    grounds one copy per block.

    ``g_plus`` must be connected; the two tests below then cross-check the
    block ids (see :func:`resistance_matrix_for_negatives`).  The copies of
    a block are certified connected when every copy after the lowest ones
    has a lower-numbered neighbour, as when the block's nodes are numbered
    in order; otherwise csgraph labels the copies.

    Raises:
        CrossCheckError: a pair's block has no copy of one of its ends, or
            the copies of a block are not connected: the block ids are
            inconsistent with the graph.
    """
    n = g_plus.node_count
    solved = np.isin(edge_block, pair_block, kind="table")
    ends = np.concatenate([g_plus.tails[solved], g_plus.heads[solved]])
    end_keys = np.tile(edge_block[solved], 2) * n + ends
    order = np.argsort(end_keys)
    first = _first_of_runs(end_keys[order])
    keys = end_keys[order][first]
    end_copy = np.empty(end_keys.size, dtype=np.intp)
    end_copy[order] = np.cumsum(first) - 1
    copy_block = keys // n
    lowest = _first_of_runs(copy_block)
    blocks = int(lowest.sum())
    renumber = np.empty(keys.size, dtype=np.intp)
    renumber[np.argsort(~lowest, kind="stable")] = np.arange(keys.size)
    end_copy = renumber[end_copy].reshape(2, -1)
    # Copies of a block keep its node order, its lowest copy moved below the
    # rest, so tail < head holds and the split graph needs no check.
    split = SignedGraph._derived(keys.size, end_copy[0], end_copy[1], g_plus.weights[solved])

    pair_keys = pair_block[:, None] * n + pairs
    pair_copy = np.searchsorted(keys, pair_keys)
    held = (pair_copy < keys.size).all(axis=1)
    held[held] = (keys[pair_copy[held]] == pair_keys[held]).all(axis=1)
    if not held.all():
        pair = tuple(pairs[np.argmin(held)].tolist())
        raise CrossCheckError(f"the positive part of the block of G holding negative edge "
                              f"{pair} misses an end of the edge; the biconnected blocks "
                              f"are inconsistent with the graph")
    # The first `blocks` copies are one per block, and copies of different
    # blocks share no edge: when every other copy has a lower-numbered
    # neighbour, each block's copies are connected, and only a copy without
    # one calls for a labelling.
    if _without_lower_neighbour(split.node_count, split.tails, split.heads)[blocks:].any():
        count, parts = _components(split.node_count, split.tails, split.heads)
        if count != blocks:
            # parts[:blocks] holds each block's part, at its lowest copy.
            apart = parts[renumber] != parts[:blocks][np.cumsum(lowest) - 1]
            k = int(np.flatnonzero(np.isin(pair_block, copy_block[apart]))[0])
            raise CrossCheckError(f"the positive part of the block of G holding negative "
                                  f"edge {tuple(pairs[k].tolist())} is not connected; the "
                                  f"biconnected blocks are inconsistent with the graph")
    copy_node = np.empty(keys.size, dtype=np.intp)
    copy_node[renumber] = keys % n
    return split, blocks, renumber[pair_copy], copy_node


def _block_runs(pair_block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs grouped by block: ``order`` lists them block by block, in
    pair order within a block; per pair, the start in ``order`` of its
    block's run and its colour, its rank among the pairs of its block."""
    order = np.argsort(pair_block, kind="stable")
    run_start = np.maximum.accumulate(
        np.where(_first_of_runs(pair_block[order]), np.arange(order.size), 0))
    start, colour = np.empty_like(order), np.empty_like(order)
    start[order] = run_start
    colour[order] = np.arange(order.size) - run_start
    return order, start, colour


def resistance_matrix_for_negatives(g_plus: SignedGraph, negative_edges):
    """Quadratic form E_-^T L^+(G+) E_- and its diagonal.

    ``g_plus`` must be connected with all-positive weights; ``negative_edges``
    lists ``(u, v)`` endpoint pairs, or is an ``(m, 2)`` array of them.  The
    diagonal always holds the pairwise effective resistances over ``g_plus``;
    the matrix is diagonal exactly when the pairs' path-edge sets are disjoint.

    The matrix is block-diagonal over the biconnected blocks of G, the graph
    ``g_plus`` plus the pairs as edges: entries between pairs in different
    blocks are exactly zero and are not stored.  One grounded sparse solve
    covers every block that holds a pair, each on its own node copies;
    column ``c`` of the right-hand side carries the c-th pair of every block,
    so there are as many columns as the most pairs in one block (see the
    module docstring).  The block ids come from the query's one
    biconnected-block pass over G, made here.

    G+ is tested once, up front, after the pairs: the theorems behind R
    need it connected, and then so is the positive part of each block of G
    (see the module docstring).

    Raises:
        InvalidParameterError: a non-positive weight or a bad pair (see
            :func:`_node_pairs`).
        DisconnectedError: ``g_plus`` is disconnected.
        CrossCheckError: the block ids are inconsistent with ``g_plus``, or
            the grounded solve fails its residual check.

    Returns:
        ``(matrix, diagonal)``: a ``scipy.sparse.csr_array`` of shape
        ``(m, m)`` whose row j stores the entries of the pairs in j's block,
        in pair order, and an array of shape ``(m,)``.
    """
    if np.any(g_plus.weights <= 0.0):
        raise InvalidParameterError(
            "resistance_matrix_for_negatives requires an all-positive graph")
    n = g_plus.node_count
    pairs = _node_pairs(n, negative_edges)
    if _components(n, g_plus.tails, g_plus.heads)[0] != 1:
        raise DisconnectedError("positive subgraph is disconnected")
    if not len(pairs):
        return csr_array((0, 0)), np.zeros(0)
    return _block_solve(g_plus, pairs)[:2]


def _block_solve(g_plus: SignedGraph, pairs: np.ndarray
                 ) -> tuple[csr_array, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`resistance_matrix_for_negatives` on checked pairs, an ``(m, 2)``
    array with m >= 1, over a connected ``g_plus``, plus the potentials ``x``
    on the node copies (one column per colour), the node of each copy and
    the block key of each edge of ``g_plus``, then of each pair.
    """
    n = g_plus.node_count
    # One (low, high) row per pair: E_- has -1 at the low end, +1 at the high.
    pairs = np.sort(pairs, axis=1)
    m = len(pairs)
    tails = np.append(g_plus.tails, pairs[:, 0])
    heads = np.append(g_plus.heads, pairs[:, 1])
    blocks = _edge_blocks(n, tails, heads)
    edge_block, pair_block = blocks[:g_plus.edge_count], blocks[g_plus.edge_count:]
    split, grounded, ends, copy_node = _split_blocks(g_plus, edge_block, pair_block, pairs)
    order, start, colour = _block_runs(pair_block)
    x = _pair_solve(_grounded_factor(split, grounded), ends[:, ::-1], colour)
    # potential[j, c] = b_j^T x[:, c]; within a block, column colour(k) is
    # the potential of pair k, so R_jk = potential[j, colour(k)].
    potential = x[ends[:, 1]] - x[ends[:, 0]]
    # Row j lists the pairs of its block, order[start(j) + i] for i below
    # the block's size.
    size = np.bincount(start, minlength=m)[start]
    indptr = np.concatenate([[0], np.cumsum(size)])
    rows = np.repeat(np.arange(m), size)
    cols = order[np.repeat(start - indptr[:-1], size) + np.arange(indptr[-1])]
    # Halve before adding: a resistance above half the largest double still
    # symmetrizes to itself.
    values = 0.5 * potential[rows, colour[cols]] + 0.5 * potential[cols, colour[rows]]
    matrix = csr_array((values, cols, indptr), shape=(m, m))
    # Pair j is entry colour(j) of its own row.
    return matrix, values[indptr[:-1] + colour], x, copy_node, blocks


def _diagonal_blocks(matrix: csr_array) -> list[tuple[np.ndarray, np.ndarray]]:
    """R's diagonal blocks, from :func:`resistance_matrix_for_negatives`,
    stacked by size: per size s, ascending, ``(members, entries)`` of shapes
    ``(k, s)`` and ``(k, s, s)``, one row per block listing its pairs in pair
    order and that block of R.  The only reader of R's csr layout, in which
    each block's first pair leads its own row.
    """
    indptr, indices = matrix.indptr, matrix.indices
    size = np.diff(indptr)
    leading = np.flatnonzero(indices[indptr[:-1]] == np.arange(size.size))
    sizes = np.sort(size[leading])
    stacks = []
    for s in sizes[_first_of_runs(sizes)]:
        members = indices[indptr[leading[size[leading] == s]][:, None] + np.arange(s)]
        stacks.append((members, matrix.data[indptr[members][:, :, None] + np.arange(s)]))
    return stacks


def negative_edge_report(g: SignedGraph) -> ResistanceReport:
    """Resistances over the positive subgraph for every negative edge, from
    one resistance matrix; every command and verdict that reads them calls
    this.  Without negative edges the report is empty, whatever the
    positive subgraph.

    Raises:
        DisconnectedError: the positive subgraph is disconnected.
        CrossCheckError: a resistance or ``R_tot`` is not finite (it left the
            double range).
    """
    neg = g.weights < 0.0
    if not neg.any():
        return ResistanceReport((), csr_array((0, 0)), 0.0)
    pairs = np.column_stack([g.tails[neg], g.heads[neg]])
    matrix, diag = resistance_matrix_for_negatives(g.positive_subgraph(), pairs)
    with np.errstate(over="ignore"):
        r_tot = float(diag.sum())
    if not (np.isfinite(matrix.data).all() and np.isfinite(r_tot)):
        raise CrossCheckError(
            "a resistance or the total resistance R_tot over the negative edges is not "
            "finite; the weights span more than the double range"
        )
    return ResistanceReport(tuple(zip(*pairs.T.tolist(), diag.tolist())), matrix, r_tot)
