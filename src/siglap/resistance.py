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
component holding one, with one right-hand-side column per pair.  The
resistance matrix of the negative edges is block-diagonal over the
biconnected blocks of G (G+ plus the negative edges): a simple u-v path
never leaves the block of the u-v edge, so the current between the ends of
a negative edge flows only through the positive edges of that edge's block,
and two negative edges in different blocks do not couple.  It takes one
solve of the blocks that hold a negative edge, each on its own node copies
(a cut vertex gets one copy per block) and grounded at its lowest copy;
right-hand-side column ``c`` carries the c-th negative edge of every block.
The matrix is kept sparse, with only its entries within blocks, so its size
is the sum of the squared numbers of negative edges per block, not m x m.
G+ is labelled once, up front, and a disconnected G+ raises
:class:`DisconnectedError` before any block is formed: the threshold
theorems need it connected.  The query's one biconnected-block pass is made
here: the verdict reads the blocks back from R through
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

from .errors import (CrossCheckError, DisconnectedError, InvalidParameterError,
                     NodesDisconnectedError)
from .graph_core import SignedGraph, _components, _edge_blocks, _first_of_runs
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
    low = np.minimum(g.tails, g.heads)
    inner = low >= grounded
    width = int(np.max(np.maximum(g.tails, g.heads)[inner] - low[inner], initial=0))
    free = g.node_count - grounded
    return width if free * (width + 1) <= _BAND_RATIO * (free + 2 * int(inner.sum())) else None


def _banded_solve(g: SignedGraph, grounded: int, width: int, b: np.ndarray) -> np.ndarray:
    """The solution y of ``A y = b`` by LAPACK banded Cholesky (``dpbtrf``,
    ``dpbtrs``) of the grounded matrix A, its band assembled straight from
    the edge columns."""
    n, free = g.node_count, g.node_count - grounded
    k = width + 1
    # Free nodes in reverse order, so the highest is eliminated first.
    first = n - 1 - np.maximum(g.tails, g.heads)
    second = n - 1 - np.minimum(g.tails, g.heads)
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
    return dpbtrs(factor, b[::-1], lower=1)[0][::-1]


def _splu_solve(g: SignedGraph, grounded: int, b: np.ndarray) -> np.ndarray:
    """The solution y of ``A y = b`` by SuperLU of the grounded matrix A,
    sliced from the CSC Laplacian."""
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
        lu = splu(free, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  relax=1, panel_size=1, options={"SymmetricMode": True})
    except RuntimeError as exc:  # a pivot cancelled to exactly zero
        raise CrossCheckError(f"grounded Laplacian factorization failed: {exc}") from exc
    return lu.solve(b)


def _grounded_solve(g: SignedGraph, grounded: int, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = rhs`` with ``x = 0`` at the first ``grounded`` nodes.

    ``g`` is an all-positive graph each of whose components holds exactly
    one of the first ``grounded`` nodes, and every column of ``rhs`` (shape
    ``(n, c)``) sums to zero over each component, so the grounded system is
    nonsingular and its solution also satisfies the dropped rows.  The
    factorization is banded Cholesky or ``splu``, as :func:`_band` decides.

    Raises:
        CrossCheckError: a pivot cancels (exactly, or to rounding level on
            the banded route), or the relative residual of some column
            exceeds ``CROSS_CHECK_RTOL``.
    """
    b = rhs[grounded:]
    width = _band(g, grounded)
    x = np.zeros_like(rhs)
    x[grounded:] = (_splu_solve(g, grounded, b) if width is None
                    else _banded_solve(g, grounded, width, b))
    # L x and ||A||_inf from the edge columns, whichever route solved; the
    # rows of grounded nodes are dropped.
    product = _laplacian_product(g, x)[grounded:]
    # |w| on the diagonal at each end, and again off it between free nodes.
    inner = np.minimum(g.tails, g.heads) >= grounded
    row_abs = np.tile(np.abs(g.weights) * (1.0 + inner), 2)
    norm_l = float(np.bincount(np.concatenate([g.tails, g.heads]), weights=row_abs,
                               minlength=g.node_count)[grounded:].max())
    residual = np.max(np.abs(product - b), axis=0)
    scale = norm_l * np.max(np.abs(x[grounded:]), axis=0) + np.max(np.abs(b), axis=0)
    if not np.all(residual <= CROSS_CHECK_RTOL * scale):
        worst = float(np.max(residual / scale))
        raise CrossCheckError(
            f"grounded Laplacian solve failed its residual check: relative "
            f"residual {worst!r} exceeds {CROSS_CHECK_RTOL!r}"
        )
    return x


def _pair_resistances(g: SignedGraph, pairs) -> list[float]:
    """``R_uv`` for each ``(u, v)`` of ``pairs``, in order.

    Every pair is checked first, in order, as :func:`effective_resistance`
    checks one, and the first that fails raises its error before anything
    is factored.  Then an all-positive graph takes one grounded solve per
    component holding a pair, with one right-hand-side column per pair; a
    graph with any negative weight takes one eigendecomposition
    pseudo-inverse.
    """
    n = g.node_count
    labels = _components(n, g.tails, g.heads)[1]
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"node out of range: ({u}, {v}) on {n} nodes")
        if u == v:
            raise InvalidParameterError(
                f"effective resistance needs two distinct nodes, got {u} twice")
        if labels[u] != labels[v]:
            raise NodesDisconnectedError(f"nodes {u} and {v} are in different components")
    ends = np.array(pairs, dtype=np.intp)
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
        u, v = ends[mine, 0], ends[mine, 1]
        inside = np.flatnonzero(labels == label)
        part = g
        if inside.size < n:  # keep the component, its lowest node first
            kept = labels[g.tails] == label
            local = np.empty(n, dtype=np.intp)
            local[inside] = np.arange(inside.size)
            part = SignedGraph(inside.size, local[g.tails[kept]], local[g.heads[kept]],
                               g.weights[kept])
            u, v = local[u], local[v]
        column = np.arange(mine.size)
        rhs = np.zeros((part.node_count, mine.size))
        rhs[u, column] = 1.0
        rhs[v, column] = -1.0
        x = _grounded_solve(part, 1, rhs)
        values[mine] = x[u, column] - x[v, column]
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
        InvalidParameterError: u or v is not a node, or u = v.
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
    block ids (see :func:`resistance_matrix_for_negatives`).

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
    split = SignedGraph(keys.size, end_copy[0], end_copy[1], g_plus.weights[solved])

    pair_keys = pair_block[:, None] * n + pairs
    pair_copy = np.searchsorted(keys, pair_keys)
    held = (pair_copy < keys.size).all(axis=1)
    held[held] = (keys[pair_copy[held]] == pair_keys[held]).all(axis=1)
    if not held.all():
        pair = tuple(pairs[np.argmin(held)].tolist())
        raise CrossCheckError(f"the positive part of the block of G holding negative edge "
                              f"{pair} misses an end of the edge; the biconnected blocks "
                              f"are inconsistent with the graph")
    count, parts = _components(split.node_count, split.tails, split.heads)
    if count != blocks:
        # parts[:blocks] holds each block's part, at its lowest copy.
        apart = parts[renumber] != parts[:blocks][np.cumsum(lowest) - 1]
        k = int(np.flatnonzero(np.isin(pair_block, copy_block[apart]))[0])
        raise CrossCheckError(f"the positive part of the block of G holding negative edge "
                              f"{tuple(pairs[k].tolist())} is not connected; the "
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
    is a list of ``(u, v)`` endpoint pairs.  The diagonal always holds the
    pairwise effective resistances over ``g_plus``; the matrix itself is
    diagonal exactly when the path-edge sets of the pairs are disjoint.

    The matrix is block-diagonal over the biconnected blocks of G, the graph
    ``g_plus`` plus the pairs as edges: entries between pairs in different
    blocks are exactly zero and are not stored.  One grounded sparse solve
    covers every block that holds a pair, each on its own node copies;
    column ``c`` of the right-hand side carries the c-th pair of every block,
    so there are as many columns as the most pairs in one block (see the
    module docstring).  The block ids come from the query's one
    biconnected-block pass over G, made here.

    G+ is labelled once, up front: the theorems behind R need it connected.
    Then the positive part of the block of G holding a pair is connected
    too, since a simple path between two nodes of a block never leaves it,
    and the tests on the solved blocks cross-check the block ids.

    Raises:
        InvalidParameterError: a non-positive weight or an invalid node pair.
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
    listed = list(negative_edges)
    for u, v in listed:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InvalidParameterError(f"invalid node pair ({u}, {v})")
    if _components(n, g_plus.tails, g_plus.heads)[0] != 1:
        raise DisconnectedError("positive subgraph is disconnected")
    if not listed:
        return csr_array((0, 0)), np.zeros(0)
    return _block_solve(g_plus, listed)[:2]


def _block_solve(g_plus: SignedGraph, pairs
                 ) -> tuple[csr_array, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`resistance_matrix_for_negatives` on checked pairs, at least
    one, over a ``g_plus`` known to be connected, plus the potentials ``x``
    on the node copies (one column per colour), the node of each copy and
    the block key of each edge of ``g_plus``, then of each pair.
    """
    n = g_plus.node_count
    # One (low, high) row per pair: E_- has -1 at the low end, +1 at the high.
    pairs = np.sort(np.array(pairs, dtype=np.intp).reshape(-1, 2), axis=1)
    m = len(pairs)
    tails = np.append(g_plus.tails, pairs[:, 0])
    heads = np.append(g_plus.heads, pairs[:, 1])
    blocks = _edge_blocks(n, tails, heads)
    edge_block, pair_block = blocks[:g_plus.edge_count], blocks[g_plus.edge_count:]
    split, grounded, ends, copy_node = _split_blocks(g_plus, edge_block, pair_block, pairs)
    order, start, colour = _block_runs(pair_block)
    rhs = np.zeros((split.node_count, int(colour.max()) + 1))
    rhs[ends[:, 0], colour] = -1.0
    rhs[ends[:, 1], colour] = 1.0
    x = _grounded_solve(split, grounded, rhs)
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
    neg = g.negative_edge_indices()
    if not neg:
        return ResistanceReport((), csr_array((0, 0)), 0.0)
    pairs = list(zip(g.tails[neg].tolist(), g.heads[neg].tolist()))
    matrix, diag = resistance_matrix_for_negatives(g.positive_subgraph(), pairs)
    with np.errstate(over="ignore"):
        r_tot = float(diag.sum())
    if not (np.isfinite(matrix.data).all() and np.isfinite(r_tot)):
        raise CrossCheckError(
            "a resistance or the total resistance R_tot over the negative edges is not "
            "finite; the weights span more than the double range"
        )
    return ResistanceReport(tuple((u, v, float(r)) for (u, v), r in zip(pairs, diag)),
                            matrix, r_tot)
