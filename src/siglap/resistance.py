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

Every all-positive resistance is a series sum over the biconnected blocks
of G+ (Klein & Randic, "Resistance distance", 1993): a unit current from u
to v enters and leaves each block on their block-cut path at its cut
vertices and crosses no other block, so ``R_uv`` is the sum of each path
block's resistance between those two nodes.  One lowpoint pass over G+
alone gives the blocks on its depth-first tree, each headed by the child end
of its one tree edge at its top node, and each node's preorder position,
parent and subtree size.  The blocks are solved together on node copies,
one copy per (block, node), each block grounded at its lowest copy, so a
light block beside a heavy one keeps its own scale.  Pair (u, v)'s
right-hand side is +1 at u's copy in u's block and -1 at v's in v's, and,
for each head whose subtree, the preorder interval ``[c, c + size(c))``,
holds exactly one of u and v (``s`` = +1 when it holds u), ``-s`` at its
top node's copy in its block and ``+s`` at the top node's copy in the top
node's own block (none at the root): the current entering and leaving each
path block, or, equally, each potential measured from its block's top node.
One interval test of the heads against the pairs finds these entries, with
no walk per pair, and ``R_uv`` is the right-hand side's inner product with
the potentials.

Pairs are all checked before any solve; then they take one split-graph
solve per component holding one, with one right-hand-side column per pair.
Pair queries factor each component once per graph, a connected graph's one
component alike: the first query on a component makes its block pass,
factors all its blocks on their copies and looks up, per node and per head,
the copies its right-hand sides touch; that record (:class:`_Series`), with
the graph's component labels and whether every weight is positive, is kept
in a private record on the graph (:class:`_PairFactors`) that every later
pair query on it reuses.  A later call then tests every head against its
pairs, builds the columns, and costs two triangular solves on the kept
factor plus one O(|E|) residual product, and gives the same bits.  On a
graph of one block the copies are its nodes in their order, so the bits are
those of one grounded solve of the whole graph.  That pays only when one
graph object is asked for pairs more than once, as when the thresholds
``1/R_uv`` of several candidate negative edges are read on one positive
graph; a first query factors as before.  The record holds one factor per
queried component (about 0.38 MB for a 36x36 grid on the band), lives as
long as the graph, and is dropped when the graph is pickled or copied; a
factorization that fails keeps nothing.  The block solve below, behind the
verdict, ``check-psd`` and cluster prediction, factors on every call and
keeps nothing, and lists each pair's entries from the same interval test,
a slice of pairs at a time; a signed graph pays its dense route on every
call.

The resistance matrix of the negative edges couples two of them only when
their right-hand sides have entries in a common block of G+, and then, in
turn, every pair coupled to either: each such group lies in one
biconnected block of G (G+ plus the negative edges), the entries between
groups are exactly zero, and R keeps the layout of those blocks of G.  It
takes one solve of the blocks of G+ that hold an entry, each on its own
node copies; right-hand-side column ``c`` carries the c-th negative edge of
every group.  The matrix is kept sparse, with only its entries within
groups, so its size is the sum of the squared group sizes, not m x m.  G+
is tested once, up front, and a disconnected G+ raises
:class:`DisconnectedError` before any block is formed: the threshold
theorems need it connected.  Connectivity is certified from the node
numbering when every node but the first has a lower-numbered neighbour (an
in-order numbering, such as any search order), and labelled by csgraph
otherwise; the same holds for the copies of the solved blocks, so a
scrambled order pays a labelling of each.  The block pass's one search
labels nothing, as G+ is connected.  The query's one block pass is made
here: the verdict reads the groups back from R through
:func:`_diagonal_blocks`, and cluster prediction reads R_uv, the solved
blocks and the potentials from :func:`_block_solve`.  Each solved block's
copies must be connected and hold every entry's copy, which cross-checks
the block pass.

A graph with any negative weight takes one dense route instead: the
eigendecomposition pseudo-inverse of the full Laplacian.  A signed grounded
Laplacian may itself be singular (at the semidefiniteness boundary it is),
so it cannot be solved there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

from .errors import CrossCheckError, DisconnectedError, InvalidParameterError
from ._inputs import _node_pairs
from .graph_core import (SignedGraph, _checked_graph, _components, _edge_blocks, _kept,
                         _without_lower_neighbour)
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
    residual = _laplacian_product(f.g, x)[grounded:]
    residual -= b
    residual = np.maximum.reduce(np.abs(residual, out=residual), axis=0) / f.norm
    # Both sides over ||A||: blocks of far apart scales in one system can
    # take ||A|| ||x|| out of the double range.
    scale = (np.maximum.reduce(np.abs(x[grounded:]), axis=0)
             + np.maximum.reduce(np.abs(b), axis=0) / f.norm)
    if not np.logical_and.reduce(residual <= CROSS_CHECK_RTOL * scale):
        worst = float(np.maximum.reduce(residual / scale))
        raise CrossCheckError(
            f"grounded Laplacian solve failed its residual check: relative "
            f"residual {worst!r} exceeds {CROSS_CHECK_RTOL!r}"
        )
    return x


def _entries(tree: tuple[np.ndarray, ...], pairs: np.ndarray, n: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The right-hand sides of ``pairs``, an ``(m, 2)`` array of nodes of the
    connected graph on n nodes whose block pass is ``tree``, as entries
    sorted by pair and then by copy key ``block * n + node``: per entry its
    pair, key and value.

    Pair ``(u, v)`` sends a unit current from u to v, which enters and
    leaves each block on its path at a cut vertex: +1 at u's copy in u's
    block (that of its tree edge) and -1 at v's; and for each head whose
    subtree holds exactly one of u and v, with ``s`` = +1 when it holds u
    and -1 when it holds v, ``-s`` at its top node's copy in its block and
    ``+s`` at the top node's copy in the top node's own block.  The root has
    no block of its own, so its entries drop out, and so do entries that
    cancel.
    """
    _, order, position, up, block, size = tree
    at = position[pairs.T]
    m = len(pairs)
    heads = np.flatnonzero(block == np.arange(block.size))
    stops = (heads + size[heads])[:, None]
    # The heads x pairs interval test, a slice of pairs at a time so that
    # each table stays below 2**22 cells.
    step, found = 1 + 2 ** 22 // heads.size, []
    for k in range(0, m, step):
        holds = [(heads[:, None] <= x) & (x < stops) for x in at[:, k:k + step]]
        head, pair = np.nonzero(holds[0] != holds[1])
        found.append((head, pair + k, holds[0][head, pair]))
    head, pair, holds_u = (np.concatenate(x) for x in zip(*found))
    sign = np.where(holds_u, 1.0, -1.0)
    top = up[heads[head]]
    pair = np.concatenate([np.arange(2 * m) % m, pair, pair])
    block = np.concatenate([block[at.ravel()], heads[head], block[top]])
    where = block * n + np.concatenate([pairs.T.ravel(), order[top], order[top]])
    value = np.where(block < 0, 0.0, np.concatenate([np.repeat([1.0, -1.0], m), -sign, sign]))
    # Entries at one copy for one pair are summed, and those that cancel drop.
    order = np.lexsort((where, pair))
    pair, where = pair[order], where[order]
    first = np.flatnonzero(np.diff(pair, prepend=-1) | np.diff(where, prepend=-1))
    value = np.add.reduceat(value[order], first)
    kept = first[value != 0.0]
    return pair[kept], where[kept], value[value != 0.0]


class _Split(NamedTuple):
    """Blocks of one connected all-positive graph, each on its own node
    copies: the graph's block pass ``tree``, the sorted copy keys ``block *
    n + node``, the copy that each key numbers, and ``factor``, the grounded
    factorization of the graph of the copies."""

    tree: tuple[np.ndarray, ...]
    keys: np.ndarray
    copies: np.ndarray
    factor: _GroundedFactor


def _split_blocks(g_plus: SignedGraph, tree: tuple[np.ndarray, ...], solved: np.ndarray
                  ) -> _Split:
    """The :class:`_Split` of the blocks ``solved`` of the connected
    ``g_plus``, whose block pass is ``tree``.

    A copy stands for one (block, node).  Each block's lowest copy, the copy
    of its lowest node, is numbered first, so grounding the first copies
    grounds one copy per block.  The copies of a block are certified
    connected when every copy after the lowest ones has a lower-numbered
    neighbour, as when the block's nodes are numbered in order; otherwise
    csgraph labels the copies.

    Raises:
        CrossCheckError: the copies of a solved block are not connected (the
            block pass is inconsistent with the graph), or the factorization
            fails.
    """
    n = g_plus.node_count
    mask = np.isin(tree[0], solved, kind="table")
    ends = np.concatenate([g_plus.tails[mask], g_plus.heads[mask]])
    keys, end_copy = np.unique(np.tile(tree[0][mask], 2) * n + ends, return_inverse=True)
    lowest = np.diff(keys // n, prepend=-1) != 0
    blocks = int(lowest.sum())
    copies = np.empty(keys.size, dtype=np.intp)
    copies[np.argsort(~lowest, kind="stable")] = np.arange(keys.size)
    end_copy = copies[end_copy].reshape(2, -1)
    # Copies of a block keep its node order, its lowest copy moved below the
    # rest, so tail < head holds and the split graph needs no check.
    split = SignedGraph._derived(keys.size, end_copy[0], end_copy[1], g_plus.weights[mask])
    # The first `blocks` copies are one per block, and copies of different
    # blocks share no edge: when every other copy has a lower-numbered
    # neighbour, each block's copies are connected, and only a copy without
    # one calls for a labelling.
    if _without_lower_neighbour(split.node_count, split.tails, split.heads)[blocks:].any():
        if _components(split.node_count, split.tails, split.heads)[0] != blocks:
            raise CrossCheckError("the copies of a block of G+ are not connected; the "
                                  "biconnected blocks are inconsistent with the graph")
    return _Split(tree, keys, copies, _grounded_factor(split, blocks))


class _Series(NamedTuple):
    """The split of all the blocks of one connected graph, ready for any
    pair: per preorder position its node's copy in its own block; per head
    (``heads``, ascending) the first position past its subtree (``stops``),
    its top node's copy in its block (``down``) and in the top node's own
    block (``above``), the root's being grounded copy 0; and the
    factorization of the copies."""

    position: np.ndarray
    heads: np.ndarray
    stops: np.ndarray
    own: np.ndarray
    down: np.ndarray
    above: np.ndarray
    factor: _GroundedFactor


def _series(split: _Split, n: int) -> _Series:
    """The :class:`_Series` of ``split``, a split of every block of its graph
    on n nodes.

    Raises:
        CrossCheckError: a block misses a copy of its top node or of a node
            of its tree edges (the block pass is inconsistent with the graph).
    """
    _, order, position, up, block, size = split.tree
    heads = np.flatnonzero(block == np.arange(block.size))
    top = up[heads]
    at = np.concatenate([block, heads, block[top]])
    key = at * n + np.concatenate([order, order[top], order[top]])
    found = np.minimum(np.searchsorted(split.keys, key), split.keys.size - 1)
    if not np.all((split.keys[found] == key) | (at < 0)):
        raise CrossCheckError("a block of G+ misses a copy of one of its nodes; the "
                              "biconnected blocks are inconsistent with the graph")
    own, down, above = np.split(np.where(at < 0, 0, split.copies[found]),
                                [block.size, block.size + heads.size])
    return _Series(position, heads[:, None], (heads + size[heads])[:, None], own, down, above,
                   split.factor)


@dataclass(eq=False)
class _PairFactors:
    """What pair queries on one graph reuse, kept on the graph as
    ``_pair_factors``: its component labels; whether every weight is
    positive, which picks the route; and, by label, the :class:`_Series` of
    all the blocks of each component a pair has queried, stored only once
    its factorization has succeeded.  Pickling and copying a graph drop it."""

    labels: np.ndarray
    positive: bool
    factors: dict[int, _Series]


def _pair_factors(g: SignedGraph) -> _PairFactors:
    """``g``'s :class:`_PairFactors`, made by its first pair query, with no
    factorization yet, and kept on ``g`` by :func:`~siglap.graph_core._kept`."""
    return _kept(g, "_pair_factors", lambda g: _PairFactors(
        _components(g.node_count, g.tails, g.heads)[1], bool(np.all(g.weights > 0.0)), {}))


def _pair_resistances(g: SignedGraph, pairs) -> list[float]:
    """``R_uv`` for each ``(u, v)`` of ``pairs``, in order.

    Every pair is checked first by :func:`_node_pairs`, in order, and the
    first that fails raises its error before anything is factored.  Then an
    all-positive graph takes one split-graph solve per component holding a
    pair, with one right-hand-side column per pair, by the factorization of
    all that component's blocks, made by the first query that needs it and
    then kept in ``g``'s :class:`_PairFactors`.  A graph with any negative
    weight takes one eigendecomposition pseudo-inverse.
    """
    n = g.node_count
    record = _pair_factors(g)
    ends = _node_pairs(n, pairs, record.labels)
    if not record.positive:
        inverse = pseudo_inverse_eig(laplacian_matrix(g))
        # Row k is L^+ (e_u - e_v) of pair k.
        potential = inverse[ends[:, 0]] - inverse[ends[:, 1]]
        column = np.arange(len(ends))
        return (potential[column, ends[:, 0]] - potential[column, ends[:, 1]]).tolist()
    pair_label = record.labels[ends[:, 0]]
    components = dict.fromkeys(pair_label.tolist())  # in order of first pair
    values = np.empty(len(ends))
    for label in components:
        mine = slice(None) if len(components) == 1 else np.flatnonzero(pair_label == label)
        series = record.factors.get(label)
        if series is None:
            # The component's edges on g's nodes: a new graph even when it is
            # all of g, since a record on g that held g would be a cycle that
            # only the cycle collector frees.
            part = g.subgraph(record.labels[g.tails] == label)
            tree = _edge_blocks(n, part.tails, part.heads)
            series = record.factors[label] = _series(_split_blocks(part, tree, tree[0]), n)
        # Column j: +1 at u's own copy and -1 at v's; per head, S = +1 when
        # its subtree, an interval of preorder, holds u alone and -1 when it
        # holds v alone, from one heads x pairs test, and -S at the top
        # node's copy in its block and +S in the top node's own block.  A
        # reversed pair negates the column and its solution: the same bits.
        at = series.position[ends[mine]]
        column = np.arange(len(at))
        rhs = np.zeros((series.factor.g.node_count, len(at)), order="F")
        rhs[series.own[at[:, 0]], column], rhs[series.own[at[:, 1]], column] = 1.0, -1.0
        ends_at = at.T[:, None]
        inside = ((series.heads <= ends_at) & (ends_at < series.stops)).astype(float)
        below = inside[0] - inside[1]
        rhs[series.down] -= below
        np.add.at(rhs, series.above, below)
        values[mine] = np.einsum("ij,ij->j", rhs, _grounded_solve(series.factor, rhs))
    return values.tolist()


def effective_resistance(g: SignedGraph, u: int, v: int) -> float:
    """(e_u - e_v)^T L^+ (e_u - e_v).

    The route depends on the weight signs.  An all-positive graph takes one
    grounded sparse solve over the blocks of the component holding u and v,
    with its residual checked (see the module docstring).  A graph with any
    negative weight takes the eigendecomposition pseudo-inverse of its
    Laplacian.  The resistance-threshold theorems only speak about
    all-positive graphs; the value is still defined (and computed) for
    signed weights, but carries no semidefiniteness meaning there.

    Raises:
        InvalidParameterError: u or v is not an integer (a bool is not one)
            or not a node, or u = v.
        NodesDisconnectedError: u and v lie in different components.
        CrossCheckError: the grounded solve hits a cancelled pivot or fails
            its residual check.
    """
    return _pair_resistances(_checked_graph(g), [(u, v)])[0]


def resistance_matrix_for_negatives(g_plus: SignedGraph, negative_edges):
    """Quadratic form E_-^T L^+(G+) E_- and its diagonal.

    ``g_plus`` must be connected with all-positive weights; ``negative_edges``
    lists ``(u, v)`` endpoint pairs, or is an ``(m, 2)`` array of them.  The
    diagonal always holds the pairwise effective resistances over ``g_plus``;
    the matrix is diagonal exactly when the pairs' path-edge sets are disjoint.

    Pairs couple when their right-hand sides have entries in a common block
    of ``g_plus``, and so, in turn, do the pairs coupled to either: each
    group lies in one block of G, the graph ``g_plus`` plus the pairs as
    edges, and entries between pairs in different groups are exactly zero
    and are not stored.  One grounded sparse solve covers the blocks of
    ``g_plus`` that hold an entry, each on its own node copies; column ``c``
    of the right-hand side carries the c-th pair of every group, so there
    are as many columns as the most pairs in one group (see the module
    docstring).  The query's one block pass over ``g_plus`` is made here.

    G+ is tested once, up front, after the pairs: the theorems behind R
    need it connected.

    Raises:
        InvalidParameterError: a non-positive weight or a bad pair (see
            :func:`_node_pairs`).
        DisconnectedError: ``g_plus`` is disconnected.
        CrossCheckError: the block pass is inconsistent with ``g_plus``, or
            the grounded solve fails its residual check.

    Returns:
        ``(matrix, diagonal)``: a ``scipy.sparse.csr_array`` of shape
        ``(m, m)`` whose row j stores the entries of the pairs in j's group,
        in pair order, and an array of shape ``(m,)``.
    """
    if np.any(_checked_graph(g_plus).weights <= 0.0):
        raise InvalidParameterError(
            "resistance_matrix_for_negatives requires an all-positive graph")
    n = g_plus.node_count
    pairs = _node_pairs(n, negative_edges)
    if _components(n, g_plus.tails, g_plus.heads)[0] != 1:
        raise DisconnectedError("positive subgraph is disconnected")
    if not len(pairs):
        return csr_array((0, 0)), np.zeros(0)
    return _block_solve(g_plus, pairs)[:2]


def _groups(pair: np.ndarray, block: np.ndarray, m: int) -> np.ndarray:
    """Per pair of the m, the lowest pair it couples to, when the entries
    ``pair`` lie in the blocks ``block`` (numbered from 0): each round, each
    block takes its pairs' lowest label and each pair its blocks' lowest."""
    group, low = np.arange(m), np.full(block.size, m)
    while True:
        np.minimum.at(low, block, group[pair])
        joined = group.copy()
        np.minimum.at(joined, pair, low[block])
        if np.array_equal(joined[joined], group):
            return group
        group = joined[joined]


def _block_solve(g_plus: SignedGraph, pairs: np.ndarray
                 ) -> tuple[csr_array, np.ndarray, np.ndarray, _Split]:
    """:func:`resistance_matrix_for_negatives` on checked pairs, an ``(m, 2)``
    array with m >= 1, over a connected ``g_plus``, plus the potentials ``x``
    on the copies (one column per colour) and the :class:`_Split` solved.
    """
    n = g_plus.node_count
    # One (high, low) row per pair: E_- has -1 at the low end, +1 at the high.
    pairs = np.sort(pairs, axis=1)[:, ::-1]
    m = len(pairs)
    tree = _edge_blocks(n, g_plus.tails, g_plus.heads)
    pair, where, value = _entries(tree, pairs, n)
    solved, block = np.unique(where // n, return_inverse=True)
    split = _split_blocks(g_plus, tree, solved)
    found = np.minimum(np.searchsorted(split.keys, where), split.keys.size - 1)
    if not np.all(split.keys[found] == where):
        edge = tuple(pairs[pair[np.argmin(split.keys[found] == where)], ::-1].tolist())
        raise CrossCheckError(f"a block of G+ on the path of negative edge {edge} misses an end "
                              f"of the edge; the blocks are inconsistent with the graph")
    copy = split.copies[found]
    # Pairs with entries in a common block couple, and so do the pairs
    # coupled to either.
    group = _groups(pair, block, m)
    # The pairs group by group, in pair order within a group; per pair, the
    # start of its group in that order and its colour, its rank there.
    order = np.argsort(group, kind="stable")
    count = np.bincount(group)
    start = (np.cumsum(count) - count)[group]
    # Row j lists the pairs of its group, order[start(j) + i] for i below
    # the group's size; pair j's colour is its place in its own row.
    size = count[group]
    indptr = np.concatenate([[0], np.cumsum(size)])
    rows = np.repeat(np.arange(m), size)
    cols = order[np.repeat(start - indptr[:-1], size) + np.arange(indptr[-1])]
    colour = np.flatnonzero(cols == rows) - indptr[:-1]
    # Column-major, as the solvers return x: the residual check's reductions
    # over each column of a row-major (n, c) array took 36 against 4.6 us
    # (n = 1295, c = 3; 2-core Xeon).
    rhs = np.zeros((split.keys.size, int(np.maximum.reduce(colour)) + 1), order="F")
    rhs[copy, colour[pair]] = value
    x = _grounded_solve(split.factor, rhs)
    # potential[j, c] = b_j^T x[:, c]; within a group, column colour(k) is
    # the potential of pair k, so R_jk = potential[j, colour(k)].
    potential = np.zeros((m, x.shape[1]))
    np.add.at(potential, pair, value[:, None] * x[copy])
    # Halve before adding: a resistance above half the largest double still
    # symmetrizes to itself.
    values = 0.5 * potential[rows, colour[cols]] + 0.5 * potential[cols, colour[rows]]
    matrix = csr_array((values, cols, indptr), shape=(m, m))
    # Pair j is entry colour(j) of its own row.
    return matrix, values[indptr[:-1] + colour], x, split


def _node_potential(n: int, split: _Split, x: np.ndarray) -> np.ndarray:
    """The potential, measured from the root, on each of the n nodes of the
    connected graph of ``split``, from the potentials ``x`` (one column) on
    its copies: each node's potential from its block's top node, plus, in
    preorder, the top node's own.  A block without copies carries no
    current.  The sum runs node by node, not as a difference of prefix sums,
    so that a node off the current's path gets the bits of its top node."""
    _, order, position, up, block, _ = split.tree
    top = up[np.maximum(block, 0)]
    where = np.stack([block * n + order, block * n + order[top]])
    found = np.minimum(np.searchsorted(split.keys, where), split.keys.size - 1)
    local = np.subtract(*np.where(split.keys[found] == where, x[split.copies[found]], 0.0))
    potential, top = local.tolist(), top.tolist()
    for p in range(1, len(potential)):
        potential[p] += potential[top[p]]
    return np.array(potential)[position]


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
    stacks = []
    for s in np.unique(size[leading]):
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
    neg = _checked_graph(g).weights < 0.0
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
