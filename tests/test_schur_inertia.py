"""Properties: the inertia that verdicts lift from T = I - D^1/2 R D^1/2
over the m negative edges equals the dense inertia of the n x n Laplacian,
and counting T block by block equals counting the densified T."""

import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import siglap as sl
from conftest import (
    blocks_glued_at_cut_vertices,
    cycle_chain_at_threshold,
    dense_laplacian,
    eig_signature,
)
from paper_constructions import edge_blocks
from siglap.definiteness import BOUNDARY_RTOL, Classification, _lift_schur_inertia

# A graph is kept only when every eigenvalue that should be nonzero clears
# its zero tolerance by this factor, on L (tolerance n * eps * max|eig|, the
# oracle's) and on T (tolerance BOUNDARY_RTOL, the verdict's).
CLEARANCE = 100.0


@st.composite
def signed_graphs(draw):
    """2..12 nodes: a positive random spanning tree, up to n positive chords,
    and 1..4 negative edges between any two nodes, so the positive part is
    connected and the negative path sets may overlap."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    weight = st.floats(0.1, 2.0)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    edges += [(u, v, draw(weight)) for u, v in draw(st.lists(pair, max_size=n))]
    edges += [(u, v, -draw(st.floats(0.02, 2.0)))
              for u, v in draw(st.lists(pair, min_size=1, max_size=4))]
    return sl.build_graph(n, edges)


def oracle_t(g: sl.SignedGraph) -> np.ndarray:
    """T from a dense SVD pseudo-inverse of the positive Laplacian."""
    n = g.node_count
    pinv = np.linalg.pinv(dense_laplacian(n, [e for e in g.edges if e[2] > 0]))
    neg = [g.edges[k] for k in g.negative_edge_indices()]
    B = np.zeros((n, len(neg)))
    for k, (u, v, _) in enumerate(neg):
        B[u, k], B[v, k] = 1.0, -1.0
    root = np.sqrt([abs(w) for _, _, w in neg])
    return np.eye(len(neg)) - root[:, None] * (B.T @ pinv @ B) * root[None, :]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(signed_graphs())
def test_schur_inertia_equals_dense_inertia(g):
    n = g.node_count
    L = dense_laplacian(n, g.edges)
    mags = np.sort(np.abs(np.linalg.eigvalsh(L)))
    # mags[0] is the all-ones null vector's; every other eigenvalue is nonzero.
    assume(mags[1] > CLEARANCE * n * np.finfo(float).eps * mags[-1])
    assume(np.min(np.abs(np.linalg.eigvalsh(oracle_t(g)))) > CLEARANCE * BOUNDARY_RTOL)

    expected = eig_signature(L)
    verdict = sl.multi_edge_verdict(g)
    assert verdict.sigma.as_tuple() == expected
    assert verdict.sigma.tolerance_used == BOUNDARY_RTOL
    assert (verdict.classification is Classification.INDEFINITE) == (expected[1] > 0)


@st.composite
def negative_edges_in_blocks(draw):
    """Positive blocks glued at cut vertices plus 2..6 negative edges, each
    between two nodes of one positive block, so it stays in that block: the
    first two to three share a block, the rest land in any block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positive, _ = blocks_glued_at_cut_vertices(rng)
    n = 1 + max(max(u, v) for u, v, _ in positive)
    g_plus = sl.build_graph(n, positive)
    block = edge_blocks(g_plus)
    node_sets = [sorted({x for k in np.flatnonzero(block == b)
                         for x in (g_plus.tails[k], g_plus.heads[k])})
                 for b in range(block.max() + 1)]
    shared = draw(st.integers(0, len(node_sets) - 1))
    homes = [shared] * draw(st.integers(2, 3))
    homes += draw(st.lists(st.integers(0, len(node_sets) - 1), max_size=3))
    negative = []
    for b in homes:
        u, v = draw(st.lists(st.sampled_from(node_sets[b]), min_size=2, max_size=2,
                             unique=True))
        negative.append((int(u), int(v), -draw(st.floats(0.05, 2.0))))
    return sl.build_graph(n, positive + negative)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(negative_edges_in_blocks(), st.sampled_from([BOUNDARY_RTOL, 1e-3, 0.1]))
def test_block_inertia_equals_dense_inertia_of_t(g, tol):
    neg = g.negative_edge_indices()
    root = np.sqrt(np.abs(g.weights[neg]))
    dense_r = sl.negative_edge_report(g).matrix.toarray()
    t = np.eye(len(neg)) - root[:, None] * dense_r * root[None, :]
    mags = np.abs(np.linalg.eigvalsh(t))
    # no eigenvalue within round-off of a threshold of the zero test
    for edge in (tol, 0.1 * tol, 10.0 * tol):
        assume(np.all(np.abs(mags - edge) > 1e-9 * edge))

    expected = _lift_schur_inertia(g.node_count, sl.signature(t, tol))
    assert sl.multi_edge_verdict(g, tol).sigma == expected


def test_cactus_verdict_memory_stays_far_below_one_dense_m_by_m_matrix():
    # 10 000 cycles, one chord each at its threshold: m = 10 000, and one
    # dense m x m float array alone would take 800 MB
    g = cycle_chain_at_threshold([1.0] * 10_000)
    tracemalloc.start()
    try:
        verdict = sl.multi_edge_verdict(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.sigma.as_tuple() == (130_000, 0, 10_001)
    assert peak < 160e6
