"""Property: the inertia that verdicts lift from the m x m matrix
T = I - D^1/2 R D^1/2 equals the dense inertia of the n x n Laplacian."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import siglap as sl
from conftest import dense_laplacian, eig_signature
from siglap.definiteness import BOUNDARY_RTOL, Classification

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
    if len(g.negative_edge_indices()) == 1:
        assert sl.single_edge_verdict(g).sigma == verdict.sigma
